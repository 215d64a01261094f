package serve

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/gen"
	"repro/internal/method"
	"repro/internal/serve/faultinject"
	"repro/internal/sparse"
	"repro/internal/spmv"
)

// testMatrix is a small SPD stencil — valid input for every registry
// method and for CG.
func testMatrix(t *testing.T, nx, ny int) *sparse.CSR {
	t.Helper()
	return gen.Laplace2D(nx, ny, false)
}

func buildEngine(t *testing.T, a *sparse.CSR, name string, k int, seed int64) spmv.Multiplier {
	t.Helper()
	b, err := method.BuildByName(name, a, k, method.Options{Seed: seed})
	if err != nil {
		t.Fatalf("build %s: %v", name, err)
	}
	eng, err := spmv.New(b)
	if err != nil {
		t.Fatalf("engine %s: %v", name, err)
	}
	return eng
}

func newTestScheduler(t *testing.T, a *sparse.CSR, opt Options) *scheduler {
	t.Helper()
	s := newScheduler(buildEngine(t, a, "s2d", 4, 1), a.Rows, a.Cols, opt.withDefaults(), EngineKey{}, "", nil, nil)
	t.Cleanup(s.close)
	return s
}

func randVec(r *rand.Rand, n int) []float64 {
	x := make([]float64, n)
	for i := range x {
		x[i] = r.Float64()*4 - 2
	}
	return x
}

// TestFlushOnMaxWaitSingleRequest: a lone request must not wait for
// companions forever — the maxWait window flushes it as a batch of one.
func TestFlushOnMaxWaitSingleRequest(t *testing.T) {
	a := testMatrix(t, 12, 12)
	s := newTestScheduler(t, a, Options{MaxBatch: 8, MaxWait: 5 * time.Millisecond})
	r := rand.New(rand.NewSource(3))
	x := randVec(r, a.Cols)

	t0 := time.Now()
	y, err := s.submit(context.Background(), x)
	if err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(t0); elapsed > 2*time.Second {
		t.Fatalf("single request took %v; maxWait flush broken", elapsed)
	}
	want := make([]float64, a.Rows)
	a.MulVec(x, want)
	for i := range want {
		if diff := y[i] - want[i]; diff > 1e-9 || diff < -1e-9 {
			t.Fatalf("y[%d] = %v, want %v", i, y[i], want[i])
		}
	}
	m := s.metrics()
	if m.Requests != 1 || m.Batches != 1 || m.MeanBatch != 1 {
		t.Fatalf("metrics = %+v, want 1 request in 1 batch", m)
	}
}

// TestFlushOnExactMaxBatch: the batch must flush the moment maxBatch
// requests accumulate, long before the (deliberately huge) maxWait.
func TestFlushOnExactMaxBatch(t *testing.T) {
	a := testMatrix(t, 12, 12)
	const batch = 4
	s := newTestScheduler(t, a, Options{MaxBatch: batch, MaxWait: time.Hour})
	r := rand.New(rand.NewSource(5))

	var wg sync.WaitGroup
	errs := make([]error, batch)
	t0 := time.Now()
	for i := 0; i < batch; i++ {
		x := randVec(r, a.Cols)
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = s.submit(context.Background(), x)
		}(i)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("maxBatch-full batch did not flush (stuck on maxWait)")
	}
	if elapsed := time.Since(t0); elapsed > 10*time.Second {
		t.Fatalf("full batch took %v", elapsed)
	}
	for i, err := range errs {
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}
	m := s.metrics()
	if m.Requests != batch || m.Batches != 1 || m.MeanBatch != batch {
		t.Fatalf("metrics = %+v, want one batch of %d", m, batch)
	}
}

// waitFor polls until cond holds.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if !time.Now().Before(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// waitDepth polls until the scheduler's queue reaches depth n.
func waitDepth(t *testing.T, s *scheduler, n int) {
	t.Helper()
	waitFor(t, fmt.Sprintf("queue depth %d", n), func() bool { return s.metrics().QueueDepth >= n })
}

// TestContextCancelledMidBatch: a request cancelled while queued returns
// ctx.Err immediately, leaves the queue (it must not widen the batch or
// hold its caller's x and y slices), and does not disturb its
// batchmates' results; one cancelled after a flush claimed it waits that
// flush out (the subtest).
func TestContextCancelledMidBatch(t *testing.T) {
	a := testMatrix(t, 12, 12)
	const batch = 4
	s := newTestScheduler(t, a, Options{MaxBatch: batch, MaxWait: time.Hour})
	r := rand.New(rand.NewSource(7))

	ctx, cancel := context.WithCancel(context.Background())
	cancelledErr := make(chan error, 1)
	xs := make([][]float64, 5)
	for i := range xs {
		xs[i] = randVec(r, a.Cols)
	}
	go func() {
		_, err := s.submit(ctx, xs[0])
		cancelledErr <- err
	}()
	waitDepth(t, s, 1)

	type out struct {
		y   []float64
		err error
	}
	outs := make([]chan out, 4)
	sub := func(i int) {
		outs[i] = make(chan out, 1)
		go func() {
			y, err := s.submit(context.Background(), xs[1+i])
			outs[i] <- out{y, err}
		}()
	}
	sub(0)
	sub(1)
	waitDepth(t, s, 3) // A (cancellable) + two batchmates, one short of a flush

	// Cancel the first request: it leaves the queue immediately, so the
	// batch is further from full and the batchmates keep waiting.
	cancel()
	if err := <-cancelledErr; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled request returned %v, want context.Canceled", err)
	}
	if d := s.metrics().QueueDepth; d != 2 {
		t.Fatalf("queue depth after cancel = %d, want 2", d)
	}

	// Two fresh requests fill the batch and trigger the flush.
	sub(2)
	sub(3)

	want := make([]float64, a.Rows)
	check := func(x, y []float64) {
		t.Helper()
		a.MulVec(x, want)
		for i := range want {
			if diff := y[i] - want[i]; diff > 1e-9 || diff < -1e-9 {
				t.Fatalf("batchmate result corrupted at %d: %v want %v", i, y[i], want[i])
			}
		}
	}
	for i := 0; i < 4; i++ {
		o := <-outs[i]
		if o.err != nil {
			t.Fatalf("batchmate %d: %v", i, o.err)
		}
		check(xs[1+i], o.y)
	}

	m := s.metrics()
	if m.Cancelled != 1 {
		t.Fatalf("cancelled = %d, want 1", m.Cancelled)
	}
	if m.Requests != 4 || m.Batches != 1 {
		t.Fatalf("metrics = %+v, want one batch of 4 live requests", m)
	}

	t.Run("claimed by a flush", testCancelDuringFlush)
}

// TestCancelStormNoRace hammers the scheduler with short-deadline
// submissions and writes each caller's x slice the moment submit
// returns — the pattern /v1/solve's CG produces when a client
// disconnects mid-iteration. Run under -race this pins the contract
// that submit never returns while a flush still reads x.
func TestCancelStormNoRace(t *testing.T) {
	a := testMatrix(t, 20, 20)
	s := newTestScheduler(t, a, Options{MaxBatch: 4, MaxWait: 100 * time.Microsecond})

	const clients = 16
	var wg sync.WaitGroup
	deadline := time.Now().Add(150 * time.Millisecond)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(c)))
			x := randVec(r, a.Cols)
			for time.Now().Before(deadline) {
				ctx, cancel := context.WithTimeout(context.Background(),
					time.Duration(r.Intn(300))*time.Microsecond)
				_, err := s.submit(ctx, x)
				cancel()
				if err != nil && !errors.Is(err, context.DeadlineExceeded) {
					t.Errorf("client %d: %v", c, err)
					return
				}
				// Reuse x immediately, like an iterative solver would.
				x[r.Intn(len(x))] = r.Float64()
			}
		}(c)
	}
	wg.Wait()
}

// TestSubmitOverload: the bounded queue rejects the request past
// MaxQueue with a typed overload error, without blocking.
func TestSubmitOverload(t *testing.T) {
	a := testMatrix(t, 12, 12)
	s := newTestScheduler(t, a, Options{MaxBatch: 64, MaxWait: time.Hour, MaxQueue: 2})
	r := rand.New(rand.NewSource(11))

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	for i := 0; i < 2; i++ {
		go s.submit(ctx, randVec(r, a.Cols)) //nolint:errcheck // unblocked by cancel
	}
	waitDepth(t, s, 2)

	_, err := s.submit(context.Background(), randVec(r, a.Cols))
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("err = %v, want ErrOverloaded", err)
	}
	var oe *OverloadError
	if !errors.As(err, &oe) || oe.Limit != 2 {
		t.Fatalf("err = %#v, want *OverloadError with Limit 2", err)
	}
	if m := s.metrics(); m.Overloads != 1 {
		t.Fatalf("overloads = %d, want 1", m.Overloads)
	}
}

// TestSubmitAfterClose: submissions after close fail with ErrClosed and
// close drains queued work first.
func TestSubmitAfterClose(t *testing.T) {
	a := testMatrix(t, 12, 12)
	s := newScheduler(buildEngine(t, a, "s2d", 4, 1), a.Rows, a.Cols,
		Options{}.withDefaults(), EngineKey{}, "", nil, nil)
	r := rand.New(rand.NewSource(13))
	x := randVec(r, a.Cols)
	if _, err := s.submit(context.Background(), x); err != nil {
		t.Fatal(err)
	}
	s.close()
	s.close() // idempotent
	if _, err := s.submit(context.Background(), x); !errors.Is(err, ErrClosed) {
		t.Fatalf("err = %v, want ErrClosed", err)
	}
}

// TestSubmitDimensionError: admission control rejects wrong-sized
// vectors before they reach the engine.
func TestSubmitDimensionError(t *testing.T) {
	a := testMatrix(t, 12, 12)
	s := newTestScheduler(t, a, Options{})
	_, err := s.submit(context.Background(), make([]float64, a.Cols+1))
	var de *DimensionError
	if !errors.As(err, &de) {
		t.Fatalf("err = %v, want *DimensionError", err)
	}
}

// TestCoalescedBitwiseEqualsSolo is the correctness half of the serving
// acceptance criterion: results demultiplexed from coalesced batches
// must be bit-identical to solo engine Multiply calls, across engine
// schedules (fused s2D, two-phase 2D, routed s2D-b, medium-grain).
func TestCoalescedBitwiseEqualsSolo(t *testing.T) {
	a := testMatrix(t, 16, 14)
	const k, seed = 4, 1
	for _, name := range []string{"1d", "2d", "2d-b", "s2d", "s2d-b", "s2d-mg"} {
		t.Run(name, func(t *testing.T) {
			forEachLingerMode(t, func(t *testing.T, opt Options) {
				solo := buildEngine(t, a, name, k, seed)
				defer solo.Close()
				s := newScheduler(buildEngine(t, a, name, k, seed), a.Rows, a.Cols,
					opt.withDefaults(), EngineKey{}, "", nil, nil)
				defer s.close()

				r := rand.New(rand.NewSource(17))
				const n = 24
				xs := make([][]float64, n)
				for i := range xs {
					xs[i] = randVec(r, a.Cols)
				}
				got := make([][]float64, n)
				errs := make([]error, n)
				var wg sync.WaitGroup
				for i := 0; i < n; i++ {
					wg.Add(1)
					go func(i int) {
						defer wg.Done()
						got[i], errs[i] = s.submit(context.Background(), xs[i])
					}(i)
				}
				wg.Wait()

				want := make([]float64, a.Rows)
				for i := 0; i < n; i++ {
					if errs[i] != nil {
						t.Fatalf("request %d: %v", i, errs[i])
					}
					solo.Multiply(xs[i], want)
					for j := range want {
						if got[i][j] != want[j] {
							t.Fatalf("request %d: y[%d] = %v, want %v (not bit-identical)",
								i, j, got[i][j], want[j])
						}
					}
				}
				if m := s.metrics(); m.Requests != n {
					t.Fatalf("requests = %d, want %d", m.Requests, n)
				}
			})
		})
	}
}

// forEachLingerMode runs f as a subtest under each of the two batching
// regimes the bit-identity contracts must hold in: the work-conserving
// default and an explicit MaxWait.
func forEachLingerMode(t *testing.T, f func(t *testing.T, opt Options)) {
	t.Run("default", func(t *testing.T) { f(t, Options{}) })
	t.Run("linger", func(t *testing.T) { f(t, Options{MaxWait: 2 * time.Millisecond}) })
}

// TestCoalescingThroughputUnderLoad is the performance half of the
// acceptance criterion: with >= 32 in-flight clients and maxBatch=8 the
// coalescing scheduler must achieve a mean batch width above 2 and more
// requests/sec than a no-batching baseline that serializes solo
// Multiply calls on an identical engine — on the engine as built
// (reference kernels everywhere) and with the register-blocked block
// kernels the pool's tuner installs.
//
// The two arms are timed one after the other, so the comparison needs
// the machine to itself for the 0.8 s it takes. Under `go test ./...`
// sibling test binaries and compiles take CPU away, and unevenly: the
// solo arm's 32 goroutines run its inline multiply on whichever thread
// has a CPU, the coalesced arm's multiply runs on the runner's thread
// alone (measured on 2 vCPUs next to the internal/spmv tests: solo −22 %,
// coalesced −43 %). A failed comparison is therefore repeated after a
// pause, up to attempts times; every attempt is logged.
func TestCoalescingThroughputUnderLoad(t *testing.T) {
	a := testMatrix(t, 50, 50) // 2500 rows, ~12k nnz
	const (
		clients  = 32
		duration = 400 * time.Millisecond
		attempts = 5
	)
	r := rand.New(rand.NewSource(19))
	xs := make([][]float64, clients)
	for i := range xs {
		xs[i] = randVec(r, a.Cols)
	}

	// attempt runs both arms on fresh engines and reports what fails.
	attempt := func(t *testing.T, force string) (failures []string) {
		build := func() spmv.Multiplier {
			eng := buildEngine(t, a, "s2d", 4, 1)
			if force != "" {
				if _, err := eng.Autotune(spmv.TuneConfig{Force: force}); err != nil {
					t.Fatal(err)
				}
			}
			return eng
		}

		// Baseline: same engine build, solo Multiply behind a mutex (the
		// only safe no-batching way to share an engine across goroutines).
		solo := build()
		defer solo.Close()
		var soloMu sync.Mutex
		soloOps := loadLoop(clients, duration, func(c int) {
			y := make([]float64, a.Rows)
			soloMu.Lock()
			solo.Multiply(xs[c], y)
			soloMu.Unlock()
		})

		s := newScheduler(build(), a.Rows, a.Cols,
			Options{MaxBatch: 8, MaxWait: 200 * time.Microsecond}.withDefaults(), EngineKey{}, "", nil, nil)
		defer s.close()
		coalescedOps := loadLoop(clients, duration, func(c int) {
			if _, err := s.submit(context.Background(), xs[c]); err != nil {
				t.Error(err)
			}
		})

		m := s.metrics()
		t.Logf("solo %d ops, coalesced %d ops, mean batch %.2f over %d batches",
			soloOps, coalescedOps, m.MeanBatch, m.Batches)
		if m.MeanBatch <= 2 {
			failures = append(failures, fmt.Sprintf("mean batch width = %.2f, want > 2", m.MeanBatch))
		}
		if coalescedOps <= soloOps {
			failures = append(failures, fmt.Sprintf("coalesced throughput %d ops <= solo %d ops", coalescedOps, soloOps))
		}
		return failures
	}

	for _, force := range []string{"", "reg"} {
		name := force
		if name == "" {
			name = "untuned"
		}
		t.Run(name, func(t *testing.T) {
			var failures []string
			for i := 0; i < attempts; i++ {
				if i > 0 {
					time.Sleep(500 * time.Millisecond)
				}
				if failures = attempt(t, force); len(failures) == 0 || t.Failed() {
					return
				}
			}
			for _, f := range failures {
				t.Error(f)
			}
		})
	}
}

// loadLoop runs clients goroutines hammering op until the duration
// elapses and returns total completed operations.
func loadLoop(clients int, d time.Duration, op func(c int)) int {
	var (
		wg    sync.WaitGroup
		mu    sync.Mutex
		total int
	)
	deadline := time.Now().Add(d)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			n := 0
			for time.Now().Before(deadline) {
				op(c)
				n++
			}
			mu.Lock()
			total += n
			mu.Unlock()
		}(c)
	}
	wg.Wait()
	return total
}

// TestSchedulerManyBatches drives enough sequential traffic through a
// small-batch scheduler to exercise the window-restart path (requests
// left over after a full flush start a fresh maxWait window).
func TestSchedulerManyBatches(t *testing.T) {
	a := testMatrix(t, 10, 10)
	s := newTestScheduler(t, a, Options{MaxBatch: 2, MaxWait: time.Millisecond})
	r := rand.New(rand.NewSource(23))

	const n = 40
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		x := randVec(r, a.Cols)
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := s.submit(context.Background(), x); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	m := s.metrics()
	if m.Requests != n {
		t.Fatalf("requests = %d, want %d", m.Requests, n)
	}
	if m.Batches == 0 || m.Batches > n {
		t.Fatalf("batches = %d, want in [%d, %d]", m.Batches, (n+1)/2, n)
	}
	if fmt.Sprintf("%.3f", m.MeanBatch) == "0.000" {
		t.Fatal("mean batch width unrecorded")
	}
}

// TestCoalescedTransposeBitwiseEqualsSolo mixes concurrent forward and
// transpose submissions on one scheduler and checks both directions
// against solo engine calls bit for bit — flushes must stay homogeneous
// in direction, whatever interleaving the queue sees.
func TestCoalescedTransposeBitwiseEqualsSolo(t *testing.T) {
	a := testMatrix(t, 16, 14)
	const k, seed = 4, 1
	for _, name := range []string{"s2d", "2d", "s2d-b"} {
		t.Run(name, func(t *testing.T) {
			solo := buildEngine(t, a, name, k, seed)
			defer solo.Close()
			s := newScheduler(buildEngine(t, a, name, k, seed), a.Rows, a.Cols,
				Options{MaxBatch: 8, MaxWait: 2 * time.Millisecond}.withDefaults(), EngineKey{}, "", nil, nil)
			defer s.close()

			r := rand.New(rand.NewSource(29))
			const n = 24
			xs := make([][]float64, n)
			for i := range xs {
				if i%2 == 0 {
					xs[i] = randVec(r, a.Cols) // forward
				} else {
					xs[i] = randVec(r, a.Rows) // transpose
				}
			}
			got := make([][]float64, n)
			errs := make([]error, n)
			var wg sync.WaitGroup
			for i := 0; i < n; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					if i%2 == 0 {
						got[i], errs[i] = s.submit(context.Background(), xs[i])
					} else {
						got[i], errs[i] = s.submitT(context.Background(), xs[i])
					}
				}(i)
			}
			wg.Wait()

			wantF := make([]float64, a.Rows)
			wantT := make([]float64, a.Cols)
			for i := 0; i < n; i++ {
				if errs[i] != nil {
					t.Fatalf("request %d: %v", i, errs[i])
				}
				want := wantF
				if i%2 == 0 {
					solo.Multiply(xs[i], wantF)
				} else {
					solo.MultiplyTranspose(xs[i], wantT)
					want = wantT
				}
				for j := range want {
					if got[i][j] != want[j] {
						t.Fatalf("request %d: y[%d] = %v, want %v (not bit-identical)",
							i, j, got[i][j], want[j])
					}
				}
			}
			if m := s.metrics(); m.Requests != n {
				t.Fatalf("requests = %d, want %d", m.Requests, n)
			}
		})
	}
}

// TestSubmitTransposeDimensionError: transpose admission control checks
// against the row dimension, not the column one.
func TestSubmitTransposeDimensionError(t *testing.T) {
	a := testMatrix(t, 12, 10) // 120 rows == 120 cols only if square; use rect below
	s := newTestScheduler(t, a, Options{})
	if _, err := s.submitT(context.Background(), make([]float64, a.Rows+1)); err == nil {
		t.Fatal("oversized transpose x accepted")
	}
	if _, err := s.submitT(context.Background(), make([]float64, a.Rows)); err != nil {
		t.Fatalf("correctly sized transpose x rejected: %v", err)
	}
}

// TestMixedDirectionQueueHonorsWaitWindow pins the wait-window rule
// under mixed traffic: the flushable batch is the homogeneous head run,
// so a lone forward request in front of a queue of transpose requests
// must keep aging its MaxWait window — total queue length alone must
// not trigger an immediate sub-width flush.
func TestMixedDirectionQueueHonorsWaitWindow(t *testing.T) {
	a := testMatrix(t, 12, 12)
	s := newTestScheduler(t, a, Options{MaxBatch: 2, MaxWait: time.Hour})
	r := rand.New(rand.NewSource(31))

	fx := randVec(r, a.Cols)
	tx := [2][]float64{randVec(r, a.Rows), randVec(r, a.Rows)}
	results := make(chan error, 3)
	go func() {
		_, err := s.submit(context.Background(), fx)
		results <- err
	}()
	waitDepth(t, s, 1)
	for i := 0; i < 2; i++ {
		go func(i int) {
			_, err := s.submitT(context.Background(), tx[i])
			results <- err
		}(i)
	}
	waitDepth(t, s, 3)

	// Queue length (3) exceeds MaxBatch (2), but the head run is a single
	// forward request: nothing may flush while its hour-long window ages.
	time.Sleep(50 * time.Millisecond)
	if m := s.metrics(); m.Batches != 0 || m.QueueDepth != 3 {
		t.Fatalf("metrics = %+v, want 3 queued and no premature flush", m)
	}

	// close drains the queue: every request completes without error.
	s.close()
	for i := 0; i < 3; i++ {
		if err := <-results; err != nil {
			t.Fatalf("drained request: %v", err)
		}
	}
	if m := s.metrics(); m.Requests != 3 {
		t.Fatalf("requests = %d, want 3 after drain", m.Requests)
	}
}

// recordingEngine notes which input vectors each forward engine call was
// handed, in order: the scheduler's batch composition seen from below.
type recordingEngine struct {
	spmv.Multiplier
	mu    sync.Mutex
	calls [][]*float64 // per call, &x[0] of every vector
}

func (e *recordingEngine) note(X [][]float64) {
	call := make([]*float64, len(X))
	for i, x := range X {
		call[i] = &x[0]
	}
	e.mu.Lock()
	e.calls = append(e.calls, call)
	e.mu.Unlock()
}

func (e *recordingEngine) Multiply(x, y []float64) error {
	e.note([][]float64{x})
	return e.Multiplier.Multiply(x, y)
}

func (e *recordingEngine) MultiplyMulti(X, Y [][]float64) error {
	e.note(X)
	return e.Multiplier.MultiplyMulti(X, Y)
}

// TestDefaultFlushesBacklogAsOneBatch pins natural batching under the
// default Options: whatever queued while a flush ran (here one stalled
// by flush.slow) leaves as ONE batch of min(k, MaxBatch) the moment the
// engine frees — no linger, no dribble of singles — assembled in stride
// order across tenants, and the remainder follows as the next batch.
func TestDefaultFlushesBacklogAsOneBatch(t *testing.T) {
	for _, tc := range []struct {
		name   string
		na, nb int      // vectors queued by tenant a (weight 2) and b (weight 1)
		want   []string // engine calls after the stalled one, as tenant sequences
	}{
		// The stalled request advanced a's pass to 1/2; b activates at the
		// global virtual time 0. Ties go to the lower name.
		{"k<MaxBatch", 3, 2, []string{"baaba"}},
		{"k>MaxBatch", 8, 4, []string{"baabaaba", "abaa"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			reg, err := NewTenantRegistry(
				TenantSpec{Name: "a", Key: "ka", Weight: 2},
				TenantSpec{Name: "b", Key: "kb", Weight: 1},
			)
			if err != nil {
				t.Fatal(err)
			}
			ta, _ := reg.Lookup("a")
			tb, _ := reg.Lookup("b")
			inj := faultinject.New(faultinject.Rule{Point: "flush.slow", Nth: 1})
			opt := Options{Tenants: reg, Injector: inj, FlushDelay: 250 * time.Millisecond}.withDefaults()
			if opt.MaxWait != 0 || opt.MaxBatch != 8 {
				t.Fatalf("defaults are MaxWait %v, MaxBatch %d; want 0 and 8", opt.MaxWait, opt.MaxBatch)
			}
			a := testMatrix(t, 12, 12)
			eng := &recordingEngine{Multiplier: buildEngine(t, a, "s2d", 4, 1)}
			s := newScheduler(eng, a.Rows, a.Cols, opt, EngineKey{}, "", nil, nil)
			t.Cleanup(s.close)

			r := rand.New(rand.NewSource(37))
			owner := map[*float64]string{}
			vecs := func(tenant string, n int) [][]float64 {
				xs := make([][]float64, n)
				for i := range xs {
					xs[i] = randVec(r, a.Cols)
					owner[&xs[i][0]] = tenant
				}
				return xs
			}
			head, xa, xb := vecs("a", 1), vecs("a", tc.na), vecs("b", tc.nb)

			var wg sync.WaitGroup
			submit := func(tn *Tenant, xs [][]float64) {
				wg.Add(1)
				go func() {
					defer wg.Done()
					if _, err := s.submitBatch(context.Background(), tn, xs, nil, false); err != nil {
						t.Error(err)
					}
				}()
			}
			// One request occupies the engine: the runner claims it at once
			// and stalls inside the flush.
			submit(ta, head)
			waitFor(t, "the stalled flush", func() bool { return inj.Fired("flush.slow") == 1 })
			// The backlog forms behind it, each tenant's vectors in order.
			submit(ta, xa)
			submit(tb, xb)
			waitDepth(t, s, tc.na+tc.nb)
			if m := s.metrics(); m.Batches != 0 {
				t.Skipf("the %v stall ended before the backlog had queued", opt.FlushDelay)
			}
			wg.Wait()

			eng.mu.Lock()
			defer eng.mu.Unlock()
			var got []string
			for _, call := range eng.calls[1:] {
				seq := ""
				for _, x := range call {
					seq += owner[x]
				}
				got = append(got, seq)
			}
			if fmt.Sprint(got) != fmt.Sprint(tc.want) {
				t.Fatalf("batches after the stalled flush = %v, want %v", got, tc.want)
			}
			if m := s.metrics(); int(m.Batches) != 1+len(tc.want) || int(m.Requests) != 1+tc.na+tc.nb {
				t.Fatalf("metrics = %+v, want %d requests in %d batches", m, 1+tc.na+tc.nb, 1+len(tc.want))
			}
		})
	}
}

// TestLoneRequestAssembleBelowFlush pins the cost of being alone under
// the default Options: with no linger, the time a lone request spends
// between arriving at an idle engine and the engine starting (assemble:
// runner wake-up and batch take) is less than the multiply itself
// (flush). Under the old 200 µs default — which the runtime's idle timer
// rounds up to a millisecond — assemble was many times the flush. The
// comparison is between the best of several lone requests on each side,
// so one descheduled runner wake-up does not decide it.
func TestLoneRequestAssembleBelowFlush(t *testing.T) {
	a := testMatrix(t, 120, 120) // 14 400 rows: a multiply of ~100 µs
	s := newTestScheduler(t, a, Options{})
	x := randVec(rand.New(rand.NewSource(41)), a.Cols)
	ys := [][]float64{make([]float64, a.Rows)}

	var asm, flush int64
	for i := 0; i < 20; i++ {
		sink := &stageSink{}
		ctx := withStageSink(context.Background(), sink)
		if _, err := s.submitBatch(ctx, nil, [][]float64{x}, ys, false); err != nil {
			t.Fatal(err)
		}
		if sink.flushes != 1 || sink.widthSum != 1 || sink.queueNs != 0 {
			t.Fatalf("lone request: %d flushes, width %d, queue %d ns; want one solo flush straight off an idle engine",
				sink.flushes, sink.widthSum, sink.queueNs)
		}
		if i == 0 || sink.asmNs < asm {
			asm = sink.asmNs
		}
		if i == 0 || sink.flushNs < flush {
			flush = sink.flushNs
		}
	}
	t.Logf("lone request: assemble %v, flush %v", time.Duration(asm), time.Duration(flush))
	if asm >= flush {
		t.Fatalf("lone request assembles for %v around a %v multiply: the default lingers",
			time.Duration(asm), time.Duration(flush))
	}
}

// testCancelDuringFlush is the other half of TestContextCancelledMidBatch,
// the one caller-owned outputs lean on: a request cancelled after a flush
// has claimed it must not return until that flush is done with its x and
// y, because the caller (the handler's free list, a solver's work vector)
// reuses both the moment submitBatch returns. The test scribbles on both
// straight away; under -race an early return is a reported data race,
// and without it the result check catches a torn y.
func testCancelDuringFlush(t *testing.T) {
	inj := faultinject.New(faultinject.Rule{Point: "flush.slow", Nth: 1})
	a := testMatrix(t, 12, 12)
	s := newTestScheduler(t, a, Options{Injector: inj, FlushDelay: 30 * time.Millisecond})
	x := randVec(rand.New(rand.NewSource(43)), a.Cols)
	want := make([]float64, a.Rows)
	a.MulVec(x, want)

	ctx, cancel := context.WithCancel(context.Background())
	y := make([]float64, a.Rows)
	done := make(chan error, 1)
	go func() {
		_, err := s.submitBatch(ctx, nil, [][]float64{x}, [][]float64{y}, false)
		// The buffers are the caller's again: check, then overwrite both.
		if err == nil {
			for i := range want {
				if diff := y[i] - want[i]; diff > 1e-9 || diff < -1e-9 {
					err = fmt.Errorf("y[%d] = %v, want %v", i, y[i], want[i])
					break
				}
			}
		}
		for i := range y {
			y[i] = -1
		}
		for i := range x {
			x[i] = -1
		}
		done <- err
	}()
	waitFor(t, "the flush to claim the request", func() bool { return inj.Fired("flush.slow") == 1 })
	cancel() // mid-flush: the request is no longer in the queue to withdraw
	if err := <-done; err != nil {
		t.Fatalf("cancelled mid-flush: %v, want the flush's own (successful) result", err)
	}
	if m := s.metrics(); m.Cancelled != 0 || m.Requests != 1 {
		t.Fatalf("metrics = %+v, want the request served, not counted cancelled", m)
	}
}

// TestSubmitSteadyStateAllocs pins the allocation cost of one request
// through the scheduler — submit, flush, demultiplex, return — both into
// a caller-owned output (the solve path) and into a scheduler-supplied
// one handed straight back (the multiply handler): a small constant (the
// request record, its done channel, the per-call slices) that does not
// grow with the matrix. The runner's batch, latency and vector-header
// scratch is reused, and the output comes off the free list.
func TestSubmitSteadyStateAllocs(t *testing.T) {
	const maxAllocs = 5
	var owned, recycled []float64
	for _, side := range []int{12, 60} { // 144 and 3 600 rows
		a := testMatrix(t, side, side)
		s := newTestScheduler(t, a, Options{})
		xs := [][]float64{randVec(rand.New(rand.NewSource(47)), a.Cols)}
		ys := [][]float64{make([]float64, a.Rows)}
		ctx := context.Background()
		runOwned := func() {
			if _, err := s.submitBatch(ctx, nil, xs, ys, false); err != nil {
				t.Fatal(err)
			}
		}
		runRecycled := func() {
			out, err := s.submitBatch(ctx, nil, xs, nil, false)
			if err != nil {
				t.Fatal(err)
			}
			s.returnOutputs(out)
		}
		runOwned()    // first flush sizes the tenant queue,
		runRecycled() // second stocks the free list
		owned = append(owned, testing.AllocsPerRun(200, runOwned))
		recycled = append(recycled, testing.AllocsPerRun(200, runRecycled))
	}
	t.Logf("allocs per request: caller-owned y %v, recycled y %v", owned, recycled)
	for _, perSize := range [][]float64{owned, recycled} {
		if perSize[0] != perSize[1] {
			t.Fatalf("allocs per request depend on the matrix: %v", perSize)
		}
		if perSize[0] > maxAllocs {
			t.Fatalf("%v allocs per request, want at most %d", perSize[0], maxAllocs)
		}
	}
}

// TestOutputFreeList pins the output free list's contract: outputs a
// caller hands back serve the next requests (the handler's steady state
// allocates none), the list never holds more than maxFreeOutputs, and a
// closed scheduler keeps nothing.
func TestOutputFreeList(t *testing.T) {
	a := testMatrix(t, 12, 12)
	s := newScheduler(buildEngine(t, a, "s2d", 4, 1), a.Rows, a.Cols,
		Options{MaxQueue: 2 * maxFreeOutputs}.withDefaults(), EngineKey{}, "", nil, nil)
	xs := make([][]float64, maxFreeOutputs+4)
	for i := range xs {
		xs[i] = make([]float64, a.Cols)
	}
	submit := func(n int) [][]float64 {
		t.Helper()
		ys, err := s.submitBatch(context.Background(), nil, xs[:n], nil, false)
		if err != nil {
			t.Fatal(err)
		}
		return ys
	}

	first := submit(3)
	seen := map[*float64]bool{}
	for _, y := range first {
		seen[&y[0]] = true
	}
	s.returnOutputs(first)
	for _, y := range submit(3) {
		if len(y) != a.Rows || !seen[&y[0]] {
			t.Fatalf("second request did not reuse the returned vectors")
		}
	}

	s.returnOutputs(submit(len(xs)))
	if n := len(s.free); n != maxFreeOutputs {
		t.Fatalf("free list holds %d vectors, bound is %d", n, maxFreeOutputs)
	}
	s.close()
	if n := len(s.free); n != 0 {
		t.Fatalf("closed scheduler still holds %d vectors", n)
	}
}

// TestRejectedSubmissionTakesNoOutputs pins where output memory is
// spent: only inside a flush. A call refused up front — wrong
// dimensions, over the tenant's quota, already expired — must cost the
// same few bytes whatever the matrix size and however many vectors it
// names, and must leave the free list alone; a client cannot make the
// server allocate rows×8 bytes per vector by sending vectors it will
// have rejected.
func TestRejectedSubmissionTakesNoOutputs(t *testing.T) {
	a := testMatrix(t, 120, 120) // 14 400 rows: 4096 outputs would be 470 MB
	s := newTestScheduler(t, a, Options{MaxQueue: 8})
	x := make([]float64, a.Cols)
	stock, err := s.submitBatch(context.Background(), nil, [][]float64{x}, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	s.returnOutputs(stock)

	good := make([][]float64, 4096)
	for i := range good {
		good[i] = x
	}
	expired, cancel := context.WithCancel(context.Background())
	cancel()
	for _, tc := range []struct {
		name string
		ctx  context.Context
		xs   [][]float64
		want func(error) bool
	}{
		{"bad dimension", context.Background(), make([][]float64, 4096), func(err error) bool {
			var de *DimensionError
			return errors.As(err, &de)
		}},
		{"over quota", context.Background(), good, func(err error) bool {
			var ov *OverloadError
			return errors.As(err, &ov)
		}},
		{"expired", expired, good[:8], func(err error) bool { return errors.Is(err, context.Canceled) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			_, err := s.submitBatch(tc.ctx, nil, tc.xs, nil, false)
			runtime.ReadMemStats(&after)
			if !tc.want(err) {
				t.Fatalf("err = %v", err)
			}
			// The over-quota call builds its 4096 request records before the
			// quota check (~200 bytes each); one output vector is 115 KB.
			if grew := after.TotalAlloc - before.TotalAlloc; grew > 4<<20 {
				t.Fatalf("rejected call allocated %d bytes", grew)
			}
			if n := len(s.free); n != 1 {
				t.Fatalf("free list holds %d vectors after a rejected call, want the 1 it had", n)
			}
		})
	}
}
