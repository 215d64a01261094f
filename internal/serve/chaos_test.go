package serve

import (
	"context"
	"encoding/json"
	"errors"
	"log/slog"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/serve/faultinject"
)

// TestChaosAcceptance runs the fault-tolerance contract end to end over
// real HTTP: 16 concurrent clients over two engines while the seeded
// injector panics a worker, corrupts a flushed payload and fails a
// rebuild; then a drain with solves in flight; then a goroutine-leak
// check. Everything a production operator relies on is asserted —
// healthy responses bit-identical to solo execution, quarantine and
// breaker-paced recovery, zero dropped in-flight work, /readyz and
// /healthz at the drain boundary, and one log event per quarantine and
// breaker trip — under the work-conserving default and again with a
// linger.
func TestChaosAcceptance(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos acceptance needs a multi-second window")
	}
	forEachLingerMode(t, testChaosAcceptance)
}

func testChaosAcceptance(t *testing.T, opt Options) {
	g0 := runtime.NumGoroutine()

	// Schedule: the 80th worker turn panics (mid-load: each dispatch burns
	// K=4 turns, and the reference phase only spends a handful); the 40th
	// flush comes back with a NaN in it; build 3 — the first rebuild after
	// a quarantine, following the two initial engine builds — fails once.
	points := []string{"worker.panic", "flush.nan", "build.fail"}
	rules, err := faultinject.ParseSchedule("worker.panic@80,flush.nan@40,build.fail@3")
	if err != nil {
		t.Fatal(err)
	}
	inj := faultinject.New(rules...)
	events := obs.NewEventCounter(obs.Nop.Handler())
	opt.Seed = 1
	opt.Injector = inj
	opt.PayloadChecks = true
	opt.RebuildBackoff = 20 * time.Millisecond
	opt.Logger = slog.New(events)
	p := NewPool(opt)
	a := testMatrix(t, 16, 16)
	if err := p.AddMatrix("lap", a); err != nil {
		t.Fatal(err)
	}
	srv := NewServer(p)
	// The drain phase holds its solves at the door until all have been
	// accepted, so that every one of them is in flight when draining begins
	// and does its work while the server shuts down.
	var held atomic.Int32
	gate := make(chan struct{})
	release := sync.OnceFunc(func() { close(gate) })
	defer release()
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/solve" {
			held.Add(1)
			<-gate
		}
		srv.ServeHTTP(w, r)
	}))
	r := rig{client: newRigClient(t), base: hs.URL}
	methods := []string{"s2d", "2d"}
	const k = 4

	// References: one fixed input per method, answered by an idle server —
	// width-1 flushes, the solo execution every later response must match.
	x := randVec(rand.New(rand.NewSource(9)), a.Cols)
	bodies := make([][]byte, len(methods))
	refs := make([][]float64, len(methods))
	// multiply posts method mi's request; the first 200 is its reference
	// and every later one must carry the same bits.
	multiply := func(mi int) (reply, error) {
		rp, err := r.post("/v1/multiply", "application/json", bodies[mi])
		if err != nil || rp.status != http.StatusOK {
			return rp, err
		}
		var mr multiplyResponse
		if err := json.Unmarshal(rp.body, &mr); err != nil {
			return rp, err
		}
		if refs[mi] == nil {
			refs[mi] = mr.Y
		} else if !sameBitsOrNil(mr.Y, refs[mi]) {
			return rp, errors.New("a 200 diverged bitwise from the solo reference")
		}
		return rp, nil
	}
	for mi, m := range methods {
		bodies[mi], err = json.Marshal(multiplyRequest{
			engineRequest: engineRequest{Matrix: "lap", Method: m, K: k}, X: x, DeadlineMs: 1000,
		})
		if err != nil {
			t.Fatal(err)
		}
		if rp, err := multiply(mi); err != nil || rp.status != http.StatusOK {
			t.Fatalf("reference %s: status %d, err %v", m, rp.status, err)
		}
	}

	// Load phase: every 200 is compared against the reference, sheds retry
	// with jittered backoff honoring Retry-After. The schedule counts hits,
	// not time, so the load runs until every fault has fired — however slow
	// the host — and for at least 700 ms, so that some of it follows them.
	allFired := func() bool {
		for _, point := range points {
			if inj.Fired(point) < 1 {
				return false
			}
		}
		return true
	}
	atLeast, atMost := after(700*time.Millisecond), after(20*time.Second)
	stop := func() bool { return atLeast() && (allFired() || atMost()) }
	tl := closedLoop(16, stop, 9, func(c, _ int) (reply, error) { return multiply(c % len(methods)) })
	t.Logf("load: %d ok, %d retries, %d errors; fired panic %d, nan %d, build failure %d",
		tl.ok, tl.retries, tl.errs, inj.Fired("worker.panic"), inj.Fired("flush.nan"), inj.Fired("build.fail"))
	if tl.ok == 0 || tl.errs > 0 {
		t.Fatalf("load phase: %d ok, %d errors (first: %s)", tl.ok, tl.errs, tl.firstErr)
	}
	// A fault still armed here would go off in the drain phase instead.
	for _, point := range points {
		if inj.Fired(point) < 1 {
			t.Fatalf("injected %s never fired (%d hits)", point, inj.Hits(point))
		}
	}

	// Recovery phase: every tripped engine must serve the bit-identical
	// reference again once its cooldown ends.
	pm := p.MetricsSnapshot()
	if pm.Quarantines < 1 {
		t.Error("no engine was quarantined")
	}
	trips := map[string]uint64{} // by method; the pool canonicalizes the case
	for _, b := range pm.Breakers {
		trips[strings.ToLower(b.Method)] += b.Trips
	}
	tripped := 0
	for mi, m := range methods {
		if trips[m] == 0 {
			continue
		}
		tripped++
		rng := rand.New(rand.NewSource(104729))
		backoff := time.Duration(0)
		for deadline := time.Now().Add(10 * time.Second); ; {
			rp, err := multiply(mi)
			if err == nil && rp.status == http.StatusOK {
				break
			}
			if err != nil || !time.Now().Before(deadline) {
				t.Fatalf("engine %s never recovered: status %d, err %v", m, rp.status, err)
			}
			backoff = backoffNext(backoff, rp.retry, rng, 250*time.Millisecond)
			time.Sleep(backoff)
		}
	}
	if tripped == 0 {
		t.Error("no breaker tripped")
	}

	// Drain phase: with solves in flight, take the real SIGTERM path —
	// flip draining, see /readyz shed while /healthz stays live, Shutdown.
	// A solve with an unreachable tolerance runs all max_iter iterations:
	// hundreds of coalesced multiplies, all of them after draining began.
	// LSQR rather than CG: its iterates stay finite on any matrix, so
	// PayloadChecks can't mistake solver divergence for engine corruption
	// mid-drain.
	ones := make([]float64, a.Rows)
	for i := range ones {
		ones[i] = 1
	}
	solve, err := json.Marshal(solveRequest{
		engineRequest: engineRequest{Matrix: "lap", Method: methods[0], K: k},
		B:             ones, Solver: "lsqr", Tol: 1e-300, MaxIter: 100, DeadlineMs: 10_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	status := make([]int, 8)
	var wg sync.WaitGroup
	for c := range status {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if rp, err := r.post("/v1/solve", "application/json", solve); err == nil {
				status[c] = rp.status
			}
		}()
	}
	waitFor(t, "the wave of solves to be in flight", func() bool { return int(held.Load()) == len(status) })
	t0 := time.Now()
	srv.SetDraining(true)
	for path, want := range map[string]int{"/readyz": http.StatusServiceUnavailable, "/healthz": http.StatusOK} {
		resp, err := r.client.Get(hs.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Errorf("draining: %s = %d, want %d", path, resp.StatusCode, want)
		}
	}
	// A request that was handed a connection another one had just finished
	// with leaves the connection it had started dialling unused in the
	// client's pool. The server has read nothing on it yet, and
	// http.Server.Shutdown waits five seconds before it counts such a
	// connection idle — so hang those up first, the ones still being
	// dialled included.
	r.client.CloseIdleConnections()
	release()
	sctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := hs.Config.Shutdown(sctx); err != nil {
		t.Fatalf("drain: shutdown: %v", err)
	}
	if d := time.Since(t0); d > 5*time.Second {
		t.Errorf("drain took %v (limit 5s)", d)
	}
	wg.Wait()
	for c, st := range status {
		if st != http.StatusOK {
			t.Errorf("drain dropped in-flight solve %d: status %d", c, st)
		}
	}

	// State transitions log exactly once: a missing event is an
	// unobservable quarantine, an extra one a transition that fired twice.
	pm = p.MetricsSnapshot()
	tripSum := 0
	for _, b := range pm.Breakers {
		tripSum += int(b.Trips)
	}
	p.Close()
	if got := events.Count("quarantine"); got != int(pm.Quarantines) {
		t.Errorf("%d quarantine log events, want %d (one per pool quarantine)", got, pm.Quarantines)
	}
	if got := events.Count("breaker_open"); got != tripSum {
		t.Errorf("%d breaker_open log events, want %d (one per breaker trip)", got, tripSum)
	}

	// No leaked workers or runners: the count settles back to (about) the
	// pre-test baseline once engines, schedulers, and the server are gone.
	hs.Close()
	r.client.CloseIdleConnections()
	deadline := time.Now().Add(3 * time.Second)
	for {
		if g := runtime.NumGoroutine(); g <= g0+3 {
			break
		} else if !time.Now().Before(deadline) {
			t.Fatalf("goroutines: %d before, %d after chaos + close — leak in the fault path", g0, g)
		}
		time.Sleep(20 * time.Millisecond)
	}
}
