package spmv

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/method"
	"repro/internal/sparse"
	"repro/internal/vecpart"
)

// These tests pin the phase runner's contracts (exec.go): results do not
// depend on how many executors an engine has or which of them ran a
// virtual processor; a multiply completes on whatever executors get
// scheduled; goroutines and memory do not scale with K; what the static
// receive lists deliver is what the statistics report; and waking
// helpers allocates nothing.

// runnerOf returns the engine's phase runner.
func runnerOf(t testing.TB, m Multiplier) *runner {
	t.Helper()
	switch e := m.(type) {
	case *Engine:
		return &e.run
	case *RoutedEngine:
		return &e.run
	}
	t.Fatalf("no runner in %T", m)
	return nil
}

// engageHelpers lowers the wake grain to zero, so the tests' small plans
// wake the helpers on every multiply as a large plan would.
func engageHelpers(t testing.TB, m Multiplier) { runnerOf(t, m).grain = 0 }

// withGOMAXPROCS sets GOMAXPROCS for the rest of the test.
func withGOMAXPROCS(t testing.TB, n int) {
	prev := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// registryFixtures is the equivalence tests' matrix pair: rectangular, so
// a transposed dimension mix-up cannot cancel out, and square for the
// registry methods that only accept square matrices.
type registryFixture struct {
	a     *sparse.CSR
	x, xt []float64
}

func registryFixtures(seed int64) (rect, square registryFixture) {
	r := rand.New(rand.NewSource(seed))
	maxW := kernelWidths[len(kernelWidths)-1]
	rect = registryFixture{a: randomMatrix(r, 150, 110, 1700)}
	rect.x = randomVector(r, rect.a.Cols*maxW)
	rect.xt = randomVector(r, rect.a.Rows*maxW)
	square = registryFixture{a: randomMatrix(r, 130, 130, 1700)}
	square.x = randomVector(r, square.a.Cols*maxW)
	square.xt = randomVector(r, square.a.Rows*maxW)
	return rect, square
}

// buildEither builds the named method on rect, or on square if the
// method rejects rectangular matrices.
func buildEither(t *testing.T, name string, k int, opt method.Options, rect, square registryFixture) (method.Build, registryFixture) {
	t.Helper()
	b, err := method.BuildByName(name, rect.a, k, opt)
	if err == nil {
		return b, rect
	}
	if b, err = method.BuildByName(name, square.a, k, opt); err != nil {
		t.Fatalf("build: %v", err)
	}
	return b, square
}

func compareSurfaces(t *testing.T, label string, got, want kernelSurfaces) {
	t.Helper()
	compareVec(t, label+" Multiply", got.fwd, want.fwd, 0)
	compareVec(t, label+" MultiplyTranspose", got.fwdT, want.fwdT, 0)
	for _, nrhs := range kernelWidths {
		compareVec(t, fmt.Sprintf("%s MultiplyBlock nrhs=%d", label, nrhs), got.blk[nrhs], want.blk[nrhs], 0)
		compareVec(t, fmt.Sprintf("%s MultiplyTransposeBlock nrhs=%d", label, nrhs), got.blkT[nrhs], want.blkT[nrhs], 0)
	}
}

// TestExecutorCountIndependence: an engine's executor count follows the
// host (min(K, GOMAXPROCS) at build), so every registry method must give
// the same bits on all four surfaces whether it is built with 1, 2, 4 or
// 8 executors, helpers engaged, and again on a second build.
func TestExecutorCountIndependence(t *testing.T) {
	const k = 8
	rect, square := registryFixtures(43)
	opt := method.Options{Seed: 7, Pipeline: method.NewPipeline()}
	for _, name := range method.Names() {
		t.Run(name, func(t *testing.T) {
			b, fx := buildEither(t, name, k, opt, rect, square)
			var ref *kernelSurfaces
			for _, procs := range []int{1, 2, 4, 8} {
				withGOMAXPROCS(t, procs)
				for build := 1; build <= 2; build++ {
					eng, err := New(b)
					if err != nil {
						t.Fatalf("engine: %v", err)
					}
					if n := len(runnerOf(t, eng).execs); n != min(k, procs) {
						t.Fatalf("GOMAXPROCS=%d: %d executors, want %d", procs, n, min(k, procs))
					}
					engageHelpers(t, eng)
					got := runKernelSurfaces(t, eng, "scalar", fx.a, fx.x, fx.xt)
					eng.Close()
					if ref == nil {
						ref = &got
						continue
					}
					compareSurfaces(t, fmt.Sprintf("GOMAXPROCS=%d build %d:", procs, build), got, *ref)
				}
			}
		})
	}
}

// TestWorkConservation: an engine built with four executors keeps
// working when the process is cut to one P — helpers are woken on every
// multiply and may never run before it ends. A runner that waits for
// executors instead of tickets, or spins at a step boundary without ever
// parking, hangs here.
func TestWorkConservation(t *testing.T) {
	withGOMAXPROCS(t, 4)
	fused, twoPhase, routed, x, _ := allocFixtures(t)
	const nrhs = 3
	r := rand.New(rand.NewSource(5))
	n := len(x) // the fixture matrix is square
	X := randomVector(r, n*nrhs)
	runtime.GOMAXPROCS(1)

	for _, tc := range []struct {
		name string
		eng  Multiplier
	}{{"fused", fused}, {"twophase", twoPhase}, {"routed", routed}} {
		t.Run(tc.name, func(t *testing.T) {
			eng := tc.eng
			if len(runnerOf(t, eng).execs) != 4 {
				t.Fatalf("fixture has %d executors, want 4", len(runnerOf(t, eng).execs))
			}
			engageHelpers(t, eng)
			surfaces := []struct {
				name string
				mul  func(y []float64) error
				size int
			}{
				{"Multiply", func(y []float64) error { return eng.Multiply(x, y) }, n},
				{"MultiplyBlock", func(y []float64) error { return eng.MultiplyBlock(X, y, nrhs) }, n * nrhs},
				{"MultiplyTranspose", func(y []float64) error { return eng.MultiplyTranspose(x, y) }, n},
				{"MultiplyTransposeBlock", func(y []float64) error { return eng.MultiplyTransposeBlock(X, y, nrhs) }, n * nrhs},
			}
			done := make(chan string, 1)
			go func() {
				for _, s := range surfaces {
					want, y := make([]float64, s.size), make([]float64, s.size)
					if err := s.mul(want); err != nil {
						done <- fmt.Sprintf("%s: %v", s.name, err)
						return
					}
					for i := 0; i < 1000; i++ {
						if err := s.mul(y); err != nil {
							done <- fmt.Sprintf("%s #%d: %v", s.name, i, err)
							return
						}
						for p := range want {
							if math.Float64bits(y[p]) != math.Float64bits(want[p]) {
								done <- fmt.Sprintf("%s #%d: y[%d] = %x, first run %x", s.name, i, p, y[p], want[p])
								return
							}
						}
					}
				}
				done <- ""
			}()
			select {
			case msg := <-done:
				if msg != "" {
					t.Fatal(msg)
				}
			case <-time.After(2 * time.Minute):
				t.Fatal("multiplies hung with helpers woken and one P")
			}
		})
	}
}

// TestScaleK1024: goroutines and packet memory must not scale with K. An
// s2D engine at K=1024 (one goroutine and 2K packet slots per processor
// before the phase runner) adds at most GOMAXPROCS−1 goroutines, agrees
// with the serial product, and leaves nothing behind after Close.
func TestScaleK1024(t *testing.T) {
	const n, k = 20000, 1024
	a := powerLawMatrix(n)
	yp := make([]int, a.Rows)
	for i := range yp {
		yp[i] = i * k / a.Rows
	}
	d := core.Balanced(a, vecpart.ColMajority(a, yp, k), yp, k, core.BalanceConfig{})

	before := runtime.NumGoroutine()
	eng, err := NewEngine(d)
	if err != nil {
		t.Fatal(err)
	}
	if added, limit := runtime.NumGoroutine()-before, runtime.GOMAXPROCS(0)-1; added > limit {
		t.Errorf("K=%d engine added %d goroutines, want at most GOMAXPROCS-1 = %d", k, added, limit)
	}
	engageHelpers(t, eng)

	const nrhs = 3
	r := rand.New(rand.NewSource(3))
	X := randomVector(r, a.Cols*nrhs)
	check := func(what string, got, want []float64) {
		t.Helper()
		var diff, scale float64
		for i := range want {
			diff = max(diff, math.Abs(got[i]-want[i]))
			scale = max(scale, math.Abs(want[i]))
		}
		if !(diff <= 1e-12*scale) {
			t.Errorf("%s: max error %g against a largest entry of %g", what, diff, scale)
		}
	}
	x, want, y := X[:a.Cols], make([]float64, a.Rows), make([]float64, a.Rows)
	a.MulVec(x, want)
	if err := eng.Multiply(x, y); err != nil {
		t.Fatal(err)
	}
	check("Multiply", y, want)
	at := a.Transpose()
	at.MulVec(x, want) // square: x serves both directions
	if err := eng.MultiplyTranspose(x, y); err != nil {
		t.Fatal(err)
	}
	check("MultiplyTranspose", y, want)
	Y := make([]float64, a.Rows*nrhs)
	if err := eng.MultiplyBlock(X, Y, nrhs); err != nil {
		t.Fatal(err)
	}
	col := make([]float64, a.Cols)
	for c := 0; c < nrhs; c++ {
		for j := range col {
			col[j] = X[j*nrhs+c]
		}
		a.MulVec(col, want)
		for i := range y {
			y[i] = Y[i*nrhs+c]
		}
		check(fmt.Sprintf("MultiplyBlock column %d", c), y, want)
	}

	eng.Close()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("%d goroutines after Close, %d before the build", after, before)
	}
}

// deliveries counts what the static receive lists of one direction
// deliver per multiply: packets and words, per phase.
func deliveries(t *testing.T, m Multiplier, transpose bool) (msgs, words []int) {
	t.Helper()
	count := func(ph int, links []recvLink) {
		for len(msgs) <= ph {
			msgs, words = append(msgs, 0), append(words, 0)
		}
		msgs[ph] += len(links)
		for _, l := range links {
			words[ph] += l.from.words()
			if len(l.xTo) != len(l.from.xVal) || len(l.yTo) != len(l.from.yVal) {
				t.Fatalf("phase %d link from %d: translates %d+%d words of a %d+%d word packet",
					ph, l.peer, len(l.xTo), len(l.yTo), len(l.from.xVal), len(l.from.yVal))
			}
		}
	}
	switch e := m.(type) {
	case *Engine:
		for _, pr := range e.procs {
			for ph, links := range pr.plan(transpose).recv {
				if ph == 0 || !e.fused {
					count(ph, links)
				} else if len(links) != 0 {
					t.Fatalf("fused plan receives in phase %d", ph)
				}
			}
		}
	case *RoutedEngine:
		for _, pr := range e.rprocs {
			pl := pr.plan(transpose)
			count(0, pl.recv1)
			count(1, pl.recv2)
		}
	}
	return msgs, words
}

// TestDeliveryAccounting: nothing counts deliveries at run time any more
// — a packet is a buffer read in place — so the statistics are only as
// good as the static receive lists. For every registry method, what the
// lists deliver per phase must equal ScheduleStats (counted off the send
// side of the plan) and the build's analytic Comm(); the transpose
// plan's lists must carry the same totals with the phases reversed.
func TestDeliveryAccounting(t *testing.T) {
	rect, square := registryFixtures(44)
	for _, k := range []int{4, 16} {
		opt := method.Options{Seed: 7, Pipeline: method.NewPipeline()}
		for _, name := range method.Names() {
			t.Run(fmt.Sprintf("%s/K=%d", name, k), func(t *testing.T) {
				b, fx := buildEither(t, name, k, opt, rect, square)
				eng, err := New(b)
				if err != nil {
					t.Fatalf("engine: %v", err)
				}
				t.Cleanup(eng.Close)
				stats, comm := eng.ScheduleStats(), b.Comm()
				msgs, words := deliveries(t, eng, false)
				if len(msgs) != len(stats.Phases) || len(msgs) != len(comm.Phases) {
					t.Fatalf("%d delivery phases, ScheduleStats %d, Comm %d", len(msgs), len(stats.Phases), len(comm.Phases))
				}
				for ph := range msgs {
					s, c := stats.Phases[ph], comm.Phases[ph]
					if msgs[ph] != s.TotalMsgs || msgs[ph] != c.TotalMsgs || words[ph] != s.TotalVolume || words[ph] != c.TotalVolume {
						t.Errorf("phase %d: receive lists deliver %d packets / %d words, ScheduleStats %d / %d, Comm %d / %d",
							ph, msgs[ph], words[ph], s.TotalMsgs, s.TotalVolume, c.TotalMsgs, c.TotalVolume)
					}
				}
				if stats.TotalMsgs != comm.TotalMsgs || stats.TotalVolume != comm.TotalVolume || stats.MaxSendMsgs != comm.MaxSendMsgs {
					t.Errorf("ScheduleStats totals %d / %d / max %d, Comm %d / %d / max %d",
						stats.TotalMsgs, stats.TotalVolume, stats.MaxSendMsgs, comm.TotalMsgs, comm.TotalVolume, comm.MaxSendMsgs)
				}

				yt := make([]float64, fx.a.Cols)
				if err := eng.MultiplyTranspose(fx.xt[:fx.a.Rows], yt); err != nil {
					t.Fatal(err)
				}
				tMsgs, tWords := deliveries(t, eng, true)
				for ph := range msgs {
					rev := len(msgs) - 1 - ph
					if tMsgs[rev] != msgs[ph] || tWords[rev] != words[ph] {
						t.Errorf("transpose phase %d delivers %d packets / %d words, forward phase %d %d / %d",
							rev, tMsgs[rev], tWords[rev], ph, msgs[ph], words[ph])
					}
				}
			})
		}
	}
}

// TestHelpersZeroAlloc: the wake path — posting the job to every helper,
// the tokens, the parks at step boundaries — must not touch the heap
// either, on any surface of any schedule. (AllocsPerRun itself runs at
// GOMAXPROCS(1): the helpers built here are woken every time and get in
// when they can.)
func TestHelpersZeroAlloc(t *testing.T) {
	withGOMAXPROCS(t, 4)
	fused, twoPhase, routed, x, y := allocFixtures(t)
	const nrhs = 8
	X, Y := make([]float64, len(x)*nrhs), make([]float64, len(y)*nrhs)
	copy(X, x)
	for _, tc := range []struct {
		name string
		eng  Multiplier
	}{{"fused", fused}, {"twophase", twoPhase}, {"routed", routed}} {
		eng := tc.eng
		engageHelpers(t, eng)
		for _, s := range []struct {
			name string
			mul  func()
		}{
			{"Multiply", func() { eng.Multiply(x, y) }},
			{"MultiplyBlock", func() { eng.MultiplyBlock(X, Y, nrhs) }},
			{"MultiplyTranspose", func() { eng.MultiplyTranspose(y, x) }},
			{"MultiplyTransposeBlock", func() { eng.MultiplyTransposeBlock(Y, X, nrhs) }},
		} {
			t.Run(tc.name+"/"+s.name, func(t *testing.T) {
				s.mul() // compile the transpose plan, size the block buffers
				if n := testing.AllocsPerRun(100, s.mul); n != 0 {
					t.Errorf("%s with helpers engaged allocates %v times per call, want 0", s.name, n)
				}
			})
		}
	}
}
