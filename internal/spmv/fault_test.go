package spmv

import (
	"errors"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// faultEngines builds one engine per schedule, each with four executors
// and its helpers engaged, so a fault may land on the caller or on a
// helper; the tests own Close.
func faultEngines(t *testing.T) map[string]Multiplier {
	t.Helper()
	withGOMAXPROCS(t, 4)
	fused, twoPhase, routed, _, _ := allocFixtures(t)
	engines := map[string]Multiplier{
		"fused":    fused,
		"twophase": twoPhase,
		"routed":   routed,
	}
	for _, eng := range engines {
		engageHelpers(t, eng)
	}
	return engines
}

// withTimeout guards against the exact failure mode this layer exists
// to prevent: a processor panic leaving a step's barrier open.
func withTimeout(t *testing.T, what string, mul func() error) error {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- mul() }()
	select {
	case err := <-done:
		return err
	case <-time.After(10 * time.Second):
		t.Fatalf("%s deadlocked after injected processor panic", what)
		return nil
	}
}

func multiplyWithTimeout(t *testing.T, eng Multiplier, x, y []float64) error {
	t.Helper()
	return withTimeout(t, "Multiply", func() error { return eng.Multiply(x, y) })
}

// TestWorkerPanicContained injects a panic into one virtual processor
// per schedule and verifies the multiply still completes, returns a
// typed *EngineFaultError naming that processor and no other, poisons
// the engine (subsequent multiplies fail fast without running the plan),
// and leaves Close clean.
func TestWorkerPanicContained(t *testing.T) {
	for name, eng := range faultEngines(t) {
		t.Run(name, func(t *testing.T) {
			x := make([]float64, 400)
			y := make([]float64, 400)
			for i := range x {
				x[i] = float64(i%5) - 2
			}
			if err := eng.Multiply(x, y); err != nil {
				t.Fatalf("healthy multiply: %v", err)
			}

			hooker := eng.(WorkerFaultHooker)
			hooker.SetWorkerFaultHook(func(worker int) {
				if worker == 2 {
					panic("injected fault")
				}
			})
			err := multiplyWithTimeout(t, eng, x, y)
			var fe *EngineFaultError
			if !errors.As(err, &fe) {
				t.Fatalf("Multiply with panicking worker returned %v, want *EngineFaultError", err)
			}
			if len(fe.Panics) == 0 || fe.Panics[0].Worker != 2 {
				t.Fatalf("fault error %+v does not name worker 2", fe)
			}
			if !strings.Contains(err.Error(), "injected fault") {
				t.Fatalf("fault error %q does not carry the panic value", err)
			}

			if len(fe.Panics) != 1 {
				t.Fatalf("recorded %d panics, want the one injected: %+v", len(fe.Panics), fe.Panics)
			}

			// The engine is poisoned: later multiplies fail fast with the
			// same fault whatever the hook does now, and never execute a
			// step again — the hook, which runs before every processor's
			// first step, must stay silent.
			var steps atomic.Int64
			hooker.SetWorkerFaultHook(func(int) { steps.Add(1) })
			if err := multiplyWithTimeout(t, eng, x, y); !errors.As(err, &fe) {
				t.Fatalf("poisoned multiply returned %v, want *EngineFaultError", err)
			}
			if n := steps.Load(); n != 0 {
				t.Fatalf("poisoned engine ran %d processor steps", n)
			}
			eng.Close()
			eng.Close() // still idempotent after a fault
		})
	}
}

// TestAllWorkersPanicContained is the worst case: every virtual
// processor panics in the same multiply. Every barrier must still close,
// each processor must be recorded exactly once whichever executor ran
// it, and Close must still collect the helpers.
func TestAllWorkersPanicContained(t *testing.T) {
	for name, eng := range faultEngines(t) {
		t.Run(name, func(t *testing.T) {
			before := runtime.NumGoroutine()
			eng.(WorkerFaultHooker).SetWorkerFaultHook(func(int) { panic("boom") })
			x := make([]float64, 400)
			y := make([]float64, 400)
			err := multiplyWithTimeout(t, eng, x, y)
			var fe *EngineFaultError
			if !errors.As(err, &fe) {
				t.Fatalf("Multiply returned %v, want *EngineFaultError", err)
			}
			if len(fe.Panics) != 8 {
				t.Fatalf("recorded %d panics, want 8 (one per processor)", len(fe.Panics))
			}
			seen := make(map[int]int)
			for _, p := range fe.Panics {
				seen[p.Worker]++
			}
			for vp := 0; vp < 8; vp++ {
				if seen[vp] != 1 {
					t.Fatalf("processor %d recorded %d panics, want 1: %+v", vp, seen[vp], fe.Panics)
				}
			}
			eng.Close()
			// The helpers exit on Close even after containing panics; the
			// fixture's other two engines were running before the count.
			deadline := time.Now().Add(5 * time.Second)
			for runtime.NumGoroutine() > before-3 && time.Now().Before(deadline) {
				time.Sleep(time.Millisecond)
			}
			if after := runtime.NumGoroutine(); after > before-3 {
				t.Fatalf("%d goroutines after Close, want the engine's 3 helpers gone from %d", after, before)
			}
		})
	}
}

// TestBlockMultiplyFaultContained exercises the containment path through
// the multi-RHS dispatch, which runs the same steps with nrhs-wide
// payloads.
func TestBlockMultiplyFaultContained(t *testing.T) {
	testSurfaceFaultContained(t, "MultiplyBlock", 3, false)
}

// TestTransposeMultiplyFaultContained does the same through both
// transpose dispatches, whose plans compile lazily.
func TestTransposeMultiplyFaultContained(t *testing.T) {
	t.Run("single", func(t *testing.T) { testSurfaceFaultContained(t, "MultiplyTranspose", 0, true) })
	t.Run("block", func(t *testing.T) { testSurfaceFaultContained(t, "MultiplyTransposeBlock", 3, true) })
}

// testSurfaceFaultContained injects a panic into processor 1 on the
// named surface (nrhs = 0 is the single-vector call) of every schedule.
func testSurfaceFaultContained(t *testing.T, op string, nrhs int, transpose bool) {
	for name, eng := range faultEngines(t) {
		t.Run(name, func(t *testing.T) {
			w := max(nrhs, 1)
			X := make([]float64, 400*w)
			Y := make([]float64, 400*w)
			for i := range X {
				X[i] = float64(i%7) - 3
			}
			mul := func() error {
				switch {
				case transpose && nrhs > 0:
					return eng.MultiplyTransposeBlock(X, Y, nrhs)
				case transpose:
					return eng.MultiplyTranspose(X, Y)
				default:
					return eng.MultiplyBlock(X, Y, nrhs)
				}
			}
			if err := mul(); err != nil {
				t.Fatalf("healthy %s: %v", op, err)
			}
			eng.(WorkerFaultHooker).SetWorkerFaultHook(func(worker int) {
				if worker == 1 {
					panic("surface fault")
				}
			})
			err := withTimeout(t, op, mul)
			var fe *EngineFaultError
			if !errors.As(err, &fe) {
				t.Fatalf("%s returned %v, want *EngineFaultError", op, err)
			}
			if fe.Op != op {
				t.Fatalf("fault op = %q, want %s", fe.Op, op)
			}
			if len(fe.Panics) != 1 || fe.Panics[0].Worker != 1 {
				t.Fatalf("fault error %+v does not name processor 1 alone", fe)
			}
			eng.Close()
		})
	}
}
