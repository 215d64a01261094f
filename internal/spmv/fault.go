package spmv

// This file is the engine-side fault-containment surface. A panic inside
// one virtual processor's step is recovered around that processor's
// ticket alone (runner.contain in exec.go): the executor records it with
// the processor's id, poisons the engine, counts the ticket done and
// goes on claiming. Nothing has to be released — a step is complete when
// its tickets are, whoever ran them and however they ended — so the
// barrier closes and the multiply returns a typed *EngineFaultError. The
// remaining steps of that multiply only count their tickets, and the
// engine is poisoned from that point on — its compiled buffers may hold
// partial state — so every later multiply fails fast with the same fault
// instead of executing a step. Sharing layers (internal/serve's pool)
// quarantine poisoned engines and rebuild them; the helper goroutines
// themselves survive the panic parked, so Close still collects them
// cleanly.

import (
	"fmt"
	"strings"
)

// ClosedError reports a multiply dispatched after Close. It replaces the
// old diagnosable panic so library callers that race a refcounted Close
// get an error they can branch on instead of a crash.
type ClosedError struct {
	Op string // "Multiply", "MultiplyBlock", "MultiplyTranspose", ...
}

func (e *ClosedError) Error() string {
	return fmt.Sprintf("spmv: %s on closed engine", e.Op)
}

// WorkerPanic records one contained panic inside a virtual processor's
// step.
type WorkerPanic struct {
	Worker int    // virtual processor id
	Value  string // the recovered value, stringified
}

// EngineFaultError reports that one or more virtual processors panicked
// during a multiply. Only the in-flight multiply failed — the process
// and the engine's goroutines survive — but the engine is poisoned: its
// packet buffers may hold partial state, so every subsequent multiply
// returns the same fault. The only recovery is to Close the engine and build a
// fresh one.
type EngineFaultError struct {
	Op     string
	Panics []WorkerPanic
}

func (e *EngineFaultError) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "spmv: engine fault during %s (engine poisoned):", e.Op)
	for _, p := range e.Panics {
		fmt.Fprintf(&b, " worker %d panicked: %s;", p.Worker, p.Value)
	}
	return strings.TrimSuffix(b.String(), ";")
}

// WorkerFaultHooker is implemented by engines that accept an injectable
// per-processor hook, run once per virtual processor per multiply with
// the processor's id, before its first step. A panic inside the hook is
// contained exactly like a plan panic — the serving layer's
// fault-injection harness uses this to force processor crashes at
// chosen points. A nil hook clears it.
type WorkerFaultHooker interface {
	SetWorkerFaultHook(func(worker int))
}

// SetWorkerFaultHook installs h on the engine's runner.
func (e *Engine) SetWorkerFaultHook(h func(worker int)) { e.run.setHook(h) }

// SetWorkerFaultHook installs h on the routed engine's runner.
func (e *RoutedEngine) SetWorkerFaultHook(h func(worker int)) { e.run.setHook(h) }
