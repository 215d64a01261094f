// Package serve is the multi-tenant SpMV serving subsystem: it fronts
// the compiled spmv engines with a production-style request path so that
// many concurrent clients can share a handful of expensive engines and
// the batched SpMM plans turn per-multiply wins into throughput wins.
//
// The pieces, bottom up:
//
//   - Pool: an engine cache keyed by (matrix, method, K). Engines build
//     lazily through the method registry's memoizing Pipeline, are
//     reference-counted by Acquire/Release, and idle engines evict LRU
//     when the pool exceeds its cap — each engine keeps its K persistent
//     workers parked between requests, so a cache hit costs nothing.
//   - scheduler: a work-conserving request-coalescing batcher per
//     engine. The moment the engine is free the runner flushes whatever
//     is queued, up to MaxBatch vectors, as one MultiplyBlock call —
//     batches form from what arrived while the previous flush ran, and
//     a lone request costs its multiply (MaxWait > 0 opts a partial
//     batch into lingering for companions first). A flush writes
//     into the outputs its requests name — a solve's own y — or, for
//     requests that name none, into vectors it takes from a small
//     per-engine free list the HTTP path hands them back to. Results
//     demultiplex back to callers bit-identical to a solo Multiply (the
//     block kernels accumulate each column in the scalar kernels' exact
//     nonzero order).
//   - admission control: per-tenant bounded queues on every engine with
//     typed overload errors (*OverloadError, per-tenant 429 over HTTP),
//     weighted-fair flush ordering across tenants (stride scheduling),
//     and context cancellation for queued requests. The TenantRegistry
//     resolves API keys to tenants; without one, everything runs as the
//     anonymous default tenant and behaves like a single global queue.
//   - Metrics: lock-cheap counters plus a latency ring, snapshotted per
//     engine and pool-wide (requests, batches, mean batch width,
//     p50/p99 latency, live queue depth).
//   - Server: the HTTP JSON front end (cmd/spmvserve) exposing
//     /v1/multiply, /v1/solve (CG on square systems, LSQR/CGNR on
//     rectangular ones, driving the engine's transpose plan),
//     /v1/methods, /v1/matrices (MatrixMarket upload), and /metrics.
//
// The package serves and nothing else: the closed-loop HTTP clients that
// exercise it are test code (rig_test.go, under TestServingSweep,
// TestTenantMixOverHTTP and TestChaosAcceptance), and what times it is
// the benchmark/ module.
package serve

import (
	"log/slog"
	"time"

	"repro/internal/obs"
	"repro/internal/serve/faultinject"
)

// Options configures a Pool and the schedulers it creates.
type Options struct {
	// MaxBatch is the widest SpMM batch one flush may coalesce
	// (default 8).
	MaxBatch int
	// MaxWait is the opt-in linger: how long a partial batch may age for
	// companions before it flushes anyway. The default, 0, is
	// work-conserving — the runner flushes whatever is queued the moment
	// the engine is free, and batches form from what arrived while the
	// previous flush ran. No measured workload gains from a linger: even
	// two closed-loop clients on an engine-bound matrix, who could share
	// one wider SpMM, served more requests per second without it
	// (DESIGN.md, scheduler section). A value under a millisecond is not
	// what it says — the Go runtime rounds a shorter timer up to ≥1 ms
	// whenever every P is idle, the state a lightly loaded server is in.
	MaxWait time.Duration
	// MaxQueue bounds the per-engine queue depth; submissions beyond it
	// fail fast with *OverloadError (default 1024).
	MaxQueue int
	// MaxEngines caps the pool's resident engines; when exceeded, idle
	// (refcount zero) engines evict in LRU order. In-use engines never
	// evict, so the pool can transiently exceed the cap (default 8).
	MaxEngines int
	// RebuildBackoff is the circuit breaker's first cooldown after an
	// engine fault or failed rebuild; each further failure doubles it up
	// to RebuildBackoffMax (defaults 100ms and 5s). While the breaker is
	// open, acquires shed with *QuarantinedError (HTTP 503 +
	// Retry-After).
	RebuildBackoff    time.Duration
	RebuildBackoffMax time.Duration
	// PayloadChecks makes every flush scan its outputs for NaN/Inf and
	// treat corruption as an engine fault. Off by default: a caller
	// submitting NaN inputs legitimately produces NaN outputs, so the
	// scan only makes sense under chaos testing's controlled inputs.
	PayloadChecks bool
	// Injector, when non-nil, arms the fault-injection points in the
	// pool and schedulers (see serve/faultinject). Nil means every point
	// is inert.
	Injector *faultinject.Injector
	// FlushDelay is how long an injected "flush.slow" fault stalls the
	// flush (default 20ms, only meaningful with an Injector).
	FlushDelay time.Duration
	// Seed and Epsilon are the method.Options knobs shared by every
	// build the pool performs.
	Seed    int64
	Epsilon float64
	// Tenants resolves API keys to tenants and carries each tenant's
	// weight and queue quota. Nil means the open single-tenant registry:
	// no authentication, every request is the default tenant, and the
	// scheduler behaves exactly like the pre-tenancy global queue.
	Tenants *TenantRegistry
	// Logger receives the pool's structured operational log: engine
	// lifecycle (build, quarantine, breaker transitions) at Info/Warn and
	// per-request completion lines at Debug. Nil discards everything.
	Logger *slog.Logger
	// Registry collects the serving histograms (per-stage latency per
	// engine and per tenant); the server renders it into the Prometheus
	// /metrics exposition. Nil allocates a private registry.
	Registry *obs.Registry
	// ForceKernel names one spmv kernel backend to install on every
	// pooled engine instead of autotuning ("scalar" pins the reference
	// kernels). Empty autotunes each engine at build time (the
	// single-vector classes only on matrices large enough to time, see
	// minTimedNNZ); the verdicts memoize in the pool's pipeline, so a
	// rebuilt engine reinstalls the original selection without
	// re-probing. The relaxed backend is never admitted here: serving
	// results are contractually bit-identical to a solo engine.
	ForceKernel string
}

func (o Options) withDefaults() Options {
	if o.MaxBatch <= 0 {
		o.MaxBatch = 8
	}
	if o.MaxQueue <= 0 {
		o.MaxQueue = 1024
	}
	if o.MaxEngines <= 0 {
		o.MaxEngines = 8
	}
	if o.RebuildBackoff <= 0 {
		o.RebuildBackoff = 100 * time.Millisecond
	}
	if o.RebuildBackoffMax <= 0 {
		o.RebuildBackoffMax = 5 * time.Second
	}
	if o.FlushDelay <= 0 {
		o.FlushDelay = 20 * time.Millisecond
	}
	if o.Tenants == nil {
		o.Tenants, _ = NewTenantRegistry() // open registry cannot fail
	}
	if o.Logger == nil {
		o.Logger = obs.Nop
	}
	if o.Registry == nil {
		o.Registry = obs.NewRegistry()
	}
	return o
}
