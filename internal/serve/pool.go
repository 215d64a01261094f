package serve

import (
	"context"
	"fmt"
	"log/slog"
	"sort"
	"sync"
	"time"

	"repro/internal/method"
	"repro/internal/obs"
	"repro/internal/sparse"
	"repro/internal/spmv"
)

// EngineKey identifies one pooled engine: a named matrix partitioned by
// a registry method at a part count.
type EngineKey struct {
	Matrix string `json:"matrix"`
	Method string `json:"method"`
	K      int    `json:"k"`
}

func (k EngineKey) String() string { return fmt.Sprintf("%s/%s/K=%d", k.Matrix, k.Method, k.K) }

// Pool caches engines keyed by (matrix, method, K). Engines build
// lazily on first Acquire — partitioning prerequisites go through one
// shared method.Pipeline, so two engines on the same matrix reuse its
// hypergraph models and vector partitions — and stay resident with
// their persistent workers parked between requests. Acquire/Release
// reference-count each engine; when the pool holds more than
// Options.MaxEngines, idle engines evict in LRU order.
type Pool struct {
	opt      Options
	pipeline *method.Pipeline
	log      *slog.Logger
	inst     *instruments

	mu        sync.Mutex
	matrices  map[string]*sparse.CSR
	matOrder  []string
	engines   map[EngineKey]*poolEntry
	breakers  map[EngineKey]*breaker // persists across quarantines
	clock     uint64                 // logical LRU time, bumped per touch
	builds    uint64
	evictions uint64
	quarants  uint64
	closed    bool

	// quarWG tracks the async scheduler closes quarantine spawns, so
	// Close can wait for every quarantined engine's goroutines.
	quarWG sync.WaitGroup
}

// poolEntry is one cached engine. ready closes when the build finishes
// (successfully or not); refs counts outstanding Handles plus, during
// the build, the builder itself.
type poolEntry struct {
	key      EngineKey
	refs     int
	lastUse  uint64
	ready    chan struct{}
	sched    *scheduler
	schedule string // engine variant: fused / twophase / routed
	kernels  string // per-width-class kernel selection (KernelReport.String)
	err      error
}

// NewPool creates an empty pool; register matrices with AddMatrix.
func NewPool(opt Options) *Pool {
	p := &Pool{
		opt:      opt.withDefaults(),
		pipeline: method.NewPipeline(),
		matrices: make(map[string]*sparse.CSR),
		engines:  make(map[EngineKey]*poolEntry),
		breakers: make(map[EngineKey]*breaker),
	}
	p.log = p.opt.Logger
	p.inst = newInstruments(p.opt.Registry)
	return p
}

// Logger is the pool's structured logger (never nil).
func (p *Pool) Logger() *slog.Logger { return p.log }

// Registry is the metrics registry backing the stage histograms.
func (p *Pool) Registry() *obs.Registry { return p.opt.Registry }

// AddMatrix registers a named matrix for serving. Re-registering a name
// is an error: resident engines were built against the old instance.
func (p *Pool) AddMatrix(name string, a *sparse.CSR) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return ErrClosed
	}
	if name == "" {
		return fmt.Errorf("serve: empty matrix name")
	}
	if _, dup := p.matrices[name]; dup {
		return &DuplicateMatrixError{Matrix: name}
	}
	p.matrices[name] = a
	p.matOrder = append(p.matOrder, name)
	return nil
}

// MatrixInfo describes one registered matrix.
type MatrixInfo struct {
	Name string `json:"name"`
	Rows int    `json:"rows"`
	Cols int    `json:"cols"`
	NNZ  int    `json:"nnz"`
}

// Matrices lists the registered matrices in registration order.
func (p *Pool) Matrices() []MatrixInfo {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]MatrixInfo, 0, len(p.matOrder))
	for _, name := range p.matOrder {
		a := p.matrices[name]
		out = append(out, MatrixInfo{Name: name, Rows: a.Rows, Cols: a.Cols, NNZ: a.NNZ()})
	}
	return out
}

// Matrix returns a registered matrix.
func (p *Pool) Matrix(name string) (*sparse.CSR, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	a, ok := p.matrices[name]
	if !ok {
		return nil, &UnknownMatrixError{Matrix: name, Known: append([]string(nil), p.matOrder...)}
	}
	return a, nil
}

// Tenants exposes the pool's tenant registry (never nil — an open
// registry is installed by default).
func (p *Pool) Tenants() *TenantRegistry { return p.opt.Tenants }

// RemoveMatrix unregisters a matrix and closes its idle engines. While
// any engine on the matrix is referenced (a Handle is live, or a build
// is in flight) the delete refuses with *PinnedMatrixError (HTTP 409) —
// release the handles and retry. Unknown names are *UnknownMatrixError.
func (p *Pool) RemoveMatrix(name string) error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return ErrClosed
	}
	if _, ok := p.matrices[name]; !ok {
		known := append([]string(nil), p.matOrder...)
		p.mu.Unlock()
		return &UnknownMatrixError{Matrix: name, Known: known}
	}
	// Builds hold a ref until Acquire returns, so refs>0 also covers
	// engines still under construction — never close a building entry.
	// The smallest pinned key is reported so the 409 payload does not
	// depend on map iteration order.
	var pinKey EngineKey
	var pinRefs int
	pinned := false
	for key, e := range p.engines { //spmvlint:unordered selection with a total tie-break on the key
		if key.Matrix == name && e.refs > 0 {
			if !pinned || key.String() < pinKey.String() {
				pinKey, pinRefs, pinned = key, e.refs, true
			}
		}
	}
	if pinned {
		p.mu.Unlock()
		return &PinnedMatrixError{Matrix: name, Key: pinKey, Refs: pinRefs}
	}
	var victims []*poolEntry
	for key, e := range p.engines {
		if key.Matrix == name {
			delete(p.engines, key)
			victims = append(victims, e)
		}
	}
	for key := range p.breakers {
		if key.Matrix == name {
			delete(p.breakers, key)
		}
	}
	delete(p.matrices, name)
	for i, n := range p.matOrder {
		if n == name {
			p.matOrder = append(p.matOrder[:i], p.matOrder[i+1:]...)
			break
		}
	}
	p.mu.Unlock()
	for _, v := range victims {
		v.sched.close()
	}
	return nil
}

// Acquire returns a Handle on the engine for (matrix, methodName, k),
// building it if absent. The first acquirer performs the build (other
// concurrent acquirers wait on it); the handle pins the engine against
// eviction until Release.
func (p *Pool) Acquire(matrix, methodName string, k int) (*Handle, error) {
	if k < 1 {
		return nil, fmt.Errorf("serve: K must be >= 1, got %d", k)
	}
	m, ok := method.Get(methodName)
	if !ok {
		return nil, &UnknownMethodError{Method: methodName}
	}
	methodName = m.Name() // canonical: "s2d" and "s2D" share one engine
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil, ErrClosed
	}
	a, ok := p.matrices[matrix]
	if !ok {
		known := append([]string(nil), p.matOrder...)
		p.mu.Unlock()
		return nil, &UnknownMatrixError{Matrix: matrix, Known: known}
	}
	key := EngineKey{Matrix: matrix, Method: methodName, K: k}
	e, ok := p.engines[key]
	var build bool
	var evict []*poolEntry
	if !ok {
		// Absent entry → this acquire needs a (re)build; the key's circuit
		// breaker decides whether one may run. While open (a recent fault
		// or failed rebuild is in cooldown) the acquire sheds; the first
		// acquire after the cooldown becomes the half-open probe.
		br := p.breakers[key]
		if br == nil {
			br = &breaker{}
			p.breakers[key] = br
		}
		prev := br.state
		allowed, retry := br.allow(time.Now())
		p.logBreakerLocked(key, prev, br)
		if !allowed {
			p.mu.Unlock()
			return nil, &QuarantinedError{Key: key, RetryAfter: retry}
		}
		e = &poolEntry{key: key, ready: make(chan struct{})}
		p.engines[key] = e
		p.builds++
		build = true
		evict = p.evictLocked()
	}
	e.refs++
	p.clock++
	e.lastUse = p.clock
	p.mu.Unlock()

	for _, v := range evict {
		v.sched.close()
	}
	if build {
		p.build(e, a, methodName, k)
	}
	<-e.ready
	if e.err != nil {
		p.release(e, true)
		// The failed build already tripped the breaker (settle in build's
		// defer, before ready closed), so a build failure is a transient
		// shed for everyone who was waiting on it: 503 + Retry-After from
		// the breaker's live cooldown, not a terminal 500. Read the
		// cooldown directly — allow() here would consume the half-open
		// probe slot a retrying client is entitled to.
		p.mu.Lock()
		retry := p.opt.RebuildBackoff
		if br := p.breakers[e.key]; br != nil {
			if d := time.Until(br.until); d > retry {
				retry = d
			}
		}
		p.mu.Unlock()
		return nil, &QuarantinedError{Key: e.key, RetryAfter: retry, Cause: e.err}
	}
	return &Handle{pool: p, e: e}, nil
}

// build constructs the engine outside the pool lock (partitioning can
// take seconds) and publishes the result through e.ready. The outcome
// settles the key's circuit breaker: success closes it, failure trips
// it (doubling the rebuild cooldown).
func (p *Pool) build(e *poolEntry, a *sparse.CSR, methodName string, k int) {
	defer close(e.ready)
	t0 := time.Now()
	defer func() {
		p.mu.Lock()
		if br := p.breakers[e.key]; br != nil {
			prev := br.state
			br.settle(time.Now(), p.opt, e.err == nil)
			p.logBreakerLocked(e.key, prev, br)
		}
		p.mu.Unlock()
		if e.err != nil {
			p.log.LogAttrs(context.Background(), slog.LevelError, "engine build failed",
				slog.String("event", "build_failed"), slog.String("engine", e.key.String()),
				slog.String("error", e.err.Error()), slog.Duration("elapsed", time.Since(t0)))
		} else {
			p.log.LogAttrs(context.Background(), slog.LevelInfo, "engine built",
				slog.String("event", "build"), slog.String("engine", e.key.String()),
				slog.String("schedule", e.schedule), slog.String("kernel", e.kernels),
				slog.Duration("elapsed", time.Since(t0)))
		}
	}()
	if p.opt.Injector.Fire("build.fail") {
		e.err = fmt.Errorf("serve: build %s: %w", e.key, fmt.Errorf("faultinject: build.fail"))
		return
	}
	opt := method.Options{Seed: p.opt.Seed, Epsilon: p.opt.Epsilon, Pipeline: p.pipeline}
	b, err := method.BuildByName(methodName, a, k, opt)
	if err != nil {
		e.err = fmt.Errorf("serve: build %s: %w", e.key, err)
		return
	}
	eng, err := spmv.New(b)
	if err != nil {
		e.err = fmt.Errorf("serve: engine %s: %w", e.key, err)
		return
	}
	switch {
	case b.Routed():
		e.schedule = "routed"
	case b.Dist.Fused:
		e.schedule = "fused"
	default:
		e.schedule = "twophase"
	}
	// Kernel selection runs before the fault hook arms: the tuner's probe
	// multiplies must not consume count-based chaos schedules aimed at
	// real traffic. RelaxedFP stays false — serving results are
	// contractually bit-identical to a solo engine, and every non-relaxed
	// backend preserves that bit for bit.
	tune := spmv.TuneConfig{Force: p.opt.ForceKernel, Widths: tunedWidths(a.NNZ())}
	if tune.Force == "" {
		tune.Cache = p.pipeline.KernelCache(a, methodName, k, p.opt.Seed, p.opt.Epsilon)
	} else if tune.Force == "relaxed" {
		eng.Close()
		e.err = fmt.Errorf("serve: build %s: kernel %q is excluded from the bit-identical serving path", e.key, tune.Force)
		return
	}
	rep, err := eng.Autotune(tune)
	if err != nil {
		eng.Close()
		e.err = fmt.Errorf("serve: tune %s: %w", e.key, err)
		return
	}
	e.kernels = rep.String()
	if inj := p.opt.Injector; inj != nil {
		if h, ok := eng.(spmv.WorkerFaultHooker); ok {
			h.SetWorkerFaultHook(func(worker int) {
				if inj.Fire("worker.panic") {
					panic("faultinject: worker.panic") //spmvlint:allowpanic fault injection; contained by runContained
				}
			})
		}
	}
	e.sched = newScheduler(eng, a.Rows, a.Cols, p.opt, e.key, e.kernels, p.inst, func(cause error) {
		p.quarantine(e, cause)
	})
}

// minTimedNNZ is the matrix size from which the pool lets the tuner time
// the single-vector kernel classes (nrhs 1 and the generic class). There
// the only candidate besides the reference kernel is the sorted layout,
// and on a small matrix its win is a few percent of a multiply that is
// mostly workers waking each other: the tuner's best-of-three probe
// reads sorted÷scalar anywhere from 0.65 to 1.28 across builds of one
// 12k-nonzero engine (thirty-two alternating pairs still leave ±8 %)
// around a true ratio that sits on its 0.98 threshold. The verdict was
// a coin flip per process, and every request the engine serves for the
// rest of its life inherits it: 5 % of closed-loop req/s on that matrix.
// From 2¹⁸ nonzeros a multiply is long enough to time: on the 160k-row
// benchmark matrices the verdict repeats, and sorted wins nrhs=1 by
// 15–20 % on the power-law one.
const minTimedNNZ = 1 << 18

// tunedWidths is the TuneConfig.Widths the pool tunes for a matrix with
// nnz nonzeros: every class (nil) from minTimedNNZ, and below it only
// the block classes, where register blocking beats the reference kernels
// two- to threefold at any size; the classes left out keep the reference
// kernels, so equal builds serve at equal speed.
func tunedWidths(nnz int) []int {
	if nnz < minTimedNNZ {
		return []int{2, 4, 8}
	}
	return nil
}

// logBreakerLocked emits one structured event per breaker state change
// (called with p.mu held; transitions are rare, so logging under the
// lock is fine). Event names are distinct per target state so
// TestChaosAcceptance can assert "one breaker_open per trip" by counting.
func (p *Pool) logBreakerLocked(key EngineKey, prev breakerState, br *breaker) {
	if br.state == prev {
		return
	}
	event, lvl := "breaker_closed", slog.LevelInfo
	switch br.state {
	case breakerOpen:
		event, lvl = "breaker_open", slog.LevelWarn
	case breakerHalfOpen:
		event = "breaker_half_open"
	}
	p.log.LogAttrs(context.Background(), lvl, "breaker state change",
		slog.String("event", event), slog.String("engine", key.String()),
		slog.String("from", prev.String()), slog.String("to", br.state.String()),
		slog.Uint64("trips", br.trips), slog.Duration("cooldown", br.backoff))
}

// quarantine evicts a faulted engine: the entry leaves the map so the
// next Acquire rebuilds (behind the breaker, which trips here), and the
// scheduler drains and closes asynchronously — quarantine is called
// from the scheduler's own runner goroutine, which close() would wait
// on. Outstanding Handles keep their pins; their submissions fail fast
// with the fault until they Release.
func (p *Pool) quarantine(e *poolEntry, cause error) {
	p.mu.Lock()
	if p.engines[e.key] == e {
		delete(p.engines, e.key)
		p.quarants++
	}
	br := p.breakers[e.key]
	if br == nil {
		br = &breaker{}
		p.breakers[e.key] = br
	}
	prev := br.state
	br.trip(time.Now(), p.opt)
	p.logBreakerLocked(e.key, prev, br)
	cooldown := br.backoff
	p.mu.Unlock()
	p.log.LogAttrs(context.Background(), slog.LevelWarn, "engine quarantined",
		slog.String("event", "quarantine"), slog.String("engine", e.key.String()),
		slog.String("cause", cause.Error()), slog.Duration("cooldown", cooldown))

	p.quarWG.Add(1)
	go func() {
		defer p.quarWG.Done()
		e.sched.close()
	}()
}

// release drops one reference; failed entries leave the map so a later
// Acquire can retry, and a successful release triggers LRU eviction if
// the pool is over its cap.
func (p *Pool) release(e *poolEntry, failed bool) {
	var evict []*poolEntry
	p.mu.Lock()
	e.refs--
	p.clock++
	e.lastUse = p.clock
	if failed && e.refs == 0 {
		// Only delete the entry we hold: a quarantine may already have
		// removed it and a rebuild replaced it under the same key.
		if p.engines[e.key] == e {
			delete(p.engines, e.key)
		}
	} else if !p.closed {
		evict = p.evictLocked()
	}
	p.mu.Unlock()
	for _, v := range evict {
		v.sched.close()
	}
}

// evictLocked removes idle engines, least recently used first, until
// the pool is back under MaxEngines. Entries still referenced (or still
// building) are never touched, so the resident count can transiently
// exceed the cap under load.
func (p *Pool) evictLocked() []*poolEntry {
	if len(p.engines) <= p.opt.MaxEngines {
		return nil
	}
	idle := make([]*poolEntry, 0, len(p.engines))
	for _, e := range p.engines {
		if e.refs == 0 && e.sched != nil {
			idle = append(idle, e)
		}
	}
	sort.Slice(idle, func(i, j int) bool { return idle[i].lastUse < idle[j].lastUse })
	var out []*poolEntry
	for _, e := range idle {
		if len(p.engines) <= p.opt.MaxEngines {
			break
		}
		delete(p.engines, e.key)
		p.evictions++
		out = append(out, e)
		p.log.LogAttrs(context.Background(), slog.LevelInfo, "engine evicted",
			slog.String("event", "evict"), slog.String("engine", e.key.String()))
	}
	return out
}

// EngineMetrics is one resident engine's snapshot. Kernel is the
// per-width-class kernel selection the engine runs ("nrhs:backend"
// pairs, e.g. "0:scalar 1:scalar 2:reg 4:reg 8:sortedreg").
type EngineMetrics struct {
	EngineKey
	Schedule string `json:"schedule"`
	Kernel   string `json:"kernel,omitempty"`
	Refs     int    `json:"refs"`
	Metrics
}

// BreakerMetrics is one engine key's circuit-breaker snapshot.
type BreakerMetrics struct {
	EngineKey
	State string `json:"state"` // closed / open / half-open
	Trips uint64 `json:"trips"`
}

// PoolMetrics is the /metrics payload: pool totals plus one row per
// resident engine and one per known circuit breaker.
type PoolMetrics struct {
	Engines     []EngineMetrics  `json:"engines"`
	Breakers    []BreakerMetrics `json:"breakers,omitempty"`
	Tenants     []TenantMetrics  `json:"tenants,omitempty"`
	MaxEngines  int              `json:"max_engines"`
	Builds      uint64           `json:"builds"`
	Evictions   uint64           `json:"evictions"`
	Quarantines uint64           `json:"quarantines"`
	Requests    uint64           `json:"requests"`
	Batches     uint64           `json:"batches"`
	MeanBatch   float64          `json:"mean_batch"`
}

// MetricsSnapshot gathers per-engine and pool-wide serving metrics.
func (p *Pool) MetricsSnapshot() PoolMetrics {
	p.mu.Lock()
	entries := make([]*poolEntry, 0, len(p.engines))
	for _, e := range p.engines {
		entries = append(entries, e)
	}
	pm := PoolMetrics{
		MaxEngines:  p.opt.MaxEngines,
		Builds:      p.builds,
		Evictions:   p.evictions,
		Quarantines: p.quarants,
	}
	for key, br := range p.breakers {
		pm.Breakers = append(pm.Breakers, BreakerMetrics{
			EngineKey: key, State: br.state.String(), Trips: br.trips,
		})
	}
	sort.Slice(pm.Breakers, func(i, j int) bool {
		return pm.Breakers[i].EngineKey.String() < pm.Breakers[j].EngineKey.String()
	})
	refs := make(map[*poolEntry]int, len(entries))
	for _, e := range entries {
		refs[e] = e.refs
	}
	p.mu.Unlock()

	depths := make(map[*Tenant]int)
	for _, e := range entries {
		select {
		case <-e.ready:
		default:
			continue // still building
		}
		if e.err != nil {
			continue
		}
		m := e.sched.metrics()
		e.sched.tenantDepths(depths)
		pm.Engines = append(pm.Engines, EngineMetrics{
			EngineKey: e.key, Schedule: e.schedule, Kernel: e.kernels,
			Refs: refs[e], Metrics: m,
		})
		pm.Requests += m.Requests
		pm.Batches += m.Batches
	}
	pm.Tenants = p.opt.Tenants.Metrics(depths)
	sort.Slice(pm.Engines, func(i, j int) bool {
		return pm.Engines[i].EngineKey.String() < pm.Engines[j].EngineKey.String()
	})
	if pm.Batches > 0 {
		pm.MeanBatch = float64(pm.Requests) / float64(pm.Batches)
	}
	return pm
}

// Close shuts the pool down: subsequent Acquires fail with ErrClosed,
// and every resident engine's scheduler drains and closes. Engines
// still referenced by outstanding Handles close too — their handles'
// submissions will return ErrClosed — so Close is for process shutdown.
func (p *Pool) Close() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.closed = true
	entries := make([]*poolEntry, 0, len(p.engines))
	for _, e := range p.engines {
		entries = append(entries, e)
		delete(p.engines, e.key)
	}
	p.mu.Unlock()
	for _, e := range entries {
		<-e.ready
		if e.sched != nil {
			e.sched.close()
		}
	}
	// Quarantined engines close asynchronously; collect their goroutines
	// too so Close really means quiesced.
	p.quarWG.Wait()
}

// Handle is a pinned reference to one pooled engine.
type Handle struct {
	pool     *Pool
	e        *poolEntry
	released sync.Once
}

// Key returns the engine's identity.
func (h *Handle) Key() EngineKey { return h.e.key }

// Schedule names the engine variant (fused / twophase / routed).
func (h *Handle) Schedule() string { return h.e.schedule }

// Kernel is the engine's per-width-class kernel selection, in
// KernelReport.String form.
func (h *Handle) Kernel() string { return h.e.kernels }

// Rows and Cols are the served matrix's dimensions.
func (h *Handle) Rows() int { return h.e.sched.rows }
func (h *Handle) Cols() int { return h.e.sched.cols }

// Multiply submits x for coalesced execution and returns y ← Ax,
// bit-identical to a solo engine Multiply. Runs as the default tenant.
func (h *Handle) Multiply(ctx context.Context, x []float64) ([]float64, error) {
	return h.e.sched.submit(ctx, x)
}

// MultiplyTranspose submits x (length Rows) for coalesced execution and
// returns y ← Aᵀx (length Cols). Transpose submissions batch with each
// other, never into a forward flush. Runs as the default tenant.
func (h *Handle) MultiplyTranspose(ctx context.Context, x []float64) ([]float64, error) {
	return h.e.sched.submitT(ctx, x)
}

// MultiplyFor is Multiply charged to tn's quota and fair-share weight.
func (h *Handle) MultiplyFor(ctx context.Context, tn *Tenant, x []float64) ([]float64, error) {
	return h.e.sched.submitOne(ctx, tn, x, false)
}

// MultiplyTransposeFor is MultiplyTranspose charged to tn.
func (h *Handle) MultiplyTransposeFor(ctx context.Context, tn *Tenant, x []float64) ([]float64, error) {
	return h.e.sched.submitOne(ctx, tn, x, true)
}

// MultiplyBatch submits nrhs vectors as one atomic admission for tn
// (all admitted or all rejected) and returns the corresponding outputs.
// The vectors coalesce through the same homogeneous-direction scheduler
// path as everyone else's, so results remain bit-identical to solo
// multiplies in every mix.
func (h *Handle) MultiplyBatch(ctx context.Context, tn *Tenant, xs [][]float64, transpose bool) ([][]float64, error) {
	return h.e.sched.submitBatch(ctx, tn, xs, nil, transpose)
}

// recycle hands MultiplyBatch outputs the caller has finished reading
// back to the engine's free list, so the next request reuses them
// instead of allocating. The caller must not touch ys afterwards.
func (h *Handle) recycle(ys [][]float64) { h.e.sched.returnOutputs(ys) }

// multiplyInto is MultiplyFor into the caller's own y (overwritten in
// full), so a solver iterating on one work vector pays no allocation or
// copy per multiply. Neither x nor y may be touched until it returns;
// on error the contents of y are unspecified.
func (h *Handle) multiplyInto(ctx context.Context, tn *Tenant, x, y []float64, transpose bool) error {
	_, err := h.e.sched.submitBatch(ctx, tn, [][]float64{x}, [][]float64{y}, transpose)
	return err
}

// Release unpins the engine; the handle must not be used afterwards.
// Releasing twice is a no-op.
func (h *Handle) Release() {
	h.released.Do(func() { h.pool.release(h.e, false) })
}

// Metrics snapshots the engine this handle pins.
func (h *Handle) Metrics() Metrics { return h.e.sched.metrics() }
