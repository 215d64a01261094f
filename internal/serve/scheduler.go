package serve

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/spmv"
)

// scheduler coalesces concurrent single-vector multiply submissions into
// SpMM batches on one engine. A single runner goroutine owns the engine
// (Multiply calls must never overlap) and is work-conserving: the moment
// the engine is free it flushes whatever is eligible, up to maxBatch
// requests, so batches form from what queued while the previous flush
// ran and a lone request costs its multiply. A positive maxWait is the
// opt-in linger: a partial batch then ages up to maxWait for companions
// before it flushes.
//
// Admission and ordering are per tenant. Each tenant has its own FIFO
// bounded by its quota — a hot tenant filling its queue sheds its own
// traffic with *OverloadError while everyone else keeps enqueueing — and
// flushes assemble across tenant queues by stride scheduling: each
// tenant carries a virtual "pass" advanced by 1/weight per served
// request, and the assembler repeatedly takes the head of the
// lowest-pass queue. Under contention tenant i therefore receives a
// weight_i / Σweights share of every engine's flush bandwidth,
// independent of how hard anyone else is offering.
//
// Demultiplexed results are bit-identical to solo Multiply calls: the
// block kernels accumulate every column in the scalar kernels' exact
// nonzero order, and fold order is fixed by sender rank either way.
type scheduler struct {
	eng        spmv.Multiplier
	rows, cols int
	opt        Options
	key        EngineKey

	mu     sync.Mutex
	tq     map[*Tenant]*tenantQueue
	nq     int       // total queued requests across tenants
	oldest time.Time // earliest enqueue time among queued requests
	vtime  float64   // stride scheduler's global virtual time
	closed bool

	wake chan struct{} // capacity 1; runner wake-up
	wg   sync.WaitGroup

	// Engine-fault state: once a flush faults, faulted flips and every
	// later submission fails fast with faultCause instead of queueing
	// against a poisoned engine. onFault (the pool's quarantine) fires
	// exactly once.
	faulted    atomic.Bool
	faultCause atomic.Value // of error
	faultOnce  sync.Once
	onFault    func(cause error)

	m collector

	// Stage attribution state, owned by the runner goroutine. availT is
	// when the engine last became free (end of the previous flush): a
	// request waits in "queue" while the engine serves earlier flushes
	// (availT − enq) and in "assemble" from max(enq, availT) until the
	// engine starts — batch take plus any opt-in MaxWait linger. The
	// three stages sum exactly to the request's measured latency.
	availT  time.Time
	kernel  string            // engine's kernel selection, for flush spans
	sampler spmv.PhaseSampler // non-nil when the engine exposes phase timings
	// Cached per-engine stage histogram children (nil without instruments).
	hQueue, hAssemble, hFlush *obs.Histogram
	inst                      *instruments

	// Flush scratch, owned by the runner goroutine and resliced per flush:
	// the assembled batch, its latency samples, and the vector headers
	// handed to the engine's multi-RHS entry points.
	batch []*request
	latMs []float64
	xs    [][]float64
	ys    [][]float64

	// free is the bounded list of recycled output vectors (takeOutput,
	// returnOutputs), under its own lock: handlers return while flushes run.
	outMu sync.Mutex
	free  [][]float64
}

// tenantQueue is one tenant's FIFO on one engine plus its stride state
// and the tenant's cached stage-histogram children.
type tenantQueue struct {
	tn   *Tenant
	reqs []*request
	pass float64 // virtual time; lowest pass is served next

	hQueue, hAssemble, hFlush *obs.Histogram
}

// request is one queued multiply. The caller owns x, and y when it
// brought one (and must not touch either until its submission returns);
// a nil y is supplied by the flush that serves the request, which
// overwrites y in full either way. A submission never returns while a
// flush holds the request, so the engine is never reading x or writing y
// after the caller regains control of them. transpose marks a y ← Aᵀx
// submission; a flush only ever coalesces requests of one direction.
type request struct {
	x         []float64
	y         []float64
	tn        *Tenant
	transpose bool
	err       error
	done      chan struct{}
	enq       time.Time
	sink      *stageSink // optional per-request trace sink
	tq        *tenantQueue
}

func newScheduler(eng spmv.Multiplier, rows, cols int, opt Options, key EngineKey, kernel string, inst *instruments, onFault func(cause error)) *scheduler {
	s := &scheduler{
		eng:     eng,
		rows:    rows,
		cols:    cols,
		opt:     opt,
		key:     key,
		kernel:  kernel,
		inst:    inst,
		onFault: onFault,
		tq:      make(map[*Tenant]*tenantQueue),
		wake:    make(chan struct{}, 1),
		availT:  time.Now(),
		batch:   make([]*request, 0, opt.MaxBatch),
		latMs:   make([]float64, 0, opt.MaxBatch),
		xs:      make([][]float64, opt.MaxBatch),
		ys:      make([][]float64, opt.MaxBatch),
	}
	if inst != nil {
		s.hQueue, s.hAssemble, s.hFlush = inst.engineStages(key)
	}
	// Arm phase sampling before the runner can flush: LastPhases is read
	// by the runner after every multiply (the dispatch barrier orders the
	// worker's writes before that read).
	if ps, ok := eng.(spmv.PhaseSampler); ok {
		ps.SamplePhases(true)
		s.sampler = ps
	}
	s.wg.Add(1)
	go s.run()
	return s
}

// defaultTenant is the tenant internal submissions run as.
func (s *scheduler) defaultTenant() *Tenant { return s.opt.Tenants.Default() }

// submit queues x for the next batch as the default tenant and blocks
// until the result is demultiplexed back or ctx is cancelled.
func (s *scheduler) submit(ctx context.Context, x []float64) ([]float64, error) {
	return s.submitOne(ctx, s.defaultTenant(), x, false)
}

// submitT is submit for the transpose product y ← Aᵀx (x length rows,
// y length cols). Transpose submissions coalesce with each other but
// never into a forward batch.
func (s *scheduler) submitT(ctx context.Context, x []float64) ([]float64, error) {
	return s.submitOne(ctx, s.defaultTenant(), x, true)
}

// submitOne is submitBatch for a single vector into a scheduler-supplied
// output.
func (s *scheduler) submitOne(ctx context.Context, tn *Tenant, x []float64, transpose bool) ([]float64, error) {
	ys, err := s.submitBatch(ctx, tn, [][]float64{x}, nil, transpose)
	if err != nil {
		return nil, err
	}
	return ys[0], nil
}

// outLen is the length of one output vector: rows forward, cols for the
// transpose product.
func (s *scheduler) outLen(transpose bool) int {
	if transpose {
		return s.cols
	}
	return s.rows
}

// submitBatch queues xs (one request per vector, all one direction) for
// tenant tn, blocks until every result is back or ctx cancels, and
// returns the outputs. With ys non-nil the caller owns the outputs:
// ys[i] ← A·xs[i], overwritten in full (the engines' output contract),
// so a solver iterating on one y pays no allocation per multiply. With
// ys nil the scheduler supplies them — but only inside the flush that
// serves each request, so a call refused by validation or admission
// control, or cancelled while queued, costs no output memory — from the
// free list where it can; a caller done with them at once hands them
// back through returnOutputs. The vectors enqueue atomically — admission
// control accepts or rejects the whole call against the tenant's quota,
// so a multi-RHS request never half-lands — but they flush
// independently, coalescing with whatever else is queued. On error the
// first error (by submission order) is returned and the contents of a
// caller's ys are unspecified. Either way no flush holds any xs[i] or
// ys[i] once submitBatch returns.
func (s *scheduler) submitBatch(ctx context.Context, tn *Tenant, xs, ys [][]float64, transpose bool) ([][]float64, error) {
	if tn == nil {
		tn = s.defaultTenant()
	}
	want := s.outLen(!transpose)
	for _, x := range xs {
		if len(x) != want {
			return nil, &DimensionError{Got: len(x), Want: want, What: "x"}
		}
	}
	owned := ys != nil
	if owned {
		if len(ys) != len(xs) {
			return nil, &DimensionError{Got: len(ys), Want: len(xs), What: "ys"}
		}
		out := s.outLen(transpose)
		for _, y := range ys {
			if len(y) != out {
				return nil, &DimensionError{Got: len(y), Want: out, What: "y"}
			}
		}
	}
	if len(xs) == 0 {
		return ys, nil
	}
	// A request arriving already expired (server-side deadline, client
	// cancel) never enqueues: rejecting here keeps a dead request from
	// widening a batch or occupying queue depth.
	if err := ctx.Err(); err != nil {
		s.m.cancel()
		return nil, err
	}
	// A faulted engine fails fast — the queue drains through poisoned
	// flushes during quarantine, so joining it buys nothing but latency.
	if s.faulted.Load() {
		return nil, s.faultError()
	}
	now := time.Now()
	sink := sinkFrom(ctx)
	reqs := make([]*request, len(xs))
	for i, x := range xs {
		reqs[i] = &request{x: x, tn: tn, transpose: transpose, done: make(chan struct{}), enq: now, sink: sink}
		if owned {
			reqs[i].y = ys[i]
		}
	}

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, ErrClosed
	}
	q := s.queueForLocked(tn)
	limit := tn.MaxQueue
	if limit <= 0 {
		limit = s.opt.MaxQueue
	}
	if len(q.reqs)+len(reqs) > limit {
		depth := len(q.reqs)
		s.mu.Unlock()
		tn.rejections.Add(uint64(len(reqs)))
		s.m.overload()
		return nil, &OverloadError{Tenant: tn.Name, Depth: depth, Limit: limit}
	}
	if s.nq == 0 {
		s.oldest = now
	}
	for _, r := range reqs {
		r.tq = q
	}
	q.reqs = append(q.reqs, reqs...)
	s.nq += len(reqs)
	n := s.nq
	s.mu.Unlock()

	// Wake the runner when the queue goes non-empty (it may be parked
	// with nothing to wait for) and when a full batch may be ready (it
	// may be sitting out the remainder of a maxWait window).
	if n == len(reqs) || n >= s.opt.MaxBatch {
		s.wakeRunner()
	}

	if !owned {
		ys = make([][]float64, len(reqs))
	}
	var firstErr error
	for i, req := range reqs {
		select {
		case <-req.done:
		case <-ctx.Done():
			// Still queued → remove it ourselves: it never widens a batch
			// and the caller gets its x and y slices back immediately.
			// Already claimed by a flush → the engine is reading x and
			// writing y right now, so wait the flush out (one multiply,
			// bounded) and take its result; returning early would hand
			// the caller slices the engine workers are still using.
			if s.dequeue(req) {
				s.m.cancel()
				req.err = ctx.Err()
			} else {
				<-req.done
			}
		}
		ys[i] = req.y
		if req.err != nil && firstErr == nil {
			firstErr = req.err
		}
	}
	if firstErr != nil {
		if !owned {
			s.returnOutputs(ys) // whatever the flushes that did run supplied
		}
		return nil, firstErr
	}
	return ys, nil
}

// maxFreeOutputs bounds the output free list: enough for one
// default-width flush, few enough that an idle engine pins at most 8
// vectors.
const maxFreeOutputs = 8

// takeOutput supplies the output vector for one request that brought
// none, recycled from the free list when its top fits. Only a flush
// calls it, so output memory is spent on admitted work alone. Buffers
// come back dirty; the flush overwrites them in full.
func (s *scheduler) takeOutput(size int) []float64 {
	var y []float64
	s.outMu.Lock()
	if n := len(s.free); n > 0 {
		y, s.free[n-1] = s.free[n-1], nil
		s.free = s.free[:n-1]
	}
	s.outMu.Unlock()
	// On a rectangular matrix the other direction's buffers are the wrong
	// length; they fall to the collector rather than clog the list.
	if len(y) != size {
		y = make([]float64, size)
	}
	return y
}

// returnOutputs hands back scheduler-supplied outputs nothing reads any
// more — what lets a request path that is done with its results the
// moment the response is written (the HTTP handler) reuse a handful of
// buffers instead of allocating and zeroing rows×8 bytes per vector.
// Beyond the bound they are left to the collector.
func (s *scheduler) returnOutputs(ys [][]float64) {
	s.outMu.Lock()
	for _, y := range ys {
		if y != nil && len(s.free) < maxFreeOutputs {
			s.free = append(s.free, y)
		}
	}
	s.outMu.Unlock()
}

// queueForLocked finds or creates tn's queue. A queue (re)activating
// picks up the global virtual time so an idle tenant cannot bank an
// arbitrarily low pass and then monopolize the next flushes.
func (s *scheduler) queueForLocked(tn *Tenant) *tenantQueue {
	q := s.tq[tn]
	if q == nil {
		q = &tenantQueue{tn: tn, pass: s.vtime}
		if s.inst != nil {
			q.hQueue, q.hAssemble, q.hFlush = s.inst.tenantStages(tn.Name)
		}
		s.tq[tn] = q
	} else if len(q.reqs) == 0 && q.pass < s.vtime {
		q.pass = s.vtime
	}
	return q
}

// dequeue removes a still-queued request, reporting false when a flush
// has already claimed it.
func (s *scheduler) dequeue(req *request) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	q := s.tq[req.tn]
	if q == nil {
		return false
	}
	for i, r := range q.reqs {
		if r == req {
			q.reqs = append(q.reqs[:i], q.reqs[i+1:]...)
			s.nq--
			s.recomputeOldestLocked()
			return true
		}
	}
	return false
}

// recomputeOldestLocked resets oldest to the earliest queued request
// (queues are FIFO, so only heads matter).
func (s *scheduler) recomputeOldestLocked() {
	var oldest time.Time
	for _, q := range s.tq { //spmvlint:unordered running min over enqueue times
		if len(q.reqs) == 0 {
			continue
		}
		if oldest.IsZero() || q.reqs[0].enq.Before(oldest) {
			oldest = q.reqs[0].enq
		}
	}
	s.oldest = oldest
}

func (s *scheduler) wakeRunner() {
	select {
	case s.wake <- struct{}{}:
	default:
	}
}

// run is the engine-owning loop: park while the queues are empty, flush
// what is eligible otherwise. Only under an opt-in MaxWait does a
// partial batch age first.
func (s *scheduler) run() {
	defer s.wg.Done()
	timer := time.NewTimer(time.Hour)
	if !timer.Stop() {
		<-timer.C
	}
	for {
		s.mu.Lock()
		n := s.nq
		closed := s.closed
		wait := time.Duration(0)
		// The flushable batch is what the fair assembler could take right
		// now (homogeneous in direction), not the raw queue total: a full
		// queue of mixed directions must not zero the wait, or a lone
		// head request would flush sub-width with no window.
		if n > 0 && !closed && s.opt.MaxWait > 0 && s.eligibleWidthLocked() < s.opt.MaxBatch {
			wait = s.opt.MaxWait - time.Since(s.oldest)
		}
		var batch []*request
		if n > 0 && wait <= 0 {
			batch = s.takeBatchLocked()
		}
		s.mu.Unlock()

		switch {
		case batch != nil:
			s.flush(batch)
		case n == 0 && closed:
			return
		case n == 0:
			<-s.wake
		default: // partial batch aging: wake early on a full batch or close
			timer.Reset(wait)
			select {
			case <-s.wake:
				if !timer.Stop() {
					<-timer.C
				}
			case <-timer.C:
			}
		}
	}
}

// minPassLocked returns the non-empty tenant queue with the lowest
// pass, optionally restricted to queues whose head matches direction d.
// Ties break on tenant name so behavior is stable under the map's
// iteration order.
func (s *scheduler) minPassLocked(d *bool) *tenantQueue {
	var best *tenantQueue
	for _, q := range s.tq { //spmvlint:unordered selection with a total tie-break (pass, then tenant name)
		if len(q.reqs) == 0 {
			continue
		}
		if d != nil && q.reqs[0].transpose != *d {
			continue
		}
		if best == nil || q.pass < best.pass ||
			(q.pass == best.pass && q.tn.Name < best.tn.Name) {
			best = q
		}
	}
	return best
}

// eligibleWidthLocked reports how many requests the fair assembler
// could flush right now: the direction is set by the request it would
// serve first, and each tenant contributes its queue's prefix run of
// that direction. Capped at MaxBatch — the width the next flush would
// coalesce.
func (s *scheduler) eligibleWidthLocked() int {
	first := s.minPassLocked(nil)
	if first == nil {
		return 0
	}
	d := first.reqs[0].transpose
	width := 0
	for _, q := range s.tq { //spmvlint:unordered commutative count, capped at MaxBatch
		for _, r := range q.reqs {
			if r.transpose != d {
				break
			}
			width++
			if width >= s.opt.MaxBatch {
				return width
			}
		}
	}
	return width
}

// popLocked removes q's head, advances the stride clock, and returns
// the request.
func (s *scheduler) popLocked(q *tenantQueue) *request {
	req := q.reqs[0]
	q.reqs[0] = nil
	q.reqs = q.reqs[1:]
	s.nq--
	s.vtime = q.pass
	q.pass += q.tn.stride()
	return req
}

// takeBatchLocked assembles up to MaxBatch requests by stride
// scheduling: pop the head of the lowest-pass queue, then keep popping
// from the lowest-pass queue whose head matches the first request's
// direction. A batch is homogeneous in direction, so forward and
// transpose traffic each flush as their own SpMM; under contention each
// tenant's share of the batch converges to its weight share. The
// returned slice is the runner's scratch, valid until the next take.
func (s *scheduler) takeBatchLocked() []*request {
	first := s.minPassLocked(nil)
	if first == nil {
		return nil
	}
	batch := append(s.batch[:0], s.popLocked(first))
	d := batch[0].transpose
	for len(batch) < s.opt.MaxBatch {
		q := s.minPassLocked(&d)
		if q == nil {
			break
		}
		batch = append(batch, s.popLocked(q))
	}
	s.recomputeOldestLocked()
	return batch
}

// flush runs one coalesced multiply and demultiplexes the results.
// (Requests cancelled while queued were dequeued by their submitters,
// so everything in the batch is live.) A fault fails the whole batch
// with a typed *EngineFaultError and triggers the pool's quarantine —
// once, however many flushes race the poisoned engine afterwards.
func (s *scheduler) flush(batch []*request) {
	var ft flushTiming
	err, fault := s.multiply(batch, &ft)
	if fault {
		err = s.recordFault(err)
	}
	end := time.Now()
	avail := s.availT // engine was free since the previous flush ended
	s.availT = end

	var ph spmv.PhaseTimings
	var phOK bool
	if s.sampler != nil && err == nil {
		ph, phOK = s.sampler.LastPhases()
	}
	engOK := err == nil && !ft.engStart.IsZero()

	latMs := s.latMs[:0]
	for _, r := range batch {
		r.err = err
		latMs = append(latMs, msSince(r.enq))
		if err == nil {
			r.tn.requests.Add(1)
		}
	}
	// The batch is in the metrics before anybody is released: a caller
	// that holds its answer finds itself counted.
	switch {
	case fault:
		s.m.fault(len(batch))
	case err != nil:
		s.m.fail(len(batch))
	default:
		s.m.recordBatch(len(batch), latMs)
	}
	for _, r := range batch {
		if engOK {
			// queue: the engine was busy with earlier flushes; assemble:
			// batch take and output prep (plus any MaxWait linger); flush:
			// the engine multiply. The three sum to engEnd − enq exactly.
			queue := avail.Sub(r.enq)
			if queue < 0 {
				queue = 0
			}
			asmStart := r.enq
			if avail.After(asmStart) {
				asmStart = avail
			}
			assemble := ft.engStart.Sub(asmStart)
			if assemble < 0 {
				assemble = 0
			}
			flushD := ft.engEnd.Sub(ft.engStart)
			s.observeStages(r, queue, assemble, flushD)
			if r.sink != nil {
				r.sink.addFlush(queue, assemble, flushD, len(batch), s.kernel, ph, phOK)
			}
		}
		close(r.done)
	}
	// The submitters own their vectors again: drop the scratch's
	// references so an idle engine pins nobody's buffers.
	clear(batch)
	clear(s.xs)
	clear(s.ys)
}

// recordFault converts an engine fault into the typed error every caught
// request sees, latches the fast-fail state, and fires the pool's
// quarantine exactly once.
func (s *scheduler) recordFault(cause error) error {
	err := &EngineFaultError{Key: s.key, Cause: cause}
	s.faultCause.CompareAndSwap(nil, error(err))
	s.faulted.Store(true)
	s.faultOnce.Do(func() {
		if s.onFault != nil {
			s.onFault(cause)
		}
	})
	return err
}

// faultError returns the latched fault for fast-fail submissions.
func (s *scheduler) faultError() error {
	if err, ok := s.faultCause.Load().(error); ok {
		return err
	}
	return &EngineFaultError{Key: s.key, Cause: ErrEngineFault}
}

// observeStages records one request's scheduler-stage durations into
// the per-engine and per-tenant histograms.
func (s *scheduler) observeStages(r *request, queue, assemble, flush time.Duration) {
	if s.hQueue != nil {
		s.hQueue.Observe(queue.Seconds())
		s.hAssemble.Observe(assemble.Seconds())
		s.hFlush.Observe(flush.Seconds())
	}
	if q := r.tq; q != nil && q.hQueue != nil {
		q.hQueue.Observe(queue.Seconds())
		q.hAssemble.Observe(assemble.Seconds())
		q.hFlush.Observe(flush.Seconds())
	}
}

// flushTiming brackets the engine call inside one flush; engStart stays
// zero when the flush dies before reaching the engine.
type flushTiming struct {
	engStart, engEnd time.Time
}

// multiply executes the batch on the engine. fault reports conditions
// that poison the engine and demand quarantine: a panic anywhere in the
// flush path (contained worker panics surface as *spmv.EngineFaultError,
// scheduler-level ones via recover) or corrupted output payloads. A
// plain error (e.g. racing a Close) fails the batch without quarantine.
func (s *scheduler) multiply(batch []*request, ft *flushTiming) (err error, fault bool) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("serve: flush panic: %v", r)
			fault = true
		}
	}()
	inj := s.opt.Injector
	if inj.Fire("flush.panic") {
		panic("faultinject: flush.panic") //spmvlint:allowpanic fault injection; contained by runContained
	}
	if inj.Fire("flush.slow") {
		time.Sleep(s.opt.FlushDelay)
	}
	transpose := batch[0].transpose
	for _, r := range batch {
		if r.y == nil {
			r.y = s.takeOutput(s.outLen(transpose))
		}
	}
	if len(batch) == 1 {
		ft.engStart = time.Now()
		if transpose {
			err = s.eng.MultiplyTranspose(batch[0].x, batch[0].y)
		} else {
			err = s.eng.Multiply(batch[0].x, batch[0].y)
		}
		ft.engEnd = time.Now()
	} else {
		X, Y := s.xs[:len(batch)], s.ys[:len(batch)]
		for i, r := range batch {
			X[i] = r.x
			Y[i] = r.y
		}
		ft.engStart = time.Now()
		if transpose {
			err = s.eng.MultiplyTransposeMulti(X, Y)
		} else {
			err = s.eng.MultiplyMulti(X, Y)
		}
		ft.engEnd = time.Now()
	}
	if err != nil {
		var fe *spmv.EngineFaultError
		return err, errors.As(err, &fe)
	}
	if inj.Fire("flush.nan") {
		batch[0].y[0] = math.NaN()
	}
	if s.opt.PayloadChecks {
		for _, r := range batch {
			for _, v := range r.y {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					return fmt.Errorf("serve: corrupted payload (NaN/Inf) in flush output"), true
				}
			}
		}
	}
	return nil, false
}

// metrics snapshots the collector with the live queue depth.
func (s *scheduler) metrics() Metrics {
	s.mu.Lock()
	depth := s.nq
	s.mu.Unlock()
	return s.m.snapshot(depth)
}

// tenantDepths reports the live queue occupancy per tenant; the pool
// sums these across engines for /metrics.
func (s *scheduler) tenantDepths(into map[*Tenant]int) {
	s.mu.Lock()
	for tn, q := range s.tq {
		if len(q.reqs) > 0 {
			into[tn] += len(q.reqs)
		}
	}
	s.mu.Unlock()
}

// close drains the queues (pending requests still complete), stops the
// runner, and closes the engine. Safe to call twice.
func (s *scheduler) close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.wg.Wait()
		return
	}
	s.closed = true
	s.mu.Unlock()
	s.wakeRunner()
	s.wg.Wait()
	s.eng.Close()
	s.outMu.Lock()
	s.free = nil
	s.outMu.Unlock()
}
