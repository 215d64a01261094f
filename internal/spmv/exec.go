package spmv

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// This file is the phase runner both engines execute on. A multiply is a
// short list of steps (see Engine.step, RoutedEngine.step); every step
// holds one unit of work — a ticket — per virtual processor, and a step
// starts only once every ticket of the step before it is done. That
// barrier is the schedule's only synchronisation: a "packet" is the
// sender's sendPlan buffer, filled in one step and read in place by its
// receiver in the next.
//
// Tickets are executed by E = min(K, GOMAXPROCS at build) executors. The
// calling goroutine is executor 0; the other E−1 are helper goroutines,
// the only goroutines an engine owns, parked between multiplies. The
// runner is work-conserving:
//
//   - Tickets are claimed, never assigned. next and done count tickets
//     over the engine's whole life, so step g owns tickets [gK, (g+1)K):
//     an executor claims by advancing next below its step's limit, and a
//     helper that arrives late — for a step or for a whole multiply —
//     finds next past its limit, claims nothing and touches nothing.
//   - A step is complete when done reaches its limit, never when every
//     executor has checked in: a multiply finishes on the caller alone if
//     no helper is scheduled in time.
//   - Helpers are woken only for a multiply of at least wakeGrain
//     nonzeros × right-hand sides; below it the same steps run inline on
//     the caller. Waking costs a futex round trip and moves the vectors
//     between cores, which a cache-resident multiply never earns back.
//   - An executor that runs out of tickets before its step is complete
//     spins briefly and then parks on its own semaphore, released by
//     whichever executor completes the step. It never yields: a yielded
//     runner queues behind every runnable goroutine of the process, a
//     parked one is made runnable the moment the step completes.
//
// A panic inside one virtual processor's step is recovered around that
// ticket alone, recorded as a WorkerPanic with the processor's id, and
// poisons the engine; the ticket still counts as done, so the barrier
// closes and the multiply returns a typed *EngineFaultError (fault.go).

const (
	// wakeGrain is the least work (plan nonzeros × right-hand sides) for
	// which helpers are woken.
	wakeGrain = 1 << 18
	// awaitSpins bounds the polling an executor does at a step boundary
	// before it parks: a few microseconds, the imbalance of evenly loaded
	// processors.
	awaitSpins = 256
)

// job is one multiply as an executor sees it: the operands, the step
// count, and the first ticket of its first step.
type job struct {
	x, y      []float64
	nrhs      int // 0 = single-vector call, >0 = column-blocked SpMM
	transpose bool
	kid       kernelID
	steps     int
	base      int64
	// sample is set when phase sampling is armed: virtual processor 0's
	// tickets are then timed (timing.go).
	sample bool
}

// stepper is the schedule a runner executes: step s of virtual
// processor vp. Steps of one index run concurrently for distinct vp and
// may write only vp's own buffers and rows of y.
type stepper interface {
	step(s, vp int, j *job)
}

// executor is one claimant of tickets. sema is both a helper's wake-up
// between multiplies and any executor's release from a step boundary:
// every token sent is matched by exactly one receive, so one buffered
// slot serves both.
type executor struct {
	sema chan struct{}
	// waiting holds the ticket limit the executor is parked for, 0
	// otherwise; clearing it by compare-and-swap elects the one party
	// (releaser or the waiter itself) that settles the park.
	waiting atomic.Int64
	// job is the executor's private copy of the multiply it is working on;
	// step and vp are its progress through it, which outlive a contained
	// panic so work resumes where it stopped.
	job      job
	step, vp int

	// A helper's mailbox: the caller posts every multiply above the wake
	// grain here, and a token on sema only if the helper is parked. A
	// helper that comes back late from one multiply therefore moves
	// straight on to the newest one instead of sitting it out.
	mu     sync.Mutex
	mail   job // steps == 0: empty
	parked bool
}

// runner executes a stepper's multiplies on its executors.
type runner struct {
	k     int
	body  stepper
	execs []*executor // execs[0] is the calling goroutine
	// grain is wakeGrain, set once by start. It is a field only as a test
	// seam (engageHelpers lowers it so small plans wake the helpers):
	// nothing outside a _test.go file may write it.
	grain int

	next atomic.Int64 // tickets claimed over the engine's life
	done atomic.Int64 // tickets completed

	quit      chan struct{}
	helpers   sync.WaitGroup
	closeOnce sync.Once
	closed    atomic.Bool

	// hook is the injectable per-processor fault hook (WorkerFaultHooker).
	hook atomic.Pointer[func(worker int)]

	poisoned atomic.Bool
	faultMu  sync.Mutex
	faults   []WorkerPanic
}

// start sizes the runner for k virtual processors and parks its helpers.
func (r *runner) start(k int, body stepper) {
	r.k, r.body, r.grain = k, body, wakeGrain
	r.quit = make(chan struct{})
	r.execs = make([]*executor, max(1, min(k, runtime.GOMAXPROCS(0))))
	for i := range r.execs {
		r.execs[i] = &executor{sema: make(chan struct{}, 1)}
	}
	for _, h := range r.execs[1:] {
		r.helpers.Add(1)
		go r.help(h)
	}
}

// help is a helper's life: take the posted job and run its share of it,
// park when there is none.
func (r *runner) help(h *executor) {
	defer r.helpers.Done()
	for {
		h.mu.Lock()
		h.job, h.mail = h.mail, job{}
		idle := h.job.steps == 0
		h.parked = idle
		h.mu.Unlock()
		if idle {
			select {
			case <-h.sema:
			case <-r.quit:
				return
			}
			continue
		}
		h.step = 0
		r.drive(h)
	}
}

func (r *runner) setHook(h func(worker int)) {
	if h == nil {
		r.hook.Store(nil)
		return
	}
	r.hook.Store(&h)
}

// close stops the helpers and returns once they have exited; multiply
// returns *ClosedError afterwards. Closing twice is a no-op.
func (r *runner) close() {
	r.closeOnce.Do(func() {
		r.closed.Store(true)
		close(r.quit)
		r.helpers.Wait()
	})
}

// multiply runs j (its base is set here) over plan nonzeros nnz and
// returns once every ticket of its last step is done. It returns
// *ClosedError after close and *EngineFaultError once a contained panic
// has poisoned the runner — before running anything, so a poisoned plan
// never executes a step again.
func (r *runner) multiply(j job, nnz int) error {
	op := opName(j.nrhs, j.transpose)
	if r.closed.Load() {
		return &ClosedError{Op: op}
	}
	if err := r.faultErr(op); err != nil {
		return err
	}
	// Every earlier multiply completed all its tickets, so done is the
	// first ticket nobody has claimed.
	j.base = r.done.Load()
	me := r.execs[0]
	me.job, me.step = j, 0
	if nnz*max(j.nrhs, 1) >= r.grain {
		for _, h := range r.execs[1:] {
			h.mu.Lock()
			h.mail = j
			wake := h.parked
			h.parked = false
			h.mu.Unlock()
			if wake {
				h.sema <- struct{}{}
			}
		}
	}
	r.drive(me)
	r.await(me, j.base+int64(j.steps*r.k))
	me.job = job{}
	return r.faultErr(op)
}

// drive runs ex's share of its job to the end, re-entering after every
// contained panic.
func (r *runner) drive(ex *executor) {
	for !r.attempt(ex) {
	}
}

// attempt is work under panic containment; it reports whether work ran
// to completion.
func (r *runner) attempt(ex *executor) (finished bool) {
	defer r.contain(ex)
	r.work(ex)
	return true
}

// contain recovers a panic raised by the ticket ex holds: the fault is
// recorded against that virtual processor, the runner is poisoned, and
// the ticket is counted done so the step still completes.
func (r *runner) contain(ex *executor) {
	v := recover()
	if v == nil {
		return
	}
	r.faultMu.Lock()
	r.faults = append(r.faults, WorkerPanic{Worker: ex.vp, Value: fmt.Sprint(v)})
	r.faultMu.Unlock()
	r.poisoned.Store(true)
	r.finish(ex.job.base + int64(ex.step+1)*int64(r.k))
}

// work claims and executes tickets step by step until ex's job is
// complete. The first step of every virtual processor also clears its
// share of y and fires the fault hook; once the runner is poisoned the
// later steps of the multiply in flight only count their tickets.
//
//spmv:hotpath
func (r *runner) work(ex *executor) {
	j, k := &ex.job, int64(r.k)
	for ; ex.step < j.steps; ex.step++ {
		limit := j.base + int64(ex.step+1)*k
		for {
			t := r.next.Load()
			if t >= limit {
				break
			}
			if !r.next.CompareAndSwap(t, t+1) {
				continue
			}
			ex.vp = int(t - (limit - k))
			if ex.step == 0 {
				n := len(j.y)
				clear(j.y[n*ex.vp/r.k : n*(ex.vp+1)/r.k])
				if h := r.hook.Load(); h != nil {
					(*h)(ex.vp)
				}
			}
			if ex.step == 0 || !r.poisoned.Load() {
				r.body.step(ex.step, ex.vp, j)
			}
			r.finish(limit)
		}
		// Only the caller needs the last step complete (multiply awaits
		// it); a helper out of tickets there is done and goes idle at once,
		// free for the next multiply.
		if ex.step+1 < j.steps {
			r.await(ex, limit)
		}
	}
}

// finish counts one ticket of the step ending at limit done and, on the
// step's last, releases the executors parked for it.
//
//spmv:hotpath
func (r *runner) finish(limit int64) {
	if r.done.Add(1) != limit {
		return
	}
	for _, w := range r.execs {
		if w.waiting.Load() == limit && w.waiting.CompareAndSwap(limit, 0) {
			w.sema <- struct{}{}
		}
	}
}

// await returns once the step ending at limit is complete: a bounded
// spin, then a park on ex's semaphore. Publishing waiting before the
// last check of done means either this executor sees the step complete
// or the completing executor sees it waiting.
//
//spmv:hotpath
func (r *runner) await(ex *executor, limit int64) {
	for i := 0; i < awaitSpins; i++ {
		if r.done.Load() >= limit {
			return
		}
	}
	ex.waiting.Store(limit)
	if r.done.Load() >= limit && ex.waiting.CompareAndSwap(limit, 0) {
		return
	}
	<-ex.sema
}

// faultErr materializes the poisoned state as a typed error; nil while
// healthy. The fast path is one atomic load.
func (r *runner) faultErr(op string) error {
	if !r.poisoned.Load() {
		return nil
	}
	r.faultMu.Lock()
	panics := append([]WorkerPanic(nil), r.faults...)
	r.faultMu.Unlock()
	return &EngineFaultError{Op: op, Panics: panics}
}

// opName names the dispatch variant for error messages.
func opName(nrhs int, transpose bool) string {
	switch {
	case transpose && nrhs > 0:
		return "MultiplyTransposeBlock"
	case transpose:
		return "MultiplyTranspose"
	case nrhs > 0:
		return "MultiplyBlock"
	default:
		return "Multiply"
	}
}
