package spmv

import (
	"sync/atomic"
	"time"
)

// PhaseTimings is one multiply's expand/compute/fold breakdown as seen
// by processor 0 — a sample of where the barrier's wall time went, in the
// paper's phase vocabulary. Only virtual processor 0's tickets are timed,
// whichever executor runs them, on one stopwatch that starts with the
// multiply: what processor 0 waits for its peers at a barrier (on a
// multiply below the wake grain, the time the caller spends running them)
// is charged to the phase the barrier opens, as a blocked receive was.
// Fused schedules report the packet fills as Expand, the wait and the
// sender-ordered bank as Fold, and the local kernel as Compute; two-phase
// schedules report phase 0 (x fill, wait and bank) as Expand, the kernel
// as Compute, and phase 1 (partial-y fill, wait and fold) as Fold. The
// three add up to processor 0's span of the multiply, not to the whole
// multiply: its peers' kernels after its own are not in them.
type PhaseTimings struct {
	Expand  time.Duration
	Compute time.Duration
	Fold    time.Duration
}

// PhaseSampler is the optional interface engines implement to expose
// per-phase timings. The serving scheduler type-asserts it; engines
// without it (e.g. the routed variant) simply omit phase spans.
//
// The contract mirrors the dispatch barrier: LastPhases returns the
// timings of the most recent completed multiply and must only be called
// by the dispatching goroutine (which already serializes multiplies).
type PhaseSampler interface {
	SamplePhases(on bool)
	LastPhases() (PhaseTimings, bool)
}

// phaseTimer holds the engine's sampled phase durations. armed is
// atomic because SamplePhases may be called from another goroutine than
// the dispatcher; the other fields are plain. The dispatcher resets them
// before it publishes the multiply, the executors that run processor 0's
// tickets write them one step after the other, and the dispatcher reads
// them after the multiply: the runner's ticket counters order all three.
type phaseTimer struct {
	armed     atomic.Bool
	sampled   bool // a multiply has completed since arming
	t         time.Time
	expandNs  int64
	computeNs int64
	foldNs    int64
}

// SamplePhases arms (or disarms) phase sampling. Disarmed engines skip
// the time.Now call per phase of processor 0 and LastPhases reports
// ok=false.
func (e *Engine) SamplePhases(on bool) {
	e.pt.armed.Store(on)
	if !on {
		e.pt.sampled = false
	}
}

// LastPhases reports the phase breakdown of the most recent multiply.
// Call only from the goroutine that dispatches multiplies.
func (e *Engine) LastPhases() (PhaseTimings, bool) {
	if !e.pt.armed.Load() || !e.pt.sampled {
		return PhaseTimings{}, false
	}
	return PhaseTimings{
		Expand:  time.Duration(e.pt.expandNs),
		Compute: time.Duration(e.pt.computeNs),
		Fold:    time.Duration(e.pt.foldNs),
	}, true
}

// begin starts the stopwatch for one multiply and reports whether
// sampling is armed; disarmed engines pay this one atomic load.
func (pt *phaseTimer) begin() bool {
	if !pt.armed.Load() {
		return false
	}
	pt.sampled = true
	pt.expandNs, pt.computeNs, pt.foldNs = 0, 0, 0
	pt.t = time.Now()
	return true
}

// lap, called by virtual processor vp, adds the time since the previous
// lap to dst and restarts; every processor but 0 returns at once.
func (pt *phaseTimer) lap(j *job, vp int, dst *int64) {
	if !j.sample || vp != 0 {
		return
	}
	now := time.Now()
	*dst += int64(now.Sub(pt.t))
	pt.t = now
}
