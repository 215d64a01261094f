package serve

import (
	"context"
	"strconv"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/spmv"
)

// Stage names used across the span tree and the stage histograms.
// Top-level request stages are contiguous wall-time
// intervals; queue/assemble/flush attribute the scheduler's share, and
// expand/compute/fold attribute the engine flush (sampled from worker 0).
const (
	StageDecode    = "decode"    // body read + JSON/frame parse
	StageAdmission = "admission" // engine acquire (build/breaker/quota)
	StageSchedule  = "schedule"  // multiply: submit → results demuxed
	StageSolve     = "solve"     // solve: all solver iterations
	StageEncode    = "encode"    // response marshal + write (frames stream straight from the result vectors)
	StageQueue     = "queue"     // waiting behind other flushes (engine busy)
	StageAssemble  = "assemble"  // engine free → engine started: runner wake-up + batch take + output take (+ any opt-in MaxWait linger)
	StageFlush     = "flush"     // the engine multiply itself
	StageExpand    = "expand"    // engine phase: x packet sends
	StageCompute   = "compute"   // engine phase: local kernel
	StageFold      = "fold"      // engine phase: partial-y gather
)

// stageBuckets are the latency histogram bounds in seconds: 50µs to
// ~4s, a quarter-decade apart — fine enough near the flush timescale
// to separate queueing from compute, coarse enough to stay cheap.
var stageBuckets = []float64{
	0.00005, 0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005,
	0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2, 4,
}

// instruments are the pool's registry-backed histogram families. The
// scheduler and server observe per-stage latencies here; everything
// else on /metrics derives from the existing snapshot counters at
// scrape time (see prom.go).
type instruments struct {
	engStage *obs.HistogramVec // spmv_engine_stage_seconds{matrix,method,k,stage}
	tenStage *obs.HistogramVec // spmv_tenant_stage_seconds{tenant,stage}
}

func newInstruments(reg *obs.Registry) *instruments {
	return &instruments{
		engStage: reg.Histogram("spmv_engine_stage_seconds",
			"Per-stage request latency by engine.", stageBuckets,
			"matrix", "method", "k", "stage"),
		tenStage: reg.Histogram("spmv_tenant_stage_seconds",
			"Per-stage request latency by tenant.", stageBuckets,
			"tenant", "stage"),
	}
}

// engineStages resolves the scheduler's cached per-engine histogram
// children for the three scheduler-attributed stages.
func (in *instruments) engineStages(key EngineKey) (queue, assemble, flush *obs.Histogram) {
	k := strconv.Itoa(key.K)
	return in.engStage.With(key.Matrix, key.Method, k, StageQueue),
		in.engStage.With(key.Matrix, key.Method, k, StageAssemble),
		in.engStage.With(key.Matrix, key.Method, k, StageFlush)
}

// tenantStages resolves one tenant's cached scheduler-stage children.
func (in *instruments) tenantStages(name string) (queue, assemble, flush *obs.Histogram) {
	return in.tenStage.With(name, StageQueue),
		in.tenStage.With(name, StageAssemble),
		in.tenStage.With(name, StageFlush)
}

// stageSink accumulates scheduler-side stage attribution for one
// request as its submissions flush. Multiply requests see one flush
// (per RHS); a solve's sink aggregates every iteration's multiplies.
// The flush runner is the only writer while the handler blocks on the
// submission, but solves interleave handler reads between iterations,
// so a mutex keeps the pair race-free.
type stageSink struct {
	mu       sync.Mutex
	flushes  int
	widthSum int // sum of batch widths over flushes
	queueNs  int64
	asmNs    int64
	flushNs  int64
	expandNs int64
	compNs   int64
	foldNs   int64
	phases   bool
	kernel   string
}

func (s *stageSink) addFlush(queue, assemble, flush time.Duration, width int, kernel string, ph spmv.PhaseTimings, phOK bool) {
	s.mu.Lock()
	s.flushes++
	s.widthSum += width
	s.queueNs += int64(queue)
	s.asmNs += int64(assemble)
	s.flushNs += int64(flush)
	if phOK {
		s.phases = true
		s.expandNs += int64(ph.Expand)
		s.compNs += int64(ph.Compute)
		s.foldNs += int64(ph.Fold)
	}
	s.kernel = kernel
	s.mu.Unlock()
}

// spans renders the sink as child spans of the schedule/solve stage.
func (s *stageSink) spans() []obs.Span {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.flushes == 0 {
		return nil
	}
	ms := func(ns int64) float64 { return float64(ns) / 1e6 }
	flushSpan := obs.Span{
		Stage: StageFlush, Ms: ms(s.flushNs),
		Attrs: map[string]any{
			"batch_width": float64(s.widthSum) / float64(s.flushes),
			"flushes":     s.flushes,
		},
	}
	if s.kernel != "" {
		flushSpan.Attrs["kernel"] = s.kernel
	}
	if s.phases {
		flushSpan.Spans = []obs.Span{
			{Stage: StageExpand, Ms: ms(s.expandNs)},
			{Stage: StageCompute, Ms: ms(s.compNs)},
			{Stage: StageFold, Ms: ms(s.foldNs)},
		}
	}
	return []obs.Span{
		{Stage: StageQueue, Ms: ms(s.queueNs)},
		{Stage: StageAssemble, Ms: ms(s.asmNs)},
		flushSpan,
	}
}

type sinkKey struct{}

// withStageSink threads a sink through the scheduler path; submitBatch
// attaches it to every request it enqueues.
func withStageSink(ctx context.Context, s *stageSink) context.Context {
	return context.WithValue(ctx, sinkKey{}, s)
}

func sinkFrom(ctx context.Context) *stageSink {
	s, _ := ctx.Value(sinkKey{}).(*stageSink)
	return s
}
