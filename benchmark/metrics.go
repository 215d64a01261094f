package main

import (
	"fmt"
	"os"
	"sync"
)

// metricDef names one metric the benchmark emits. BENCHMARK.json carries
// the same names, units, directions and bounds (smoke_test.go keeps the
// two in step); Moves, which BENCHMARK.json's schema has no room for,
// says which end-to-end metric a layer metric should move, and where.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: share of the parent's median it may worsen by
	Moves  string  // per-layer only
}

// endToEnd lists what a user of the system sees, on every workload.
// failed_share is not among them because it is 0 on a healthy run and a
// bounded metric must never be 0: every run reports it instead as the
// result line's failed ÷ attempted, and any failure makes correct false.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.15},
	{Name: "heap_mb", Unit: "MB", Better: "lower", Bound: 0.10},
	{Name: "spmv_us", Unit: "us", Better: "lower", Bound: 0.15},
	{Name: "spmv_t_us", Unit: "us", Better: "lower", Bound: 0.15},
	{Name: "spmm8_us_per_rhs", Unit: "us", Better: "lower", Bound: 0.15},
	{Name: "speedup_vs_serial", Unit: "ratio", Better: "higher", Bound: 0.15},
	{Name: "solve_s", Unit: "s", Better: "lower", Bound: 0.15},
	{Name: "req_json_ms_p50", Unit: "ms", Better: "lower", Bound: 0.10},
	{Name: "req_bin_ms_p50", Unit: "ms", Better: "lower", Bound: 0.10},
	{Name: "req_bin_ms_p95", Unit: "ms", Better: "lower", Bound: 0.15},
	{Name: "req_per_s", Unit: "1/s", Better: "higher", Bound: 0.15},
}

// perLayer lists the ledger: each layer's public functions timed from
// outside, in the traced pass only. They carry no bound.
var perLayer = []metricDef{
	{Name: "gen.generate_s", Unit: "s", Better: "lower", Moves: "none: input cost, reported so it never hides in setup_s"},
	{Name: "gen.rows", Unit: "count", Better: "higher", Moves: "none: input size"},
	{Name: "gen.nnz", Unit: "count", Better: "higher", Moves: "none: input size"},

	{Name: "sparse.mulvec_us", Unit: "us", Better: "lower", Moves: "denominator of speedup_vs_serial, all workloads"},
	{Name: "sparse.mulvec_ns_per_nnz", Unit: "ns", Better: "lower", Moves: "as sparse.mulvec_us"},
	{Name: "sparse.mulvec_gbps_computed", Unit: "GB/s", Better: "higher", Moves: "as sparse.mulvec_us; bytes computed from array sizes"},

	{Name: "ref.rowpar_us", Unit: "us", Better: "lower", Moves: "the floor spmv_us should beat on pl160k-s2d-k2 and lap160k-2d-k4"},
	{Name: "ref.rowpar_speedup", Unit: "ratio", Better: "higher", Moves: "what speedup_vs_serial should exceed on the 160k workloads"},

	{Name: "hypergraph.model_s", Unit: "s", Better: "lower", Moves: "setup_s on the 160k workloads"},

	{Name: "partition.partition_s", Unit: "s", Better: "lower", Moves: "setup_s, mostly pl160k-s2db-k16"},
	{Name: "partition.cut_conn1", Unit: "count", Better: "lower", Moves: "distrib.volume_words"},
	{Name: "partition.imbalance", Unit: "ratio", Better: "lower", Moves: "distrib.load_imbalance"},

	{Name: "method.build_s", Unit: "s", Better: "lower", Moves: "setup_s"},
	{Name: "method.build_rest_s", Unit: "s", Better: "lower", Moves: "setup_s: build minus model minus partition, i.e. core/baselines construction"},

	{Name: "distrib.volume_words", Unit: "count", Better: "lower", Moves: "spmv_us and spmv_t_us on pl160k-s2db-k16 and pl1k-s2d-k4; expected not to matter on lap160k-2d-k4"},
	{Name: "distrib.msgs_total", Unit: "count", Better: "lower", Moves: "as distrib.volume_words"},
	{Name: "distrib.msgs_max_per_proc", Unit: "count", Better: "lower", Moves: "as distrib.volume_words"},
	{Name: "distrib.load_imbalance", Unit: "ratio", Better: "lower", Moves: "spmv_us where compute dominates: pl160k-s2d-k2, lap160k-2d-k4"},

	{Name: "model.predicted_speedup", Unit: "ratio", Better: "higher", Moves: "cross-check of speedup_vs_serial; the residual is the point"},

	{Name: "spmv.compile_s", Unit: "s", Better: "lower", Moves: "setup_s"},
	{Name: "spmv.autotune_s", Unit: "s", Better: "lower", Moves: "setup_s"},
	{Name: "spmv.transpose_compile_ms", Unit: "ms", Better: "lower", Moves: "setup_s"},
	{Name: "spmv.mult_us_p95", Unit: "us", Better: "lower", Moves: "req_bin_ms_p95 on pl1k-s2d-k4"},
	{Name: "spmv.ns_per_nnz", Unit: "ns", Better: "lower", Moves: "spmv_us"},
	{Name: "spmv.gbps_computed", Unit: "GB/s", Better: "higher", Moves: "spmv_us; bytes computed from array sizes"},
	{Name: "spmv.phase_expand_us", Unit: "us", Better: "lower", Moves: "spmv_us on pl1k-s2d-k4; 0 on the routed engine, which has no phase sampler"},
	{Name: "spmv.phase_compute_us", Unit: "us", Better: "lower", Moves: "spmv_us, spmm8_us_per_rhs and solve_s on pl160k-s2d-k2 and lap160k-2d-k4; 0 on the routed engine"},
	{Name: "spmv.phase_fold_us", Unit: "us", Better: "lower", Moves: "spmv_us on pl1k-s2d-k4; 0 on the routed engine"},
	{Name: "spmv.noncompute_share", Unit: "ratio", Better: "lower", Moves: "spmv_us on pl1k-s2d-k4, and through it req_* there only; 0 on the routed engine"},
	{Name: "spmv.allocs_per_op", Unit: "count", Better: "lower", Moves: "must be 0"},
	{Name: "spmv.packets_per_multiply", Unit: "count", Better: "lower", Moves: "spmv_us on pl160k-s2db-k16 and pl1k-s2d-k4"},
	{Name: "spmv.kernel_nonscalar_classes", Unit: "count", Better: "higher", Moves: "explains a bimodal spmv_us or spmm8_us_per_rhs: the autotuner's verdict"},

	{Name: "solver.iterations", Unit: "count", Better: "lower", Moves: "solve_s; exact for a seed"},
	{Name: "solver.mul_s", Unit: "s", Better: "lower", Moves: "solve_s"},
	{Name: "solver.vecops_s", Unit: "s", Better: "lower", Moves: "solve_s on lap160k-2d-k4; about a tenth elsewhere"},
	{Name: "solver.residual", Unit: "ratio", Better: "lower", Moves: "none: the accuracy solve_s is stated at"},

	{Name: "wire.encode_us", Unit: "us", Better: "lower", Moves: "req_bin_* on the 160k workloads (1.28 MB frames); nothing on pl1k-s2d-k4"},
	{Name: "wire.decode_us", Unit: "us", Better: "lower", Moves: "as wire.encode_us"},
	{Name: "wire.frame_bytes", Unit: "count", Better: "lower", Moves: "serve.transport_bin_us"},
	{Name: "wire.json_bytes", Unit: "count", Better: "lower", Moves: "serve.transport_json_us"},

	{Name: "serve.acquire_cold_s", Unit: "s", Better: "lower", Moves: "first request after a matrix is loaded; not in setup_s"},
	{Name: "serve.acquire_warm_us", Unit: "us", Better: "lower", Moves: "req_* on pl1k-s2d-k4"},
	{Name: "serve.sched_us", Unit: "us", Better: "lower", Moves: "req_*_p50 on pl1k-s2d-k4"},
	{Name: "serve.sched_overhead_us", Unit: "us", Better: "lower", Moves: "req_*_p50 on pl1k-s2d-k4 (MaxWait ageing); invisible on the 160k workloads"},
	{Name: "serve.handler_json_us", Unit: "us", Better: "lower", Moves: "req_json_ms_p50"},
	{Name: "serve.handler_bin_us", Unit: "us", Better: "lower", Moves: "req_bin_ms_p50"},
	{Name: "serve.handler_json_overhead_us", Unit: "us", Better: "lower", Moves: "req_json_ms_p50 on the 160k workloads; must not move req_bin_*"},
	{Name: "serve.handler_bin_overhead_us", Unit: "us", Better: "lower", Moves: "req_bin_ms_p50"},
	{Name: "serve.transport_json_us", Unit: "us", Better: "lower", Moves: "req_json_ms_p50"},
	{Name: "serve.transport_bin_us", Unit: "us", Better: "lower", Moves: "req_bin_ms_p50"},
	{Name: "serve.overhead_ratio_json", Unit: "ratio", Better: "lower", Moves: "req_json_ms_p50: non-engine time over engine time at one client"},
	{Name: "serve.overhead_ratio_bin", Unit: "ratio", Better: "lower", Moves: "req_bin_ms_p50: non-engine time over engine time at one client"},
	{Name: "serve.req_bin8_ms_p50", Unit: "ms", Better: "lower", Moves: "names the nrhs=1-slower-than-nrhs=8 anomaly beside req_bin_ms_p50"},
	{Name: "serve.mean_batch_width", Unit: "ratio", Better: "higher", Moves: "req_per_s"},
	{Name: "serve.sheds", Unit: "count", Better: "lower", Moves: "failed; must be 0 at these client counts"},
	{Name: "serve.retries", Unit: "count", Better: "lower", Moves: "failed; must be 0 at these client counts"},

	{Name: "bench.trace_overhead_share", Unit: "ratio", Better: "lower", Moves: "validity of the ledger: traced over untraced multiply time"},
	{Name: "bench.trace_overhead_share_req", Unit: "ratio", Better: "lower", Moves: "validity of the ledger: traced over untraced binary request p50"},
	{Name: "bench.client_idle_share", Unit: "ratio", Better: "lower", Moves: "validity of req_per_s: share of the closed-loop window the generator spent outside a request"},
}

// metricValue is one emitted number, in the shape the result line uses.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a single-workload run prints.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// result closes a pass: the measured values in the units the definitions
// fix, with the tally. It refuses a pass that left a defined metric out
// or measured one nobody defined — the result line always carries
// exactly the pass's metric set.
func (t *tally) result(defs []metricDef, values map[string]float64) (result, error) {
	metrics := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		v, ok := values[d.Name]
		if !ok {
			return result{}, fmt.Errorf("metric %s was not measured", d.Name)
		}
		metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	if len(values) != len(defs) {
		return result{}, fmt.Errorf("%d values measured for %d defined metrics", len(values), len(defs))
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return result{Correct: t.failed == 0, Attempted: t.attempted, Failed: t.failed, Metrics: metrics}, nil
}

// tally counts operations attempted and failed across the run: every
// verified engine result, every solve and every HTTP request is one
// operation. The first few failures are described on standard error.
type tally struct {
	mu        sync.Mutex
	attempted int64
	failed    int64
}

// check records one operation; what describes it when it failed.
func (t *tally) check(ok bool, what string, args ...any) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.attempted++
	if !ok {
		t.failed++
		if t.failed <= 10 {
			fmt.Fprintf(os.Stderr, "FAILED: "+what+"\n", args...)
		}
	}
	return ok
}
