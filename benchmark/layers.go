package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"repro/internal/hypergraph"
	"repro/internal/method"
	"repro/internal/model"
	"repro/internal/partition"
	"repro/internal/spmv"
	"repro/internal/wire"
)

// shareLayer is the slice of the measuring budget each timed loop of the
// traced pass gets: there are seventeen such loops, and one solve.
const shareLayer = 1.0 / 18

// runLayers is the traced pass: the ledger. It walks the same stack as
// runEndToEnd from outside in — input, serial floor, model, partition,
// build, engine, solver, codec, scheduler, handler, transport — timing
// each layer's public entry points from the benchmark's side, recording
// a span around every call, and arming the engine's phase sampler. None
// of its numbers is an end-to-end metric; the cost of tracing itself is
// measured here and reported as bench.trace_overhead_share.
func runLayers(cfg config) (result, error) {
	w := cfg.w
	tr := newTracer(w.Name)
	v := make(map[string]float64)
	root := tr.begin("benchmark.layers", 0, 0)

	var in *inputs
	var err error
	tr.timed("benchmark.inputs", root, 0, func() { in = makeInputs(w, cfg.seed, cfg.scale) })
	a := in.a
	s := &session{w: w, in: in, tr: tr, tl: &tally{}, seconds: cfg.seconds}
	defer s.close()
	slice := s.slice(shareLayer)
	nnz := float64(a.NNZ())
	v["gen.generate_s"] = in.genTime.Seconds()
	v["gen.rows"] = float64(a.Rows)
	v["gen.nnz"] = nnz

	// The partitioning stack, first piece by piece as the method registry
	// composes it (same model, same partitioner configuration), then as
	// the one call a user makes. build_rest is what the call costs beyond
	// its model and partition: core/baselines construction.
	setup := tr.begin("benchmark.setup", root, 0)
	var h *hypergraph.H
	modelT := tr.timed("hypergraph.model", setup, 0, func() {
		if w.method == "2d" {
			h = hypergraph.FineGrain(a).H
		} else {
			h = hypergraph.ColumnNetModel(a)
		}
	})
	var parts []int
	partT := tr.timed("partition.partition", setup, 0, func() {
		parts = partition.Partition(h, partition.Config{K: w.k, Seed: methodSeed})
	})
	v["hypergraph.model_s"] = modelT.Seconds()
	v["partition.partition_s"] = partT.Seconds()
	v["partition.cut_conn1"] = float64(hypergraph.ConnectivityMinusOne(h, parts, w.k))
	v["partition.imbalance"] = hypergraph.Imbalance(h, parts, w.k)
	h, parts = nil, nil // the fine-grain model is as large as the matrix; let it be collected

	var b method.Build
	buildT := tr.timed("method.build", setup, 0, func() {
		b, err = method.BuildByName(w.method, a, w.k, method.Options{Seed: methodSeed})
	})
	if err != nil {
		return result{}, fmt.Errorf("build %s: %w", w.Name, err)
	}
	v["method.build_s"] = buildT.Seconds()
	v["method.build_rest_s"] = (buildT - modelT - partT).Seconds()
	comm := b.Comm()
	v["distrib.volume_words"] = float64(comm.TotalVolume)
	v["distrib.msgs_total"] = float64(comm.TotalMsgs)
	v["distrib.msgs_max_per_proc"] = float64(comm.MaxSendMsgs)
	v["distrib.load_imbalance"] = b.Dist.LoadImbalance()
	// Evaluate over Build.Comm() rather than EvaluateDistribution: the two
	// agree for direct schedules, and only this one sees the routed hops.
	v["model.predicted_speedup"] = model.CrayXE6().Evaluate(b.Dist.PartLoads(), comm.Phases, a.NNZ()).Speedup

	// The engine: compile, autotune, and the first call of each class.
	var eng spmv.Multiplier
	compileT := tr.timed("spmv.compile", setup, 0, func() { eng, err = spmv.New(b) })
	if err != nil {
		return result{}, fmt.Errorf("engine %s: %w", w.Name, err)
	}
	var rep spmv.KernelReport
	tuneT := tr.timed("spmv.autotune", setup, 0, func() { rep, err = eng.Autotune(spmv.TuneConfig{}) })
	if err != nil {
		eng.Close()
		return result{}, fmt.Errorf("autotune %s: %w", w.Name, err)
	}
	yt := make([]float64, a.Cols)
	firstT := tr.timed("spmv.multiply_transpose.first", setup, 0, func() { err = eng.MultiplyTranspose(in.xt, yt) })
	s.tl.check(err == nil, "first transpose multiply: %v", err)
	s.checkBuild(s.verifyEngine(eng))
	s.adopt(eng)
	tr.end(setup)
	v["spmv.compile_s"] = compileT.Seconds()
	v["spmv.autotune_s"] = tuneT.Seconds()
	v["spmv.packets_per_multiply"] = float64(eng.ScheduleStats().TotalMsgs)
	nonScalar := 0
	for _, c := range rep.Choices {
		if c.Kernel != "scalar" {
			nonScalar++
		}
	}
	v["spmv.kernel_nonscalar_classes"] = float64(nonScalar)

	// Serial floor and the plain row-split floor.
	measure := tr.begin("benchmark.measure", root, 0)
	serialUs := median(tr.sampleFor("sparse.mulvec", measure, slice, s.serial))
	v["sparse.mulvec_us"] = serialUs
	v["sparse.mulvec_ns_per_nnz"] = serialUs * 1e3 / nnz
	v["sparse.mulvec_gbps_computed"] = csrBytes(a) / (serialUs * 1e3)
	rp := newRowpar(a, runtime.GOMAXPROCS(0))
	rowparUs := median(tr.sampleFor("ref.rowpar", measure, slice, func() { rp.mulVec(in.x, s.y) }))
	s.tl.check(relErr(s.y, in.yRef) <= verifyTol, "rowpar reference: relerr=%.3g", relErr(s.y, in.yRef))
	v["ref.rowpar_us"] = rowparUs
	v["ref.rowpar_speedup"] = serialUs / rowparUs

	// Steady-state engine, first as the untraced pass runs it (no spans,
	// sampler off), then traced; the ratio is the tracing overhead.
	var nilTracer *tracer
	plain := nilTracer.sampleFor("", 0, slice, s.forward)
	engineUs := median(plain)
	v["spmv.mult_us_p95"] = quantile(plain, 0.95)
	v["spmv.ns_per_nnz"] = engineUs * 1e3 / nnz
	v["spmv.gbps_computed"] = csrBytes(a) / (engineUs * 1e3)
	transposeUs := median(tr.sampleFor("spmv.multiply_transpose", measure, slice, s.transpose))
	v["spmv.transpose_compile_ms"] = float64(firstT.Microseconds())/1e3 - transposeUs/1e3
	tr.sampleFor("spmv.multiply_block", measure, slice, s.block)

	var expand, compute, fold, nonCompute []float64
	sampler, sampled := eng.(spmv.PhaseSampler)
	if sampled {
		sampler.SamplePhases(true)
	}
	traced := tr.sampleFor("spmv.multiply", measure, slice, func() {
		start := time.Now()
		s.forward()
		d := time.Since(start)
		if !sampled {
			return
		}
		if ph, ok := sampler.LastPhases(); ok {
			expand = append(expand, float64(ph.Expand.Nanoseconds())/1e3)
			compute = append(compute, float64(ph.Compute.Nanoseconds())/1e3)
			fold = append(fold, float64(ph.Fold.Nanoseconds())/1e3)
			nonCompute = append(nonCompute, 1-ph.Compute.Seconds()/d.Seconds())
		}
	})
	if sampled {
		sampler.SamplePhases(false)
	}
	// The routed engine has no phase sampler: its four phase metrics read
	// 0, which no sampled engine can produce.
	v["spmv.phase_expand_us"], v["spmv.phase_compute_us"], v["spmv.phase_fold_us"], v["spmv.noncompute_share"] = 0, 0, 0, 0
	if len(compute) > 0 {
		v["spmv.phase_expand_us"], v["spmv.phase_compute_us"] = median(expand), median(compute)
		v["spmv.phase_fold_us"], v["spmv.noncompute_share"] = median(fold), median(nonCompute)
	}
	v["bench.trace_overhead_share"] = median(traced) / engineUs
	v["spmv.allocs_per_op"] = s.allocsPerMultiply()

	// The application, with every multiply timed: what is left is the
	// solver's own vector work.
	st := s.solve(measure, true)
	v["solver.iterations"] = float64(st.iterations)
	v["solver.mul_s"] = st.mul.Seconds()
	v["solver.vecops_s"] = (st.total - st.mul).Seconds()
	v["solver.residual"] = st.residual

	// The codec on this workload's response: one vector of Rows values.
	respFrame := &wire.Frame{Op: wire.OpMultiplyResp, Matrix: matrixName, Method: w.method, K: w.k, Vectors: [][]float64{s.yEng}}
	var buf []byte
	v["wire.encode_us"] = median(tr.sampleFor("wire.append", measure, slice, func() {
		buf, err = wire.Append(buf[:0], respFrame)
	}))
	s.tl.check(err == nil, "wire.Append: %v", err)
	var decoded *wire.Frame
	v["wire.decode_us"] = median(tr.sampleFor("wire.decode", measure, slice, func() { decoded, err = wire.Decode(buf) }))
	s.tl.check(err == nil && len(decoded.Vectors) == 1 && sameBits(decoded.Vectors[0], s.yEng), "wire round trip: %v", err)

	// The serving onion, outside in reverse: pool, scheduler, handler,
	// loopback. Every level sends the same x, so each level's overhead is
	// its median minus the median of the level inside it.
	coldT := tr.timed("serve.acquire_cold", measure, 0, func() { err = s.openFrontDoor() })
	if err != nil {
		return result{}, err
	}
	fd := s.front
	s.warmUp()
	v["serve.acquire_cold_s"] = coldT.Seconds()
	v["wire.frame_bytes"] = float64(len(fd.binBody))
	v["wire.json_bytes"] = float64(len(fd.jsonBody))
	v["serve.acquire_warm_us"] = median(tr.sampleFor("serve.acquire_warm", measure, slice, func() {
		h, err := fd.pool.Acquire(matrixName, w.method, w.k)
		if err != nil {
			s.tl.check(false, "warm acquire: %v", err)
			return
		}
		h.Release()
	}))
	schedUs := median(tr.sampleFor("serve.sched", measure, slice, func() {
		y, err := fd.handle.Multiply(context.Background(), in.x)
		s.tl.check(err == nil && sameBits(y, s.yEng), "Handle.Multiply: err=%v", err)
	}))
	v["serve.sched_us"] = schedUs
	v["serve.sched_overhead_us"] = schedUs - engineUs

	handlerUs := func(kind requestKind) float64 {
		var us []float64
		id := tr.begin("serve.handler."+kind.name, measure, 0)
		for deadline := time.Now().Add(slice); len(us) < 5 || time.Now().Before(deadline); {
			d, ok := s.handle(kind, id)
			s.tl.check(ok, "ServeHTTP %s", kind.name)
			us = append(us, float64(d.Nanoseconds())/1e3)
		}
		tr.end(id)
		return median(us)
	}
	handlerJSON, handlerBin := handlerUs(s.jsonRequest()), handlerUs(s.binRequest())
	v["serve.handler_json_us"], v["serve.handler_bin_us"] = handlerJSON, handlerBin
	v["serve.handler_json_overhead_us"], v["serve.handler_bin_overhead_us"] = handlerJSON-schedUs, handlerBin-schedUs

	reqJSON := median(s.closedLoop(tr, s.jsonRequest(), measure, 1, slice).ms) * 1e3
	reqBin := median(s.closedLoop(tr, s.binRequest(), measure, 1, slice).ms) * 1e3
	v["serve.transport_json_us"], v["serve.transport_bin_us"] = reqJSON-handlerJSON, reqBin-handlerBin
	v["serve.overhead_ratio_json"] = (reqJSON - engineUs) / engineUs
	v["serve.overhead_ratio_bin"] = (reqBin - engineUs) / engineUs
	v["serve.req_bin8_ms_p50"] = median(s.closedLoop(tr, s.bin8Request(), measure, 1, slice).ms)
	// The same single-client binary window with span recording off: the
	// tracing overhead as a request sees it.
	untracedBin := median(s.closedLoop(nil, s.binRequest(), 0, 1, slice).ms) * 1e3
	v["bench.trace_overhead_share_req"] = reqBin / untracedBin

	// Two clients: batch width, sheds and retries from the server's own
	// counters, and how much of the window the generator was not asking.
	before, err := fd.counters()
	if err != nil {
		return result{}, err
	}
	multi := s.closedLoop(tr, s.binRequest(), measure, clientsMulti(), slice)
	after, err := fd.counters()
	if err != nil {
		return result{}, err
	}
	v["serve.mean_batch_width"] = float64(after.Requests-before.Requests) / float64(max(after.Batches-before.Batches, 1))
	v["serve.sheds"] = float64(after.overloads() - before.overloads())
	v["serve.retries"] = float64(multi.retryable)
	v["bench.client_idle_share"] = multi.idleShare(clientsMulti())
	tr.end(measure)
	tr.end(root)

	if cfg.traceOut != "" {
		if err := tr.writeFile(cfg.traceOut, cfg.seed); err != nil {
			return result{}, err
		}
		logf("%s: %d spans written to %s", w.Name, len(tr.spans), cfg.traceOut)
	}
	return s.tl.result(perLayer, v)
}

// allocsPerMultiply counts heap allocations per steady-state multiply
// from the runtime's malloc counter. The smallest of three trials is
// reported: nothing else in the process allocates on purpose while this
// runs, but the runtime's own background work occasionally does.
func (s *session) allocsPerMultiply() float64 {
	const reps = 100
	best := -1.0
	var before, after runtime.MemStats
	for trial := 0; trial < 3; trial++ {
		runtime.ReadMemStats(&before)
		for i := 0; i < reps; i++ {
			s.forward()
		}
		runtime.ReadMemStats(&after)
		if per := float64(after.Mallocs-before.Mallocs) / reps; best < 0 || per < best {
			best = per
		}
	}
	return best
}
