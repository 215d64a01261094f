package main

import (
	"fmt"
	"os"
	"runtime"
	"time"
)

// rounds is R: the engine block visits every resident engine this many
// times, and the serving block runs this many interleaved rounds of its
// three windows, so a disturbance lands in one round of each metric and
// not in all rounds of one. The serving metrics are the median over
// rounds of the round's own statistic.
const rounds = 5

// How the measuring budget is split. The binary single-client window is
// the longest because req_bin_ms_p95 needs the samples (pooled over the
// rounds: ten or more beyond the 95th percentile). The engine block's
// untimed lead-in comes on top.
const (
	shareEngineLeadIn = 0.15
	shareEngine       = 0.28 // forward/serial/transpose/block cycles, split over rounds and engines
	shareSolve        = 0.12
	shareJSON         = 0.10
	shareBin          = 0.34
	shareBinMulti     = 0.16
)

// config is one run of one workload.
type config struct {
	w        workload
	seed     int64
	seconds  float64
	scale    float64
	traceOut string // traced pass: where the spans go ("" keeps them in memory only)
}

// clientsMulti is the client count of the req_per_s window.
func clientsMulti() int { return min(runtime.NumCPU(), 2) }

// engineSamples collects one direct engine's steady-state cycles: each
// operation's time per cycle in µs, and serial ÷ forward per cycle.
type engineSamples struct{ forward, transpose, blockPerRHS, speedup []float64 }

// engineCycles measures the current direct engine for window. Each cycle
// runs forward, serial, transpose and block once, in that order, and
// times each: all four see the same machine state, and
// speedup_vs_serial pairs a serial multiply with the forward multiply
// next to it.
func (s *session) engineCycles(into *engineSamples, window time.Duration) {
	us := func(op func()) float64 {
		start := time.Now()
		op()
		return float64(time.Since(start).Nanoseconds()) / 1e3
	}
	const minCycles = 3
	n := 0
	for deadline := time.Now().Add(window); n < minCycles || time.Now().Before(deadline); n++ {
		f, ser := us(s.forward), us(s.serial)
		into.forward = append(into.forward, f)
		into.speedup = append(into.speedup, ser/f)
		into.transpose = append(into.transpose, us(s.transpose))
		into.blockPerRHS = append(into.blockPerRHS, us(s.block)/nrhsBlock)
	}
}

// liveHeapMB is HeapAlloc after forced collections, in 10⁶ bytes. Three
// collections: what a sync.Pool held survives one as the pool's victim
// cache and is only unreachable in the next.
func liveHeapMB() float64 {
	for i := 0; i < 3; i++ {
		runtime.GC()
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / 1e6
}

// runEndToEnd is the untraced pass: both front doors of one workload,
// measured the way a user meets them, with no span recording and the
// engine's phase sampler off.
//
// The direct engine is set up w.setups times and set-up time is the
// median over them. The last w.engines builds stay resident and are
// measured: the engine timings are the mean over engines of each
// engine's median over all its cycles, and solve_s the mean over engines
// of each engine's solve time. One engine serves where builds agree (the
// 160k workloads: the tuner's verdict for nrhs=1 repeats and engines
// differ by a few percent). On the small workload they do not: the
// autotuner picks kernels by timing them, and two builds of one
// partition disagree by a quarter; a run that measured one engine would
// inherit that coin flip whole, and a median over engines would only
// move it to the majority.
//
// The direct engine is measured in one block under unbroken load —
// set-ups, lead-in, cycles, solves — before the server exists, and the
// serving windows follow in a block of their own. On the 2-vCPU VM this
// was built on, the kernel leaves the threads of a process that has been
// idle, serial, or busy only in bursts (100 ms on, 200 ms off) on one
// CPU, and moves one to the other only after one to two seconds of load
// on both. Until then two workers take turns: a multiply of tens of µs,
// which is mostly workers waking each other, runs a sixth faster (no
// wake-up crosses CPUs), a block multiply, which is arithmetic, two
// fifths slower, set-up a tenth slower, and the autotuner picks `sorted`
// for nrhs=1 on nearly every build instead of six in ten. Closed-loop
// serving is such a burst pattern: engine slices between serving windows
// leave each run of the small workload in one placement or another for
// its whole length (spread over ten runs: 0.16 on spmv_us, 0.38 on
// spmm8_us_per_rhs). A caller who multiplies in a loop is past that
// second or two, so that is the state measured: the small workload's
// early set-ups and every workload's lead-in absorb it, and only the
// later builds are kept.
func runEndToEnd(cfg config) (result, error) {
	in := makeInputs(cfg.w, cfg.seed, cfg.scale)
	s := &session{w: cfg.w, in: in, tl: &tally{}, seconds: cfg.seconds}
	defer s.close()
	logf("%s: %d rows, %d nnz (generated in %.2fs)", cfg.w.Name, in.a.Rows, in.a.NNZ(), in.genTime.Seconds())

	heapInputs := liveHeapMB()
	var setupS []float64
	for i := 0; i < cfg.w.setups; i++ {
		start := time.Now()
		eng, kernels, y, err := s.setupEngine()
		if err != nil {
			return result{}, err
		}
		setupS = append(setupS, time.Since(start).Seconds())
		logf("%s: build %d: setup %.3fs, kernels %s", cfg.w.Name, i+1, setupS[i], kernels)
		s.checkBuild(y)
		if i < cfg.w.setups-cfg.w.engines {
			eng.Close()
			continue
		}
		s.adopt(eng)
	}
	heapEngines := liveHeapMB()

	// The engine block. The lead-in is the same cycles, untimed; every
	// engine is then visited once in each of the rounds and its median
	// taken over the cycles of all of them.
	var (
		cycles  = make([]engineSamples, len(s.engines))
		solveS  = make([][]float64, len(s.engines))
		nSolves int
	)
	for _, eng := range s.engines {
		s.eng = eng
		s.engineCycles(&engineSamples{}, s.slice(shareEngineLeadIn/float64(len(s.engines))))
	}
	for r := 0; r < rounds; r++ {
		var fwd, blk []float64
		for i, eng := range s.engines {
			s.eng = eng
			from := len(cycles[i].forward)
			s.engineCycles(&cycles[i], s.slice(shareEngine/float64(rounds*len(s.engines))))
			fwd = append(fwd, median(cycles[i].forward[from:]))
			blk = append(blk, median(cycles[i].blockPerRHS[from:]))
		}
		// Thread placement shows here: a round with a faster multiply and a
		// slower block multiply than its neighbours ran on one CPU.
		logf("%s: engine round %d: multiply %.1fus, block/8 %.2fus (mean over engines of the round's medians)", cfg.w.Name, r+1, mean(fwd), mean(blk))
	}
	// A solve is the longest single operation (two seconds of CG on the
	// Laplacian, which overruns the slice): at least one, and as many as
	// fit the slice, each on the next engine in turn.
	deadline := time.Now().Add(s.slice(shareSolve))
	for first := true; first || time.Now().Before(deadline); first = false {
		i := nSolves % len(s.engines)
		s.eng = s.engines[i]
		solveS[i] = append(solveS[i], s.solve(0, false).total.Seconds())
		nSolves++
	}

	if err := s.openFrontDoor(); err != nil {
		return result{}, err
	}
	s.warmUp()
	// What a user holding one direct engine and the pooled engine sees:
	// everything resident now, less all but the mean direct engine where
	// more than one is kept (builds differ: a sorted kernel keeps a
	// reordered copy of its arrays).
	heapMB := liveHeapMB() - (heapEngines-heapInputs)*float64(cfg.w.engines-1)/float64(cfg.w.engines)

	var (
		jsonP50, binP50, perSec []float64
		binAll                  []float64
		nJSON, nBinMulti        int
	)
	for r := 0; r < rounds; r++ {
		j := s.closedLoop(nil, s.jsonRequest(), 0, 1, s.slice(shareJSON/rounds))
		jsonP50 = append(jsonP50, median(j.ms))
		nJSON += len(j.ms)
		b := s.closedLoop(nil, s.binRequest(), 0, 1, s.slice(shareBin/rounds))
		binP50 = append(binP50, median(b.ms))
		binAll = append(binAll, b.ms...)
		m := s.closedLoop(nil, s.binRequest(), 0, clientsMulti(), s.slice(shareBinMulti/rounds))
		perSec = append(perSec, m.perSecond())
		nBinMulti += len(m.ms)
	}
	var fwd, tr, blk, speedup, solve []float64
	for i, c := range cycles {
		logf("%s: engine %d: %d cycles: multiply %.1fus, transpose %.1fus, block/8 %.2fus, %.3fx serial; %d solves, median %.4gs",
			cfg.w.Name, i+1, len(c.forward), median(c.forward), median(c.transpose), median(c.blockPerRHS), median(c.speedup), len(solveS[i]), median(solveS[i]))
		fwd, tr = append(fwd, median(c.forward)), append(tr, median(c.transpose))
		blk, speedup = append(blk, median(c.blockPerRHS)), append(speedup, median(c.speedup))
		if len(solveS[i]) > 0 {
			solve = append(solve, median(solveS[i]))
		}
	}
	logf("%s: closed loop over loopback: JSON 1 client %d samples; binary 1 client %d samples (%d beyond p95); binary %d clients %d samples",
		cfg.w.Name, nJSON, len(binAll), len(binAll)/20, clientsMulti(), nBinMulti)

	values := map[string]float64{
		"setup_s":           median(setupS),
		"heap_mb":           heapMB,
		"spmv_us":           mean(fwd),
		"spmv_t_us":         mean(tr),
		"spmm8_us_per_rhs":  mean(blk),
		"speedup_vs_serial": mean(speedup),
		"solve_s":           mean(solve),
		"req_json_ms_p50":   median(jsonP50),
		"req_bin_ms_p50":    median(binP50),
		"req_bin_ms_p95":    quantile(binAll, 0.95),
		"req_per_s":         median(perSec),
	}
	return s.tl.result(endToEnd, values)
}

// logf writes progress to standard error; standard output carries only
// results.
func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
}
