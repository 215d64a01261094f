package main

import (
	"fmt"
	"math"
	"time"

	"repro/internal/method"
	"repro/internal/solver"
	"repro/internal/spmv"
)

// methodSeed is method.Options.Seed for every build: the benchmark's
// -seed changes the inputs, never the partitioner's random stream.
const methodSeed = 1

// session is one workload's run: the inputs, the tracer (nil in the
// untraced pass), the failure tally, and the programs under test once
// they are up — the direct engines first, then the pooled engine behind
// the HTTP server (see http.go).
type session struct {
	w       workload
	in      *inputs
	tr      *tracer
	tl      *tally
	seconds float64 // the run's measuring budget

	// engines are the direct engines built so far, all resident; eng is
	// the one the steady-state operations and the solve currently use.
	engines []spmv.Multiplier
	eng     spmv.Multiplier

	// yEng is a direct engine's forward result for in.x (every build's:
	// checkBuild checks they agree bit for bit) and so what every sampled HTTP
	// response must equal bit for bit.
	yEng []float64
	y    []float64 // scratch outputs for steady-state multiplies
	yt   []float64
	y8   []float64

	front *frontDoor
}

func (s *session) close() {
	if s.front != nil {
		s.front.close()
	}
	for _, eng := range s.engines {
		eng.Close()
	}
}

// slice turns a share of the run's measuring budget into a duration.
func (s *session) slice(share float64) time.Duration {
	return time.Duration(share * s.seconds * float64(time.Second))
}

// setupEngine is what setup_s times: matrix in memory → partition build →
// compiled and autotuned engine → first verified forward, transpose and
// nrhs=8 results (so the lazy transpose compile and block-buffer sizing
// are inside). It returns the engine with its first forward result.
func (s *session) setupEngine() (spmv.Multiplier, spmv.KernelReport, []float64, error) {
	opt := method.Options{Seed: methodSeed}
	b, err := method.BuildByName(s.w.method, s.in.a, s.w.k, opt)
	if err != nil {
		return nil, spmv.KernelReport{}, nil, fmt.Errorf("build %s: %w", s.w.Name, err)
	}
	eng, rep, err := spmv.NewTuned(b, opt)
	if err != nil {
		return nil, spmv.KernelReport{}, nil, fmt.Errorf("engine %s: %w", s.w.Name, err)
	}
	return eng, rep, s.verifyEngine(eng), nil
}

// verifyEngine runs one multiply of each result class — forward,
// transpose, nrhs=8 block — and checks it against the serial reference
// to verifyTol. It returns the forward result.
func (s *session) verifyEngine(eng spmv.Multiplier) []float64 {
	a, in := s.in.a, s.in
	verify := func(class string, err error, got, want []float64) {
		dist := relErr(got, want)
		s.tl.check(err == nil && dist <= verifyTol, "%s multiply: err=%v relerr=%.3g", class, err, dist)
	}
	y := make([]float64, a.Rows)
	verify("forward", eng.Multiply(in.x, y), y, in.yRef)
	yt := make([]float64, a.Cols)
	verify("transpose", eng.MultiplyTranspose(in.xt, yt), yt, in.ytRef)
	y8 := make([]float64, a.Rows*nrhsBlock)
	verify("block", eng.MultiplyBlock(in.x8, y8, nrhsBlock), y8, in.y8Ref)
	return y
}

// adopt adds eng to the session's resident direct engines and makes it
// current.
func (s *session) adopt(eng spmv.Multiplier) {
	s.engines = append(s.engines, eng)
	s.eng = eng
}

// checkBuild takes a build's forward result. The first build's becomes
// the reference for later builds and for the HTTP responses. Two builds
// of one partition may pick different kernels, but every kernel outside
// the relaxed backend adds in the same order, so their results must
// agree bit for bit.
func (s *session) checkBuild(y []float64) {
	if s.yEng == nil {
		a := s.in.a
		s.yEng = y
		s.y, s.yt, s.y8 = make([]float64, a.Rows), make([]float64, a.Cols), make([]float64, a.Rows*nrhsBlock)
		return
	}
	s.tl.check(sameBits(y, s.yEng), "a later build differs bitwise from build 1 on the same partition")
}

// The steady-state operations. A multiply that returns an error is
// counted as a failed operation; its time still lands in the samples,
// but a run with any failure is reported incorrect.
func (s *session) forward() {
	if err := s.eng.Multiply(s.in.x, s.y); err != nil {
		s.tl.check(false, "steady-state multiply: %v", err)
	}
}

func (s *session) transpose() {
	if err := s.eng.MultiplyTranspose(s.in.xt, s.yt); err != nil {
		s.tl.check(false, "steady-state transpose multiply: %v", err)
	}
}

func (s *session) block() {
	if err := s.eng.MultiplyBlock(s.in.x8, s.y8, nrhsBlock); err != nil {
		s.tl.check(false, "steady-state block multiply: %v", err)
	}
}

func (s *session) serial() { s.in.a.MulVec(s.in.x, s.y) }

// solveStats describes one run of the workload's application.
type solveStats struct {
	total      time.Duration
	mul        time.Duration // inside the engine's Multiply
	iterations int
	residual   float64 // re-measured with the serial reference
}

// solve runs the workload's application over the direct engine to
// solveTol — PageRank (d=0.85) on the column-stochastic power-law
// matrices, CG on the Laplacian — and re-checks the answer with the
// serial reference: one more serial power step must move the ranks by
// less than solveTol, and CG's true residual ‖b − Ax‖/‖b‖ must be within
// 10× solveTol (CG reports the recurrence residual, which drifts from
// the true one by rounding). timeMul additionally times every multiply,
// which the traced pass uses to split the solve into multiply and vector
// operations.
func (s *session) solve(parent int, timeMul bool) solveStats {
	a := s.in.a
	op := s.tr.nextOp()
	var st solveStats
	var mulErr error
	mul := func(x, y []float64) {
		if err := s.eng.Multiply(x, y); err != nil && mulErr == nil {
			mulErr = err
		}
	}
	var id int
	if timeMul {
		inner := mul
		mul = func(x, y []float64) {
			st.mul += s.tr.timed("spmv.multiply", id, op, func() { inner(x, y) })
		}
	}
	var res solver.Result
	var sol []float64
	id = s.tr.begin("solver."+s.w.app, parent, op)
	start := time.Now()
	switch s.w.app {
	case "pagerank":
		sol, res = solver.PageRank(mul, a.Rows, damping, solveTol, maxIter)
	default:
		sol = make([]float64, a.Rows)
		var err error
		res, err = solver.CG(mul, s.in.b, sol, solveTol, maxIter)
		if err != nil && mulErr == nil {
			mulErr = err
		}
	}
	st.total = time.Since(start)
	s.tr.end(id)
	st.iterations = res.Iterations

	ref := make([]float64, a.Rows)
	a.MulVec(sol, ref)
	limit := solveTol
	switch s.w.app {
	case "pagerank":
		for i := range sol {
			next := (1-damping)/float64(a.Rows) + damping*ref[i]
			st.residual += math.Abs(next - sol[i])
		}
	default:
		limit = 10 * solveTol
		var rr, bb float64
		for i, bi := range s.in.b {
			rr += (bi - ref[i]) * (bi - ref[i])
			bb += bi * bi
		}
		st.residual = math.Sqrt(rr / bb)
	}
	s.tl.check(mulErr == nil && res.Converged && st.residual <= limit,
		"%s solve: err=%v converged=%v iterations=%d residual=%.3g (limit %.3g)",
		s.w.app, mulErr, res.Converged, res.Iterations, st.residual, limit)
	return st
}
