package main

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"repro/internal/gen"
	"repro/internal/sparse"
)

// workload is one full user session: a matrix family and size, the
// partitioning method, part count and so engine body that serve it, and
// the iterative application solved over the engine. K is a constant of
// the workload, never derived from the host's core count.
type workload struct {
	Name   string
	Why    string
	family string // "powerlaw" or "laplace"
	rows   int    // at -scale 1
	method string
	k      int
	app    string // "pagerank" or "cg"
	// setups is how many times a run sets the direct engine up; setup_s
	// is the median over them. The last engines of these builds stay
	// resident and are measured: the engine timings are the mean over
	// them (see runEndToEnd). Constants, so sample counts repeat.
	setups, engines int
	// patternSeed, when not 0, fixes the matrix's sparsity pattern: only
	// its values (and the vectors) follow the run's seed.
	patternSeed int64
}

// The four workloads. Each one puts the time in a different layer; the
// Why strings are the one-line reasons BENCHMARK.json carries.
var workloads = []workload{
	{
		Name: "pl160k-s2d-k2", family: "powerlaw", rows: 160000, method: "s2d", k: 2, app: "pagerank", setups: 3, engines: 1,
		Why: "160k-row power-law matrix (1.47M nnz, 27 MB = 20x a core's L2) on the fused s2D engine at K=2 <= cores: kernel and memory traffic do the work, sync and HTTP little; PageRank on top",
	},
	{
		Name: "pl160k-s2db-k16", family: "powerlaw", rows: 160000, method: "s2d-b", k: 16, app: "pagerank", setups: 3, engines: 1,
		Why: "same matrix on the routed two-hop s2D-b engine at K=16 = 8x cores: oversubscription, 96 packets per multiply and the partition build dominate; the only place s2D-b's message bound can show",
	},
	// On 1280 rows the pattern itself moved the multiply by a sixth from
	// seed to seed (four parts around two planted 80-nonzero rows partition
	// well or badly), which is a different input and not noise; the 160k
	// patterns average that out. So this is the legacy smoke matrix — the
	// pattern of generator seed 1 — under every seed. And its autotuner
	// verdict for nrhs=1 is a coin flip worth a quarter of the multiply, so
	// it is built often enough for the mean over builds to settle.
	{
		Name: "pl1k-s2d-k4", family: "powerlaw", rows: 1280, method: "s2d", k: 4, app: "pagerank", setups: 96, engines: 32, patternSeed: 1,
		Why: "cache-resident 1280-row smoke matrix at K=4: the engine is sync-bound and a request is scheduler, handler and transport overhead around a ~27us multiply",
	},
	{
		Name: "lap160k-2d-k4", family: "laplace", rows: 160000, method: "2d", k: 4, app: "cg", setups: 3, engines: 1,
		Why: "400x400 5-point Laplacian on the two-phase fine-grain 2D engine at K=4: communication is negligible, and CG is the one app where solver vector ops carry weight",
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

const (
	nrhsBlock = 8     // width of the block multiply measured beside nrhs=1
	damping   = 0.85  // PageRank
	solveTol  = 1e-8  // both apps
	maxIter   = 20000 // never reached on these inputs
	// verifyTol bounds max|y − y_ref| / max|y_ref| for every engine result
	// class against the serial reference. The engines add in a different
	// order than CSR.MulVec, so the results agree to rounding, not bitwise.
	verifyTol = 1e-12
)

// inputs is everything derived from the seed: the matrix, the vectors,
// and the serial reference results the engine outputs are checked
// against. The programs under test receive only these.
type inputs struct {
	a       *sparse.CSR
	genTime time.Duration // inside internal/gen only

	x  []float64 // forward input, also the body of every HTTP request
	xt []float64 // transpose input (length Rows)
	x8 []float64 // column-blocked nrhs=8 input
	b  []float64 // CG right-hand side

	yRef  []float64 // A·x by CSR.MulVec
	ytRef []float64 // Aᵀ·xt by the benchmark's own serial loop
	y8Ref []float64 // A·X8, column-blocked, column by column through MulVec
}

// makeInputs generates the workload's matrix and vectors from seed. The
// power-law configuration is cmd/spmvbench's (10 nnz/row, β=0.5, 90 %
// local, two planted dense rows); its values are rescaled to column sums
// of 1 so the same matrix serves as PageRank's transition matrix.
func makeInputs(w workload, seed int64, scale float64) *inputs {
	in := &inputs{}
	rng := rand.New(rand.NewSource(seed))
	start := time.Now()
	switch w.family {
	case "powerlaw":
		n := max(256, int(float64(w.rows)*scale))
		pattern := seed
		if w.patternSeed != 0 {
			pattern = w.patternSeed
		}
		in.a = gen.PowerLaw(gen.PowerLawConfig{
			Rows: n, Cols: n, NNZ: 10 * n, Beta: 0.5,
			DenseRows: 2, DenseMax: n / 16, Symmetric: true, Locality: 0.9,
		}, pattern)
		in.genTime = time.Since(start)
		if w.patternSeed != 0 {
			for p := range in.a.Val {
				in.a.Val[p] = 1 + rng.Float64() // the generator's own value range
			}
		}
		columnStochastic(in.a)
	case "laplace":
		side := max(16, int(math.Round(math.Sqrt(float64(w.rows)*scale))))
		in.a = gen.Laplace2D(side, side, false)
		in.genTime = time.Since(start)
	default:
		panic(fmt.Sprintf("workload %s: unknown matrix family %q", w.Name, w.family))
	}
	a := in.a
	uniform := func(n int) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = 2*rng.Float64() - 1
		}
		return v
	}
	in.x, in.xt, in.x8 = uniform(a.Cols), uniform(a.Rows), uniform(a.Cols*nrhsBlock)
	// CG's right-hand side is uniform in [0,1): with a mean as large as its
	// noise, the iteration count to a relative residual of 1e-8 moves by
	// half a percent from seed to seed (1173–1185 on the 400×400 grid). A
	// zero-mean b, or b = A·x* for a random x*, moved it by a quarter, and
	// solve_s with it.
	in.b = make([]float64, a.Rows)
	for i := range in.b {
		in.b[i] = rng.Float64()
	}

	in.yRef = make([]float64, a.Rows)
	a.MulVec(in.x, in.yRef)
	in.ytRef = make([]float64, a.Cols)
	mulVecTranspose(a, in.xt, in.ytRef)
	in.y8Ref = make([]float64, a.Rows*nrhsBlock)
	col, out := make([]float64, a.Cols), make([]float64, a.Rows)
	for c := 0; c < nrhsBlock; c++ {
		for j := range col {
			col[j] = in.x8[j*nrhsBlock+c]
		}
		a.MulVec(col, out)
		for i := range out {
			in.y8Ref[i*nrhsBlock+c] = out[i]
		}
	}
	return in
}

// columnStochastic rescales a's values in place so every non-empty
// column sums to 1 (the generator's values are positive).
func columnStochastic(a *sparse.CSR) {
	sum := make([]float64, a.Cols)
	for p, j := range a.ColIdx {
		sum[j] += a.Val[p]
	}
	for p, j := range a.ColIdx {
		a.Val[p] /= sum[j]
	}
}

// mulVecTranspose is the serial reference for y ← Aᵀx.
func mulVecTranspose(a *sparse.CSR, x, y []float64) {
	for j := range y {
		y[j] = 0
	}
	for i := 0; i < a.Rows; i++ {
		xi := x[i]
		for p := a.RowPtr[i]; p < a.RowPtr[i+1]; p++ {
			y[a.ColIdx[p]] += a.Val[p] * xi
		}
	}
}

// relErr is the verification distance: max|got − want| / max|want|.
func relErr(got, want []float64) float64 {
	if len(got) != len(want) {
		return math.Inf(1)
	}
	var diff, scale float64
	for i := range want {
		d := math.Abs(got[i] - want[i])
		if d > diff || math.IsNaN(d) {
			diff = d
		}
		scale = max(scale, math.Abs(want[i]))
	}
	if scale == 0 {
		return diff
	}
	return diff / scale
}

// sameBits reports whether two vectors are bit-for-bit identical — the
// contract between an HTTP response and the direct engine's result.
func sameBits(got, want []float64) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			return false
		}
	}
	return true
}

// csrBytes is the computed traffic of one y ← Ax over CSR storage: every
// stored value and index once, the row pointers, x and y. It ignores
// cache misses, so rates derived from it are labelled "computed".
func csrBytes(a *sparse.CSR) float64 {
	const word = 8 // float64 and int are both 8 bytes here
	return float64(word * (2*a.NNZ() + a.Rows + 1 + a.Cols + a.Rows))
}

// rowpar is the reference floor for a parallel engine: the plainest
// shared-memory row split, no plan and no packets. Rows are cut into
// GOMAXPROCS contiguous chunks of equal nonzero count and each multiply
// starts one goroutine per chunk.
type rowpar struct {
	a      *sparse.CSR
	bounds []int // chunk c covers rows bounds[c]..bounds[c+1]
}

func newRowpar(a *sparse.CSR, procs int) *rowpar {
	r := &rowpar{a: a, bounds: []int{0}}
	for c := 1; c < procs; c++ {
		target := a.NNZ() * c / procs
		row := r.bounds[len(r.bounds)-1]
		for row < a.Rows && a.RowPtr[row] < target {
			row++
		}
		r.bounds = append(r.bounds, row)
	}
	r.bounds = append(r.bounds, a.Rows)
	return r
}

func (r *rowpar) mulVec(x, y []float64) {
	a := r.a
	done := make(chan struct{}, len(r.bounds)-1) // one send per chunk
	for c := 0; c+1 < len(r.bounds); c++ {
		go func(lo, hi int) {
			for i := lo; i < hi; i++ {
				var s float64
				for p := a.RowPtr[i]; p < a.RowPtr[i+1]; p++ {
					s += a.Val[p] * x[a.ColIdx[p]]
				}
				y[i] = s
			}
			done <- struct{}{}
		}(r.bounds[c], r.bounds[c+1])
	}
	for c := 0; c+1 < len(r.bounds); c++ {
		<-done
	}
}
