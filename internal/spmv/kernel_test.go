package spmv

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/method"
	"repro/internal/sparse"
)

// kernelWidths is the equivalence sweep: every specialized width (1, 2,
// 4, 8), the generic class's probe neighborhood (3, 5), and an odd width
// past the widest specialization (9).
var kernelWidths = []int{1, 2, 3, 4, 5, 8, 9}

// ordFloat maps a float64 to a monotonically ordered integer so ulp
// distance is a subtraction.
func ordFloat(f float64) int64 {
	b := int64(math.Float64bits(f))
	if b < 0 {
		b = math.MinInt64 - b
	}
	return b
}

func ulpDiff(a, b float64) uint64 {
	if a == b {
		return 0
	}
	if math.IsNaN(a) || math.IsNaN(b) {
		return math.MaxUint64
	}
	d := ordFloat(a) - ordFloat(b)
	if d < 0 {
		d = -d
	}
	return uint64(d)
}

// relaxedUlpTol bounds the reassociation error the relaxed backend may
// accumulate versus the scalar summation order on the test matrices;
// relaxedAbsTol covers near-zero outputs, where cancellation makes the
// ulp distance meaningless (the absolute error stays bounded by the
// summed term magnitudes, the ulp count does not).
const (
	relaxedUlpTol = 64
	relaxedAbsTol = 1e-11
)

// kernelSurfaces is one backend's outputs on all four multiply
// surfaces: forward and transpose, single-vector and blocked at every
// width in kernelWidths.
type kernelSurfaces struct {
	fwd  []float64
	fwdT []float64
	blk  map[int][]float64
	blkT map[int][]float64
}

// runKernelSurfaces force-installs the named backend and runs every
// surface into fresh outputs.
func runKernelSurfaces(t *testing.T, eng Multiplier, kernel string, a *sparse.CSR, X, XT []float64) kernelSurfaces {
	t.Helper()
	if _, err := eng.Autotune(TuneConfig{Force: kernel}); err != nil {
		t.Fatalf("force %s: %v", kernel, err)
	}
	s := kernelSurfaces{
		fwd:  make([]float64, a.Rows),
		fwdT: make([]float64, a.Cols),
		blk:  make(map[int][]float64, len(kernelWidths)),
		blkT: make(map[int][]float64, len(kernelWidths)),
	}
	if err := eng.Multiply(X[:a.Cols], s.fwd); err != nil {
		t.Fatalf("%s Multiply: %v", kernel, err)
	}
	if err := eng.MultiplyTranspose(XT[:a.Rows], s.fwdT); err != nil {
		t.Fatalf("%s MultiplyTranspose: %v", kernel, err)
	}
	for _, nrhs := range kernelWidths {
		y := make([]float64, a.Rows*nrhs)
		if err := eng.MultiplyBlock(X[:a.Cols*nrhs], y, nrhs); err != nil {
			t.Fatalf("%s MultiplyBlock(nrhs=%d): %v", kernel, nrhs, err)
		}
		s.blk[nrhs] = y
		yt := make([]float64, a.Cols*nrhs)
		if err := eng.MultiplyTransposeBlock(XT[:a.Rows*nrhs], yt, nrhs); err != nil {
			t.Fatalf("%s MultiplyTransposeBlock(nrhs=%d): %v", kernel, nrhs, err)
		}
		s.blkT[nrhs] = yt
	}
	return s
}

// compareVec checks got against want bitwise (ulpTol == 0) or within an
// ulp budget.
func compareVec(t *testing.T, label string, got, want []float64, ulpTol uint64) {
	t.Helper()
	for i := range want {
		if ulpTol == 0 {
			if got[i] != want[i] || math.Signbit(got[i]) != math.Signbit(want[i]) {
				t.Fatalf("%s: [%d] = %x, scalar %x (bitwise contract)", label, i, got[i], want[i])
			}
		} else if d := ulpDiff(got[i], want[i]); d > ulpTol && math.Abs(got[i]-want[i]) > relaxedAbsTol {
			t.Fatalf("%s: [%d] = %v vs scalar %v (%d ulp, tol %d)", label, i, got[i], want[i], d, ulpTol)
		}
	}
}

// TestKernelBackendEquivalence is the exhaustive backend contract:
// every kernel backend, on every registry method's build, at K ∈ {4,16}
// and nrhs ∈ {1,2,3,4,5,8,9}, must reproduce the scalar reference on
// all four multiply surfaces — bitwise for every non-relaxed backend,
// ulp-close for relaxed. The matrix is rectangular so a transposed
// dimension mix-up cannot cancel out.
func TestKernelBackendEquivalence(t *testing.T) {
	// Some registry methods (reordering-based) only accept square
	// matrices; they run on the square fixture instead.
	rect, square := registryFixtures(42)

	for _, k := range []int{4, 16} {
		opt := method.Options{Seed: 7, Pipeline: method.NewPipeline()}
		for _, name := range method.Names() {
			t.Run(fmt.Sprintf("%s/K=%d", name, k), func(t *testing.T) {
				b, fx := buildEither(t, name, k, opt, rect, square)
				a, X, XT := fx.a, fx.x, fx.xt
				eng, err := New(b)
				if err != nil {
					t.Fatalf("engine: %v", err)
				}
				t.Cleanup(eng.Close)
				ref := runKernelSurfaces(t, eng, "scalar", a, X, XT)
				for _, kern := range KernelNames() {
					if kern == "scalar" {
						continue
					}
					var tol uint64
					if kern == "relaxed" {
						tol = relaxedUlpTol
					}
					got := runKernelSurfaces(t, eng, kern, a, X, XT)
					compareVec(t, kern+" Multiply", got.fwd, ref.fwd, tol)
					compareVec(t, kern+" MultiplyTranspose", got.fwdT, ref.fwdT, tol)
					for _, nrhs := range kernelWidths {
						compareVec(t, fmt.Sprintf("%s MultiplyBlock nrhs=%d", kern, nrhs),
							got.blk[nrhs], ref.blk[nrhs], tol)
						compareVec(t, fmt.Sprintf("%s MultiplyTransposeBlock nrhs=%d", kern, nrhs),
							got.blkT[nrhs], ref.blkT[nrhs], tol)
					}
					// The nrhs=1 block layout is the single-vector layout, so
					// MultiplyBlock(·, ·, 1) must equal Multiply bitwise under
					// every backend, relaxed included.
					compareVec(t, kern+" MultiplyBlock(1) vs Multiply", got.blk[1], got.fwd, 0)
				}
			})
		}
	}
}

// TestKernelBackendsZeroAlloc pins the 0-alloc steady-state contract
// for every backend on every schedule: once a width's buffers exist and
// the backend (plus any sorted layout) is installed, no multiply
// surface may touch the heap.
func TestKernelBackendsZeroAlloc(t *testing.T) {
	fused, twoPhase, routed, x, y := allocFixtures(t)
	engines := []struct {
		name string
		eng  Multiplier
	}{
		{"fused", fused},
		{"twophase", twoPhase},
		{"routed", routed},
	}
	const nrhs = 8
	for _, ec := range engines {
		X := make([]float64, len(x)*nrhs)
		Y := make([]float64, len(y)*nrhs)
		copy(X, x)
		for _, kern := range KernelNames() {
			t.Run(ec.name+"/"+kern, func(t *testing.T) {
				if _, err := ec.eng.Autotune(TuneConfig{Force: kern}); err != nil {
					t.Fatal(err)
				}
				// Warm every surface: block buffers size on first use, the
				// transpose plan compiles lazily, and sorted layouts derive on
				// install.
				ec.eng.Multiply(x, y)
				ec.eng.MultiplyBlock(X, Y, nrhs)
				ec.eng.MultiplyTranspose(y, x)
				ec.eng.MultiplyTransposeBlock(Y, X, nrhs)
				checks := []struct {
					label string
					f     func()
				}{
					{"Multiply", func() { ec.eng.Multiply(x, y) }},
					{"MultiplyBlock", func() { ec.eng.MultiplyBlock(X, Y, nrhs) }},
					{"MultiplyTranspose", func() { ec.eng.MultiplyTranspose(y, x) }},
					{"MultiplyTransposeBlock", func() { ec.eng.MultiplyTransposeBlock(Y, X, nrhs) }},
				}
				for _, c := range checks {
					if n := testing.AllocsPerRun(50, c.f); n != 0 {
						t.Errorf("%s allocates %v times per call under %s, want 0", c.label, n, kern)
					}
				}
			})
		}
	}
}

// TestKernelBackendsOverwriteDirtyOutput pins the overwrite contract
// for every backend: y is output-only, so garbage (including NaN, which
// would propagate through any accidental accumulation) must not leak
// into the result.
func TestKernelBackendsOverwriteDirtyOutput(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	a := randomMatrix(r, 120, 90, 1100)
	opt := method.Options{Seed: 3, Pipeline: method.NewPipeline()}
	const nrhs = 4
	maxW := kernelWidths[len(kernelWidths)-1]
	X := randomVector(r, a.Cols*maxW)
	XT := randomVector(r, a.Rows*maxW)
	for _, name := range []string{"s2D", "2D", "s2D-b"} {
		b, err := method.BuildByName(name, a, 4, opt)
		if err != nil {
			t.Fatal(err)
		}
		eng, err := New(b)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(eng.Close)
		ref := runKernelSurfaces(t, eng, "scalar", a, X, XT)
		dirty := func(n int) []float64 {
			out := make([]float64, n)
			for i := range out {
				out[i] = math.NaN()
			}
			return out
		}
		for _, kern := range KernelNames() {
			var tol uint64
			if kern == "relaxed" {
				tol = relaxedUlpTol
			}
			if _, err := eng.Autotune(TuneConfig{Force: kern}); err != nil {
				t.Fatal(err)
			}
			y := dirty(a.Rows)
			if err := eng.Multiply(X[:a.Cols], y); err != nil {
				t.Fatal(err)
			}
			compareVec(t, name+"/"+kern+" dirty Multiply", y, ref.fwd, tol)
			yb := dirty(a.Rows * nrhs)
			if err := eng.MultiplyBlock(X[:a.Cols*nrhs], yb, nrhs); err != nil {
				t.Fatal(err)
			}
			compareVec(t, name+"/"+kern+" dirty MultiplyBlock", yb, ref.blk[nrhs], tol)
			yt := dirty(a.Cols)
			if err := eng.MultiplyTranspose(XT[:a.Rows], yt); err != nil {
				t.Fatal(err)
			}
			compareVec(t, name+"/"+kern+" dirty MultiplyTranspose", yt, ref.fwdT, tol)
			ytb := dirty(a.Cols * nrhs)
			if err := eng.MultiplyTransposeBlock(XT[:a.Rows*nrhs], ytb, nrhs); err != nil {
				t.Fatal(err)
			}
			compareVec(t, name+"/"+kern+" dirty MultiplyTransposeBlock", ytb, ref.blkT[nrhs], tol)
		}
	}
}

// TestSortedByWorkInvariants checks the sorted-slot recompilation
// directly: descending work, a permutation of the original slots, and
// verbatim per-slot runs.
func TestSortedByWorkInvariants(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	nzs := make([]localNZ, 0, 600)
	for i := 0; i < 600; i++ {
		nz := localNZ{row: r.Intn(80), src: r.Intn(120), val: r.NormFloat64()}
		if r.Intn(4) == 0 {
			nz.src = -1 - r.Intn(40) // external slot
		}
		nzs = append(nzs, nz)
	}
	flat := compileRows(nzs)
	s := sortedByWork(&flat)
	if len(s.rows) != len(flat.rows) {
		t.Fatalf("slot count changed: %d vs %d", len(s.rows), len(flat.rows))
	}
	work := func(k *rowKernel, t int) int {
		return (k.locPtr[t+1] - k.locPtr[t]) + (k.extPtr[t+1] - k.extPtr[t])
	}
	seen := make(map[int]int, len(flat.rows))
	for i, row := range flat.rows {
		seen[row] = i
	}
	prev := int(^uint(0) >> 1)
	for st := range s.rows {
		w := work(&s, st)
		if w > prev {
			t.Fatalf("slot %d work %d exceeds previous %d (must descend)", st, w, prev)
		}
		prev = w
		ft, ok := seen[s.rows[st]]
		if !ok {
			t.Fatalf("sorted slot %d row %d not in original kernel", st, s.rows[st])
		}
		if w != work(&flat, ft) {
			t.Fatalf("row %d work changed: %d vs %d", s.rows[st], w, work(&flat, ft))
		}
		for i := 0; i < w-(s.extPtr[st+1]-s.extPtr[st]); i++ {
			if s.locSrc[s.locPtr[st]+i] != flat.locSrc[flat.locPtr[ft]+i] ||
				s.locVal[s.locPtr[st]+i] != flat.locVal[flat.locPtr[ft]+i] {
				t.Fatalf("row %d local run not copied verbatim", s.rows[st])
			}
		}
	}
}
