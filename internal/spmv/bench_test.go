package spmv

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/baselines"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/method"
	"repro/internal/sparse"
)

func benchMatrix() *sparse.CSR {
	return gen.PowerLaw(gen.PowerLawConfig{
		Rows: 20000, Cols: 20000, NNZ: 200000, Beta: 0.5,
		DenseRows: 2, DenseMax: 1500, Symmetric: true, Locality: 0.9,
	}, 1)
}

func benchSetup(b *testing.B, k int) (eng *Engine, routed *RoutedEngine, x, y []float64) {
	b.Helper()
	a := benchMatrix()
	opt := baselines.Options{Seed: 1}
	rows := baselines.RowwiseParts(a, k, opt)
	oneD := baselines.Rowwise1DFromParts(a, rows, k)
	d := core.Balanced(a, oneD.XPart, oneD.YPart, k, core.BalanceConfig{})
	var err error
	eng, err = NewEngine(d)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(eng.Close)
	routed, err = NewRoutedEngine(d, core.NewMesh(k))
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(routed.Close)
	r := rand.New(rand.NewSource(2))
	x = make([]float64, a.Cols)
	for i := range x {
		x[i] = r.Float64()
	}
	y = make([]float64, a.Rows)
	return eng, routed, x, y
}

func benchTwoPhaseSetup(b *testing.B, k int) (eng *Engine, x, y []float64) {
	b.Helper()
	a := benchMatrix()
	d := baselines.FineGrain2D(a, k, baselines.Options{Seed: 1})
	eng, err := NewEngine(d)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(eng.Close)
	x = make([]float64, a.Cols)
	y = make([]float64, a.Rows)
	for i := range x {
		x[i] = float64(i % 7)
	}
	return eng, x, y
}

func BenchmarkEngineFusedK16(b *testing.B) {
	eng, _, x, y := benchSetup(b, 16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.Multiply(x, y)
	}
}

func BenchmarkEngineFusedK64(b *testing.B) {
	eng, _, x, y := benchSetup(b, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.Multiply(x, y)
	}
}

func BenchmarkEngineRoutedK64(b *testing.B) {
	_, routed, x, y := benchSetup(b, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		routed.Multiply(x, y)
	}
}

func BenchmarkEngineTwoPhaseK64(b *testing.B) {
	eng, x, y := benchTwoPhaseSetup(b, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.Multiply(x, y)
	}
}

// BenchmarkMultiplyBlock compares one nrhs-wide block multiply against
// nrhs sequential single multiplies for every schedule: the block path
// sends one packet per peer per phase regardless of nrhs and streams each
// matrix value once per nrhs columns, so per-column cost should drop well
// below the sequential baseline (the PR acceptance bar is ≥2× at nrhs=8).
func BenchmarkMultiplyBlock(b *testing.B) {
	const k = 16
	for _, nrhs := range []int{1, 4, 8, 16} {
		fused, routed, x, _ := benchSetup(b, k)
		twoPhase, _, _ := benchTwoPhaseSetup(b, k)
		a := fused.d.A
		X := make([]float64, a.Cols*nrhs)
		Y := make([]float64, a.Rows*nrhs)
		for i := range X {
			X[i] = x[i/nrhs]
		}
		for name, eng := range map[string]interface {
			Multiply(x, y []float64) error
			MultiplyBlock(X, Y []float64, nrhs int) error
		}{"fused": fused, "twophase": twoPhase, "routed": routed} {
			b.Run(fmt.Sprintf("%s/block/nrhs=%d", name, nrhs), func(b *testing.B) {
				eng.MultiplyBlock(X, Y, nrhs)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					eng.MultiplyBlock(X, Y, nrhs)
				}
			})
			b.Run(fmt.Sprintf("%s/seq/nrhs=%d", name, nrhs), func(b *testing.B) {
				y := Y[:a.Rows]
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					for c := 0; c < nrhs; c++ {
						eng.Multiply(x, y)
					}
				}
			})
		}
	}
}

// BenchmarkCompileRows times plan compilation's slot lookup. The
// row→slot resolution used to go through a map[int]int built per group;
// the binary search over the sorted, deduplicated row list replaced it
// (see compileRows), cutting build time and the transient allocation.
func BenchmarkCompileRows(b *testing.B) {
	r := rand.New(rand.NewSource(9))
	// Power-law-ish row popularity: many nonzeros concentrated on few
	// rows, the regime the suite's matrices put compileRows in.
	const nnz = 100000
	nzs := make([]localNZ, nnz)
	for i := range nzs {
		row := int(20000 * r.Float64() * r.Float64())
		src := r.Intn(20000)
		if r.Intn(4) == 0 {
			src = -1 - r.Intn(5000)
		}
		nzs[i] = localNZ{row: row, src: src, val: r.NormFloat64()}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		compileRows(nzs)
	}
}

// BenchmarkMultiplySteadyState is the perf-trajectory benchmark tracked
// across PRs: every schedule at K ∈ {4,16,64}, steady-state (engines built
// outside the timed loop). All variants must report 0 allocs/op.
func BenchmarkMultiplySteadyState(b *testing.B) {
	for _, k := range []int{4, 16, 64} {
		b.Run(fmt.Sprintf("fused/K=%d", k), func(b *testing.B) {
			eng, _, x, y := benchSetup(b, k)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				eng.Multiply(x, y)
			}
		})
		b.Run(fmt.Sprintf("twophase/K=%d", k), func(b *testing.B) {
			eng, x, y := benchTwoPhaseSetup(b, k)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				eng.Multiply(x, y)
			}
		})
		b.Run(fmt.Sprintf("routed/K=%d", k), func(b *testing.B) {
			_, routed, x, y := benchSetup(b, k)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				routed.Multiply(x, y)
			}
		})
	}
}

// BenchmarkMultiplyTransposeSteadyState tracks the transpose kernels
// across PRs next to BenchmarkMultiplySteadyState: same schedules, same
// matrix, y ← Aᵀx via the reversed plan. All variants must report
// 0 allocs/op (the transpose plan compiles outside the timed loop).
func BenchmarkMultiplyTransposeSteadyState(b *testing.B) {
	for _, k := range []int{4, 16, 64} {
		b.Run(fmt.Sprintf("fused/K=%d", k), func(b *testing.B) {
			eng, _, x, y := benchSetup(b, k)
			eng.MultiplyTranspose(x, y) // square matrix: buffers serve both
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				eng.MultiplyTranspose(x, y)
			}
		})
		b.Run(fmt.Sprintf("twophase/K=%d", k), func(b *testing.B) {
			eng, x, y := benchTwoPhaseSetup(b, k)
			eng.MultiplyTranspose(x, y)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				eng.MultiplyTranspose(x, y)
			}
		})
		b.Run(fmt.Sprintf("routed/K=%d", k), func(b *testing.B) {
			_, routed, x, y := benchSetup(b, k)
			routed.MultiplyTranspose(x, y)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				routed.MultiplyTranspose(x, y)
			}
		})
	}
}

// powerLawMatrix is the benchmark module's power-law family at n rows
// (10 nonzeros per row, two planted dense rows, generator seed 1): 160 000
// rows is its pl160k matrix, 1 280 its cache-resident smoke matrix.
func powerLawMatrix(n int) *sparse.CSR {
	return gen.PowerLaw(gen.PowerLawConfig{
		Rows: n, Cols: n, NNZ: 10 * n, Beta: 0.5,
		DenseRows: 2, DenseMax: n / 16, Symmetric: true, Locality: 0.9,
	}, 1)
}

// BenchmarkOwnKernelVsCSR tracks what the plan's layout costs against
// plain CSR: the own compute kernels of a K=2 s2D plan over the 160k-row
// power-law matrix (the benchmark's pl160k workloads), walked one after
// the other on one goroutine, against sparse.MulVec on the same matrix.
// The kernels cover every nonzero with a local output row — all but the
// precompute set — so the two sub-benchmarks do the same arithmetic to
// within that set; their ratio is the number to watch.
func BenchmarkOwnKernelVsCSR(b *testing.B) {
	a := powerLawMatrix(160000)
	build, err := method.BuildByName("s2d", a, 2, method.Options{Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	eng, err := NewEngine(build.Dist)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(eng.Close)
	x := make([]float64, a.Cols)
	for i := range x {
		x[i] = float64(i%7) - 3
	}
	y := make([]float64, a.Rows)
	eng.Multiply(x, y) // leaves every extX as a multiply would
	b.Run("own", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, pr := range eng.procs {
				pr.fwd.own.addInto(y, x, pr.fwd.extX)
			}
		}
	})
	b.Run("csr", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			a.MulVec(x, y)
		}
	})
}
