package spmv

// This file adds the multi-RHS (SpMM) execution path on top of the
// compiled plans: Y ← AX for nrhs right-hand sides at once. The static
// schedule is untouched — every packet keeps its fixed destination and
// index arrays, so a block multiply sends exactly the same number of
// messages as a single multiply and only the value payloads widen to
// nrhs words per index. Vectors use the column-blocked (SoA row-major)
// layout: column c's entry for row i lives at X[i*nrhs+c], which keeps
// every kernel's inner loop a unit-stride run over the nrhs columns.
//
// Block buffers are carved lazily on the first MultiplyBlock at a given
// width and cached at the maximum width seen, so steady-state block
// multiplies — like single ones — perform zero heap allocations.

// blockIO holds the pack/unpack scratch MultiplyMulti uses to adapt
// slice-of-vectors callers to the column-blocked layout.
type blockIO struct {
	xb, yb []float64
}

// pack interleaves X (nrhs vectors of length n) into the column-blocked
// scratch and returns it.
func (io *blockIO) pack(X [][]float64, n int) []float64 {
	nrhs := len(X)
	io.xb = growBlock(io.xb, n*nrhs)
	for c, xc := range X {
		if len(xc) != n {
			panic("spmv: dimension mismatch")
		}
		for i, v := range xc {
			io.xb[i*nrhs+c] = v
		}
	}
	return io.xb
}

// unpack de-interleaves the column-blocked result into Y.
func (io *blockIO) unpack(Y [][]float64, n int) {
	nrhs := len(Y)
	for c, yc := range Y {
		if len(yc) != n {
			panic("spmv: dimension mismatch")
		}
		for i := range yc {
			yc[i] = io.yb[i*nrhs+c]
		}
	}
}

// multi runs one slice-of-vectors multiply through the column-blocked
// path: pack X into scratch, mulBlock, unpack into Y. Shared by both
// engines' MultiplyMulti.
func (io *blockIO) multi(X, Y [][]float64, cols, rows int, mulBlock func(X, Y []float64, nrhs int) error) error {
	nrhs := len(X)
	if nrhs == 0 || len(Y) != nrhs {
		panic("spmv: dimension mismatch")
	}
	xb := io.pack(X, cols)
	io.yb = growBlock(io.yb, rows*nrhs)
	if err := mulBlock(xb, io.yb, nrhs); err != nil {
		return err
	}
	io.unpack(Y, rows)
	return nil
}

// checkDims panics unless x and y have the given lengths.
func checkDims(x, y []float64, nx, ny int) {
	if len(x) != nx || len(y) != ny {
		panic("spmv: dimension mismatch")
	}
}

// checkBlockDims panics unless X and Y are column-blocked for nrhs
// right-hand sides over a cols×rows operator.
func checkBlockDims(X, Y []float64, nrhs, cols, rows int) {
	if nrhs < 1 {
		panic("spmv: nrhs must be >= 1")
	}
	checkDims(X, Y, cols*nrhs, rows*nrhs)
}

// addBlock accumulates src into dst (both nrhs wide).
func addBlock(dst, src []float64) {
	for c := range dst {
		dst[c] += src[c]
	}
}

// ---- Engine ----

// ensureBlock (re)sizes one direction's per-processor block buffers for
// width nrhs. Called with every executor idle, before the multiply;
// growth allocates, repeat calls at or below the cached capacity only
// re-slice.
func (e *Engine) ensureBlock(nrhs int, transpose bool) {
	dir := 0
	if transpose {
		dir = 1
	}
	if nrhs == e.blockNRHS[dir] {
		return
	}
	for _, pr := range e.procs {
		pl := pr.plan(transpose)
		pl.extXB = growBlock(pl.extXB, len(pl.extX)*nrhs)
		for _, sends := range pl.sends {
			for _, sp := range sends {
				sp.ensureBlock(nrhs)
			}
		}
	}
	e.blockNRHS[dir] = nrhs
}

// MultiplyBlock computes Y ← AX for nrhs right-hand sides in the
// column-blocked layout (X[j*nrhs+c] is x_j of column c). It reuses the
// engine's compiled plan with nrhs-wide payloads: one packet per peer per
// phase regardless of nrhs, and zero steady-state heap allocations once
// the block buffers are sized for the width. nrhs=1 is bit-identical to
// Multiply. Like Multiply, calls must not overlap on one engine.
func (e *Engine) MultiplyBlock(X, Y []float64, nrhs int) error {
	checkBlockDims(X, Y, nrhs, e.d.A.Cols, e.d.A.Rows)
	return e.dispatch(X, Y, nrhs, false)
}

// MultiplyMulti computes Y[c] ← A·X[c] for every column c in one block
// multiply. X and Y are nrhs vectors of the matrix's dimensions; the
// engine packs them into its column-blocked scratch, runs MultiplyBlock,
// and unpacks — zero steady-state allocations at a fixed nrhs.
func (e *Engine) MultiplyMulti(X, Y [][]float64) error {
	return e.io.multi(X, Y, e.d.A.Cols, e.d.A.Rows, e.MultiplyBlock)
}

// ---- RoutedEngine ----

// ensureBlock mirrors Engine.ensureBlock for the routed plans. The dense
// routing buffers are shared by both directions, so sizing one direction
// invalidates the other's width: its next block call re-slices them
// back.
func (e *RoutedEngine) ensureBlock(nrhs int, transpose bool) {
	dir := 0
	if transpose {
		dir = 1
	}
	if nrhs == e.blockNRHS[dir] {
		return
	}
	for _, pr := range e.rprocs {
		pl := pr.plan(transpose)
		pl.extXB = growBlock(pl.extXB, len(pl.extX)*nrhs)
		pr.routeXValB = growBlock(pr.routeXValB, len(pr.routeXVal)*nrhs)
		pr.routeYValB = growBlock(pr.routeYValB, len(pr.routeYVal)*nrhs)
		for _, sp := range pl.hop1 {
			sp.ensureBlock(nrhs)
		}
		for _, fp := range pl.hop2 {
			fp.ensureBlock(nrhs)
		}
	}
	e.blockNRHS[dir], e.blockNRHS[1-dir] = nrhs, 0
}

// MultiplyBlock computes Y ← AX for nrhs right-hand sides with the routed
// two-hop schedule; see Engine.MultiplyBlock for the layout and the
// allocation contract.
func (e *RoutedEngine) MultiplyBlock(X, Y []float64, nrhs int) error {
	checkBlockDims(X, Y, nrhs, e.d.A.Cols, e.d.A.Rows)
	return e.dispatch(X, Y, nrhs, false)
}

// MultiplyMulti computes Y[c] ← A·X[c] for every column c in one routed
// block multiply; see Engine.MultiplyMulti.
func (e *RoutedEngine) MultiplyMulti(X, Y [][]float64) error {
	return e.io.multi(X, Y, e.d.A.Cols, e.d.A.Rows, e.MultiplyBlock)
}
