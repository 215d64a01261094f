package spmv

// This file adds the transpose execution path y ← Aᵀx on top of the
// compiled plans. The paper's constructions treat the row and column
// spaces symmetrically, so a distribution built for y ← Ax already
// contains the transpose's communication schedule: the fold messages
// reversed become the transpose's expand, the expand messages reversed
// become its fold. Concretely, for every forward packet k→ℓ there is
// exactly one transpose packet ℓ→k whose x payload covers the rows of
// the forward packet's y partials and whose y partials cover the
// forward packet's x entries — message counts, index sets, and payload
// sizes all match the forward plan's.
//
// In the transpose frame, x is indexed by rows (length Rows, owned by
// YPart) and y by columns (length Cols, owned by XPart). Each
// processor's transpose plan is a second vplan, compiled lazily on the
// first MultiplyTranspose from the forward schedule the engine retains;
// it runs through the same steps (Engine.step) and thereafter executes
// with zero steady-state heap allocations, exactly like the forward
// plan.

// invertSlots turns an index→slot map into its slot→index array.
func invertSlots(m map[int]int) []int {
	out := make([]int, len(m))
	for idx, slot := range m { //spmvlint:unordered slot map is a bijection; each key writes its own slot
		out[slot] = idx
	}
	return out
}

// transposeExtSlots assigns a slot to every remote x row of a processor
// — the rows it has nonzeros in but does not own, exactly the rows its
// forward plan computed fold partials for; the dual of the forward
// plan's slots over columns. The order is deterministic (destinations
// ascending, rows ascending), so rebuilt engines produce bit-identical
// transposes.
func transposeExtSlots(preGroups map[int][]localNZ) map[int]int {
	slots := make(map[int]int)
	for _, dst := range sortedKeys(preGroups) {
		for _, i := range compiledGroupRows(preGroups[dst]) {
			if _, ok := slots[i]; !ok {
				slots[i] = len(slots)
			}
		}
	}
	return slots
}

// ensureTranspose compiles the transpose plan once. It runs with every
// executor idle (Multiply calls never overlap), so no locking is needed
// beyond the engine's existing single-caller contract.
//
// The transpose packet pr→k pairs the x rows k needs (the rows of k's
// forward partials for pr) with pr's partials for the columns k owns
// (the columns k shipped to pr). Fused, both ride one phase-0 packet:
// under s2D every partial's source row is local, so partials fill before
// any receive and the transpose is single-phase too. Otherwise the x
// rows travel in phase 0 (reverse of the forward fold) and the column
// partials, which read extX, in phase 1 (reverse of the forward expand)
// — mirroring the forward order.
func (e *Engine) ensureTranspose() {
	if e.tready {
		return
	}
	extSlot := make([]map[int]int, len(e.procs))
	for _, pr := range e.procs {
		extSlot[pr.id] = transposeExtSlots(pr.preGroups)
	}
	for _, pr := range e.procs {
		own, pre := e.transposeKernels(pr, extSlot[pr.id])
		// x rows pr owes every processor that shipped it fold partials.
		xOut := make(map[int][]int)
		for _, other := range e.procs {
			if rows := compiledGroupRows(other.preGroups[pr.id]); len(rows) > 0 {
				xOut[other.id] = rows
			}
		}
		pr.t = &vplan{
			extX:  make([]float64, len(extSlot[pr.id])),
			own:   compileRows(own),
			sends: compileSends(e.fused, xOut, pre),
		}
	}
	linkRecvs(e.procs, true, extSlot)
	e.tready = true
	if e.sel.anySorted() {
		// A sorted-layout backend was installed before the transpose plan
		// existed; derive its sorted own kernels now.
		e.ensureSorted()
	}
}

// transposeKernels splits one processor's nonzeros into the transpose
// compute kernel (locally-owned output columns) and the per-owner
// partial groups (remote output columns), in the transpose frame:
// kernel "row" = global column, source = global row or -(extSlot+1).
// Per output column the nonzeros arrive by ascending row from the
// compiled forward kernel, exactly as they did from the build-time
// list, so the floating-point sums are unchanged.
func (e *Engine) transposeKernels(pr *proc, extSlot map[int]int) (own []localNZ, pre map[int][]localNZ) {
	d := e.d
	pre = make(map[int][]localNZ)
	add := func(nz localNZ) {
		src := nz.row
		if d.YPart[nz.row] != pr.id {
			src = -(extSlot[nz.row] + 1)
		}
		j := nz.src
		if j < 0 {
			j = pr.extIdx[-(nz.src + 1)]
		}
		tnz := localNZ{row: j, src: src, val: nz.val}
		if d.XPart[j] == pr.id {
			own = append(own, tnz)
		} else {
			pre[d.XPart[j]] = append(pre[d.XPart[j]], tnz)
		}
	}
	pr.fwd.own.each(add)
	// Sorted destination order keeps the kernels' nonzero order — and so
	// the floating-point sums — identical across rebuilt engines.
	for _, dst := range sortedKeys(pr.preGroups) {
		for _, nz := range pr.preGroups[dst] {
			add(nz)
		}
	}
	return own, pre
}

// MultiplyTranspose computes y ← Aᵀx in parallel: x has the matrix's
// row dimension, y its column dimension, and y is fully overwritten.
// The first call compiles the transpose plan from the engine's retained
// schedule (reusing the forward plan's packet structure with the phases
// reversed); steady-state calls spawn no goroutines and allocate
// nothing. Like Multiply, calls must not overlap on one engine.
func (e *Engine) MultiplyTranspose(x, y []float64) error {
	checkDims(x, y, e.d.A.Rows, e.d.A.Cols)
	return e.dispatch(x, y, 0, true)
}

// MultiplyTransposeBlock computes Y ← AᵀX for nrhs right-hand sides in
// the column-blocked layout (X[i*nrhs+c] is x_i of column c). It reuses
// the transpose plan with nrhs-wide payloads: one packet per peer per
// phase regardless of nrhs, zero steady-state allocations once sized,
// and nrhs=1 bit-identical to MultiplyTranspose.
func (e *Engine) MultiplyTransposeBlock(X, Y []float64, nrhs int) error {
	checkBlockDims(X, Y, nrhs, e.d.A.Rows, e.d.A.Cols)
	return e.dispatch(X, Y, nrhs, true)
}

// MultiplyTransposeMulti computes Y[c] ← Aᵀ·X[c] for every column c in
// one block transpose multiply; see Engine.MultiplyMulti.
func (e *Engine) MultiplyTransposeMulti(X, Y [][]float64) error {
	return e.io.multi(X, Y, e.d.A.Rows, e.d.A.Cols, e.MultiplyTransposeBlock)
}
