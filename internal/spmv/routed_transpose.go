package spmv

// This file adds y ← Aᵀx to the routed two-hop engine by reversing the
// compiled forward route edge for edge: the transpose's hop 1 is the
// reverse of the forward hop 2, its hop 2 the reverse of the forward
// hop 1, and every intermediate keeps its combining role with the
// payload directions swapped. An x entry that fanned out through an
// intermediate to several consumers becomes several partial sums
// combining at that intermediate on the way back to the owner, and a
// partial-sum tree becomes an x broadcast tree — so message counts,
// index sets, and payload sizes all match the forward plan's.
//
// The dense routing buffers swap roles too: routeYVal's row-space
// layout carries the transpose's routed x values, routeXVal's
// column-space layout carries the transpose's combined partials. The
// transpose plan is therefore a second rplan over the same buffers, run
// by the same steps (RoutedEngine.step), and most of it is the forward
// plan's slot arrays read the other way round: no extra storage.

// ensureTranspose compiles the routed transpose plan once, with every
// executor idle.
func (e *RoutedEngine) ensureTranspose() {
	if e.tready {
		return
	}
	mesh := e.mesh
	// extSlot[p] maps a remote x row of p — the rows p computed fold
	// partials for in the forward plan — to a slot of its extX.
	extSlot := make([]map[int]int, len(e.rprocs))
	for _, pr := range e.rprocs {
		extSlot[pr.id] = transposeExtSlots(pr.preGroups)
	}

	for _, pr := range e.rprocs {
		t := &rplan{extX: make([]float64, len(extSlot[pr.id]))}
		pr.t = t

		// Split this proc's nonzeros into the transpose frame (kernel "rows"
		// are global column indices). Per output column they arrive by
		// ascending row from the compiled forward kernel, as they did from
		// the build-time list.
		var own, selfNZ []localNZ
		t1Pre := make(map[int][]localNZ)
		pr.fwd.own.each(func(nz localNZ) {
			if nz.src >= 0 {
				own = append(own, localNZ{row: nz.src, src: nz.row, val: nz.val})
				return
			}
			// External column: the partial retraces the column's forward
			// delivery path — via the intermediate that shipped it here, or
			// straight into the column buffer when this proc was its own
			// intermediate.
			j := pr.extIdx[-(nz.src + 1)]
			mid := mesh.PartAt(mesh.RowOf(pr.id), mesh.ColOf(e.d.XPart[j]))
			tnz := localNZ{row: j, src: nz.row, val: nz.val}
			if mid == pr.id {
				selfNZ = append(selfNZ, tnz)
			} else {
				t1Pre[mid] = append(t1Pre[mid], tnz)
			}
		})
		for _, dst := range sortedKeys(pr.preGroups) {
			for _, nz := range pr.preGroups[dst] {
				own = append(own, localNZ{row: nz.src, src: -(extSlot[pr.id][nz.row] + 1), val: nz.val})
			}
		}
		t.own = compileRows(own)
		// selfK: partials for external columns their owners delivered here
		// directly (the forward toExt path), into the column buffer.
		t.selfK = compileRows(selfNZ)
		for i, j := range t.selfK.rows {
			t.selfK.rows[i] = pr.xSlot[j]
		}
		// The rows this proc owns and routes as its own intermediate seed
		// the row buffer; the columns it owns whose combined partials sit in
		// the column buffer (their consumers reached them via this proc
		// itself) fold locally.
		t.seedX, t.localY = pr.fwd.localY, pr.fwd.seedX

		// Hop-1 packets reverse the forward hop-2 packets into pr: one to
		// each of their senders, pairing the x rows pr owns (which that
		// sender combined for it, in the forward packet's order) with the
		// partials for the columns that sender delivered.
		grps := make([]rowKernel, len(pr.fwd.recv2))
		words := 0
		for i, l := range pr.fwd.recv2 {
			grps[i] = compileRows(t1Pre[l.peer])
			words += len(l.yTo) + len(grps[i].rows)
		}
		arena := newValArena(words)
		for i, l := range pr.fwd.recv2 {
			t.hop1 = append(t.hop1, newSendPlan(l.peer, l.yTo, grps[i], arena))
		}

		// Rows consumed here that route through this proc itself.
		for _, dst := range sortedKeys(pr.preGroups) {
			if mesh.PartAt(mesh.RowOf(dst), mesh.ColOf(pr.id)) != pr.id {
				continue
			}
			for _, i := range compiledGroupRows(pr.preGroups[dst]) {
				t.toExt = append(t.toExt, slotIdx{slot: pr.ySlot[i], idx: extSlot[pr.id][i]})
			}
		}

		// Hop-2 forwards reverse the forward hop-1 packets into pr: one to
		// each of their senders, x rows gathered from the row buffer (where
		// the forward link combined that sender's partials) and combined
		// partials from the column buffer (where it routed that sender's x).
		words = 0
		for _, l := range pr.fwd.recv1 {
			words += len(l.yTo) + len(l.xTo)
		}
		arena = newValArena(words)
		for _, l := range pr.fwd.recv1 {
			fp := &fwdPlan{dest: l.peer, xSlot: l.yTo, ySlot: l.xTo, rows: e.rprocs[l.peer].hop1X[pr.id]}
			fp.xVal, fp.yVal = arena.take(len(l.yTo)), arena.take(len(l.xTo))
			t.hop2 = append(t.hop2, fp)
		}
	}

	// Static receive lists, sender-ordered as in compile.
	for _, s := range e.rprocs {
		for _, sp := range s.t.hop1 {
			// The receiver's own forward hop-2 plan to s places the packet:
			// x rows overwrite the row buffer where that plan read partials,
			// partials combine in the column buffer where it read x.
			pr := e.rprocs[sp.dest]
			for _, fp := range pr.fwd.hop2 {
				if fp.dest == s.id {
					pr.t.recv1 = append(pr.t.recv1, recvLink{peer: s.id, from: &sp.payload, xTo: fp.ySlot, yTo: fp.xSlot})
				}
			}
		}
		for _, fp := range s.t.hop2 {
			// The receiver's forward hop-1 packet to s names what comes back:
			// x rows for the rows of its partials, partials for its x entries.
			pr := e.rprocs[fp.dest]
			for _, sp := range pr.fwd.hop1 {
				if sp.dest != s.id {
					continue
				}
				xTo := make([]int, len(sp.grp.rows))
				for i, r := range sp.grp.rows {
					xTo[i] = extSlot[pr.id][r]
				}
				pr.t.recv2 = append(pr.t.recv2, recvLink{peer: s.id, from: &fp.payload, xTo: xTo, yTo: sp.xIdx})
			}
		}
	}
	e.tready = true
	if e.sel.anySorted() {
		// A sorted-layout backend was installed before the transpose plan
		// existed; derive its sorted own kernels now.
		e.ensureSorted()
	}
}

// MultiplyTranspose computes y ← Aᵀx with the reversed two-hop
// schedule; see Engine.MultiplyTranspose for the contract.
func (e *RoutedEngine) MultiplyTranspose(x, y []float64) error {
	checkDims(x, y, e.d.A.Rows, e.d.A.Cols)
	return e.dispatch(x, y, 0, true)
}

// MultiplyTransposeBlock computes Y ← AᵀX for nrhs right-hand sides
// with the reversed two-hop schedule; see Engine.MultiplyTransposeBlock.
func (e *RoutedEngine) MultiplyTransposeBlock(X, Y []float64, nrhs int) error {
	checkBlockDims(X, Y, nrhs, e.d.A.Rows, e.d.A.Cols)
	return e.dispatch(X, Y, nrhs, true)
}

// MultiplyTransposeMulti computes Y[c] ← Aᵀ·X[c] for every column c in
// one routed block transpose multiply; see Engine.MultiplyMulti.
func (e *RoutedEngine) MultiplyTransposeMulti(X, Y [][]float64) error {
	return e.io.multi(X, Y, e.d.A.Rows, e.d.A.Cols, e.MultiplyTransposeBlock)
}
