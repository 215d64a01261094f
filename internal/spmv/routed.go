package spmv

import (
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/distrib"
)

// RoutedEngine executes the s2D-b schedule (§VI-B1): the fused [x̂,ŷ]
// packet from P_k to P_ℓ travels via the mesh intermediate at
// (RowOf(ℓ), ColOf(k)). Phase 1 moves packets within mesh columns, phase 2
// within mesh rows. Intermediates combine payloads: an x entry needed by
// several parts in one mesh row ships to that row once, and partial y
// results for the same output entry are summed before forwarding. Each
// processor therefore contacts fewer than P_r + P_c peers in total.
//
// Like Engine, the routed engine compiles its static schedule into a flat
// plan at construction — dense routing buffers with fixed slot layouts and
// precompiled forward packets — and executes it as three steps around two
// barriers on the shared phase runner (exec.go), so steady-state Multiply
// is allocation- and goroutine-spawn-free.
type RoutedEngine struct {
	d    *distrib.Distribution
	mesh core.Mesh

	rprocs []*rproc
	run    runner

	// Per-width-class kernel backend selection and the lazily derived
	// sorted layouts (see kernel.go, autotune.go). The zero value runs
	// the scalar reference kernels everywhere.
	kernelState

	// blockNRHS[dir] is the width direction dir's block buffers are
	// currently sliced for (0 until its first block multiply); see
	// ensureBlock in block.go.
	blockNRHS [2]int
	io        blockIO

	// tready flips once the transpose plan is compiled (lazily, by the
	// first MultiplyTranspose). See routed_transpose.go.
	tready bool
}

type rproc struct {
	id int

	preGroups map[int][]localNZ // x-local nonzeros grouped by final y owner

	// Phase-1 x payloads: hop1X[mid] lists locally-owned x indices routed
	// via mid. Phase-2 forwarding schedule at an intermediate:
	// hop2X[dest] lists x indices to forward to dest.
	hop1X map[int][]int
	hop2X map[int][]int

	// Static sender sets per phase (destinations this proc will message).
	phase1Dests map[int]struct{}
	phase2Dests map[int]struct{}

	// extIdx[s] is the remote x index held in slot s of the forward
	// plan's extX.
	extIdx []int

	// The routing state is laid out densely: every x index this proc ever
	// routes and every y row it ever combines has a fixed slot (xSlot,
	// ySlot — retained so the transpose plan can address the buffers).
	// Both directions share the buffers with their roles swapped — calls
	// on one engine never overlap, so no copy is live across both — and
	// their nrhs-wide twins, sized lazily by RoutedEngine.ensureBlock.
	routeXVal, routeXValB []float64
	routeYVal, routeYValB []float64
	xSlot, ySlot          map[int]int

	fwd rplan
	// t is the compiled transpose plan (y ← Aᵀx), built lazily on the
	// first MultiplyTranspose; see routed_transpose.go.
	t *rplan
}

// plan returns the processor's compiled plan for one direction.
func (pr *rproc) plan(transpose bool) *rplan {
	if transpose {
		return pr.t
	}
	return &pr.fwd
}

// rplan is one virtual processor's compiled two-hop plan for one
// direction. rx names the routing buffer that carries routed x values
// (written once per slot), ry the one that combines partial results
// (zeroed, then accumulated): routeXVal and routeYVal forward, swapped
// in the transpose.
type rplan struct {
	extX []float64
	// own computes the locally-owned outputs; ownS is its sorted-slot
	// twin, derived lazily once a sorted-layout backend is installed.
	own, ownS rowKernel

	// seedX loads rx with the locally-owned x entries this proc routes as
	// its own intermediate (never shipped in hop 1); selfK accumulates the
	// self-routed partials into ry (its rows are ry slots, it reads local
	// x only).
	seedX []slotIdx
	selfK rowKernel
	// hop1 are the packets to other intermediates, sorted by destination;
	// recv1 banks the incoming ones into rx and ry.
	hop1  []*sendPlan
	recv1 []recvLink
	// toExt copies the routed x values this proc itself consumes out of
	// rx into extX once hop 1 has landed.
	toExt []slotIdx
	// hop2 are the forwards to final destinations, sorted by destination,
	// gathered from rx and ry; localY folds the combined partials this
	// proc owns straight out of ry; recv2 banks the incoming forwards
	// into extX and y.
	hop2   []*fwdPlan
	localY []slotIdx
	recv2  []recvLink

	// extXB is the block (multi-RHS) twin of extX, sized lazily by
	// ensureBlock.
	extXB []float64
}

// slotIdx pairs a routing-buffer slot with an index of a vector (x, y or
// extX).
type slotIdx struct{ slot, idx int }

// fwdPlan is a precompiled hop-2 packet: fixed slot arrays, payload
// gathered from the sender's dense routing buffers each call. rows are
// the y indices its partials are for.
type fwdPlan struct {
	dest  int
	xSlot []int
	ySlot []int
	rows  []int
	payload
}

// gather refreshes the packet from the routing buffers.
//
//spmv:hotpath
func (fp *fwdPlan) gather(rx, ry []float64, nrhs int) {
	if n := nrhs; n > 0 {
		for t, s := range fp.xSlot {
			copy(fp.xValB[t*n:(t+1)*n], rx[s*n:(s+1)*n])
		}
		for t, s := range fp.ySlot {
			copy(fp.yValB[t*n:(t+1)*n], ry[s*n:(s+1)*n])
		}
		return
	}
	for t, s := range fp.xSlot {
		fp.xVal[t] = rx[s]
	}
	for t, s := range fp.ySlot {
		fp.yVal[t] = ry[s]
	}
}

// seedSlots loads route[slot] ← vec[idx] for every pair.
//
//spmv:hotpath
func seedSlots(route, vec []float64, ps []slotIdx, nrhs int) {
	if n := nrhs; n > 0 {
		for _, p := range ps {
			copy(route[p.slot*n:(p.slot+1)*n], vec[p.idx*n:(p.idx+1)*n])
		}
		return
	}
	for _, p := range ps {
		route[p.slot] = vec[p.idx]
	}
}

// drainSlots stores (add false) or accumulates (add true) vec[idx] ←
// route[slot] for every pair.
//
//spmv:hotpath
func drainSlots(vec, route []float64, ps []slotIdx, nrhs int, add bool) {
	switch n := nrhs; {
	case n > 0 && add:
		for _, p := range ps {
			addBlock(vec[p.idx*n:(p.idx+1)*n], route[p.slot*n:(p.slot+1)*n])
		}
	case n > 0:
		for _, p := range ps {
			copy(vec[p.idx*n:(p.idx+1)*n], route[p.slot*n:(p.slot+1)*n])
		}
	case add:
		for _, p := range ps {
			vec[p.idx] += route[p.slot]
		}
	default:
		for _, p := range ps {
			vec[p.idx] = route[p.slot]
		}
	}
}

// NewRoutedEngine builds the two-hop schedule for a fused s2D distribution
// on the given mesh, compiles it, and parks the engine's helper
// executors.
//
//spmv:deterministic
func NewRoutedEngine(d *distrib.Distribution, mesh core.Mesh) (*RoutedEngine, error) {
	if err := d.Validate(); err != nil {
		return nil, err
	}
	if !d.Fused {
		return nil, fmt.Errorf("spmv: routed engine requires a fused (s2D) distribution")
	}
	if mesh.Pr*mesh.Pc != d.K {
		return nil, fmt.Errorf("spmv: mesh %v does not cover K=%d", mesh, d.K)
	}
	e := &RoutedEngine{d: d, mesh: mesh}
	e.rprocs = make([]*rproc, d.K)
	for i := range e.rprocs {
		e.rprocs[i] = &rproc{
			id:          i,
			preGroups:   make(map[int][]localNZ),
			hop1X:       make(map[int][]int),
			hop2X:       make(map[int][]int),
			phase1Dests: make(map[int]struct{}),
			phase2Dests: make(map[int]struct{}),
		}
	}
	// Build-time state the compiled plan replaces: each processor's
	// output-local nonzeros and its remote-x slot assignment.
	own := make([][]localNZ, d.K)
	extSlot := make([]map[int]int, d.K)
	for i := range extSlot {
		extSlot[i] = make(map[int]int)
	}

	// Per (owner, dest) x needs, as in the fused engine.
	type pair struct{ from, to int }
	xWant := make(map[pair]map[int]struct{})
	var s2dErr error
	d.EachNZ(func(i, j int, v float64, o int) {
		if s2dErr != nil {
			return
		}
		yOwner := d.YPart[i]
		switch {
		case o == yOwner && o == d.XPart[j]:
			own[o] = append(own[o], localNZ{row: i, src: j, val: v})
		case o == yOwner:
			key := pair{from: d.XPart[j], to: o}
			if xWant[key] == nil {
				xWant[key] = make(map[int]struct{})
			}
			xWant[key][j] = struct{}{}
			s, ok := extSlot[o][j]
			if !ok {
				s = len(extSlot[o])
				extSlot[o][j] = s
			}
			own[o] = append(own[o], localNZ{row: i, src: -(s + 1), val: v})
		case o == d.XPart[j]:
			pr := e.rprocs[o]
			pr.preGroups[yOwner] = append(pr.preGroups[yOwner], localNZ{row: i, src: j, val: v})
		default:
			s2dErr = fmt.Errorf("spmv: nonzero (%d,%d) violates s2D", i, j)
		}
	})
	if s2dErr != nil {
		return nil, s2dErr
	}

	// Build the x routing tables.
	for key, set := range xWant { //spmvlint:unordered per-key independent routing-table writes; idxs are sorted before use
		src, dst := key.from, key.to
		mid := mesh.PartAt(mesh.RowOf(dst), mesh.ColOf(src))
		idxs := make([]int, 0, len(set))
		for j := range set {
			idxs = append(idxs, j)
		}
		sort.Ints(idxs)
		if mid != src {
			hop := e.rprocs[src].hop1X[mid]
			hop = append(hop, idxs...)
			e.rprocs[src].hop1X[mid] = hop
			e.rprocs[src].phase1Dests[mid] = struct{}{}
		}
		if dst != mid {
			e.rprocs[mid].hop2X[dst] = append(e.rprocs[mid].hop2X[dst], idxs...)
			e.rprocs[mid].phase2Dests[dst] = struct{}{}
		}
	}
	// Deduplicate hop1X payloads (two destinations in the same mesh row
	// share the shipment).
	for _, pr := range e.rprocs {
		for mid, idxs := range pr.hop1X {
			pr.hop1X[mid] = dedupSorted(idxs)
		}
		for dst, idxs := range pr.hop2X {
			pr.hop2X[dst] = dedupSorted(idxs)
		}
	}
	// y routing structure: source k with partials for dest ℓ messages
	// mid=(RowOf(ℓ), ColOf(k)) in phase 1; mid messages ℓ in phase 2.
	for _, pr := range e.rprocs {
		for dest := range pr.preGroups { //spmvlint:unordered set insertion; commutative
			mid := mesh.PartAt(mesh.RowOf(dest), mesh.ColOf(pr.id))
			if mid != pr.id {
				pr.phase1Dests[mid] = struct{}{}
			}
			if dest != mid {
				e.rprocs[mid].phase2Dests[dest] = struct{}{}
			}
		}
	}

	e.compile(own, extSlot)
	e.run.start(d.K, e)
	return e, nil
}

// compile lowers the routing schedule to the dense forward plan. own and
// extSlot are the build-time nonzero lists and remote-x slot maps; the
// plan keeps neither.
//
//spmv:deterministic
func (e *RoutedEngine) compile(own [][]localNZ, extSlot []map[int]int) {
	mesh := e.mesh
	// midNZ[p][mid]: p's precompute nonzeros routed via mid (mid may be p
	// itself for same-mesh-row destinations).
	midNZ := make([]map[int][]localNZ, len(e.rprocs))
	for _, pr := range e.rprocs {
		midNZ[pr.id] = make(map[int][]localNZ)
		// Destinations ascending: the concatenation order fixes the
		// within-row nonzero order compileRows bakes into the kernel,
		// and float accumulation order must not vary across rebuilds.
		for _, dest := range sortedKeys(pr.preGroups) {
			mid := mesh.PartAt(mesh.RowOf(dest), mesh.ColOf(pr.id))
			midNZ[pr.id][mid] = append(midNZ[pr.id][mid], pr.preGroups[dest]...)
		}
	}

	for _, pr := range e.rprocs {
		pl := &pr.fwd
		pr.extIdx = invertSlots(extSlot[pr.id])
		pl.extX = make([]float64, len(pr.extIdx))
		pl.own = compileRows(own[pr.id])
		own[pr.id] = nil

		// Dense routed-x layout: everything this proc forwards in phase 2
		// plus everything arriving in phase 1.
		xIdxs := make([]int, 0)
		for _, idxs := range pr.hop2X {
			xIdxs = append(xIdxs, idxs...)
		}
		for _, s := range e.rprocs {
			xIdxs = append(xIdxs, s.hop1X[pr.id]...)
		}
		xIdxs = dedupSorted(xIdxs)
		xSlot := make(map[int]int, len(xIdxs))
		for t, j := range xIdxs {
			xSlot[j] = t
		}
		pr.xSlot = xSlot
		pr.routeXVal = make([]float64, len(xIdxs))

		// Dense routed-y layout: every row this proc combines, own partials
		// and incoming alike.
		yRows := make([]int, 0)
		for s := range e.rprocs {
			for _, nz := range midNZ[s][pr.id] {
				yRows = append(yRows, nz.row)
			}
		}
		yRows = dedupSorted(yRows)
		ySlot := make(map[int]int, len(yRows))
		for t, r := range yRows {
			ySlot[r] = t
		}
		pr.ySlot = ySlot
		pr.routeYVal = make([]float64, len(yRows))

		// Locally-owned x entries this proc forwards as its own
		// intermediate (never shipped in phase 1).
		for _, idxs := range pr.hop2X {
			for _, j := range idxs {
				if e.d.XPart[j] == pr.id {
					pl.seedX = append(pl.seedX, slotIdx{slot: xSlot[j], idx: j})
				}
			}
		}
		sort.Slice(pl.seedX, func(a, b int) bool { return pl.seedX[a].slot < pl.seedX[b].slot })
		pl.seedX = dedupSelfX(pl.seedX)

		// Self-routed partials accumulate straight into routeYVal.
		pl.selfK = compileRows(midNZ[pr.id][pr.id])
		for t, r := range pl.selfK.rows {
			pl.selfK.rows[t] = ySlot[r]
		}

		// Phase-1 packets, sorted by intermediate.
		mids := sortedKeys(pr.phase1Dests)
		grps := make([]rowKernel, len(mids))
		words := 0
		for t, mid := range mids {
			grps[t] = compileRows(midNZ[pr.id][mid])
			words += len(pr.hop1X[mid]) + len(grps[t].rows)
		}
		arena := newValArena(words)
		for t, mid := range mids {
			pl.hop1 = append(pl.hop1, newSendPlan(mid, pr.hop1X[mid], grps[t], arena))
		}

		// Phase-2 forwards, sorted by destination: x from hop2X, y from the
		// routed rows owned by that destination.
		words = 0
		destRows := make(map[int][]int, len(pr.phase2Dests))
		for _, r := range yRows {
			if dst := e.d.YPart[r]; dst != pr.id {
				destRows[dst] = append(destRows[dst], r)
			}
		}
		for dst := range pr.phase2Dests {
			words += len(pr.hop2X[dst]) + len(destRows[dst])
		}
		arena = newValArena(words)
		for _, dst := range sortedKeys(pr.phase2Dests) {
			fp := &fwdPlan{dest: dst, rows: destRows[dst]}
			xIdx := pr.hop2X[dst]
			fp.xSlot = make([]int, len(xIdx))
			for t, j := range xIdx {
				fp.xSlot[t] = xSlot[j]
			}
			fp.ySlot = make([]int, len(fp.rows))
			for t, r := range fp.rows {
				fp.ySlot[t] = ySlot[r]
			}
			fp.xVal, fp.yVal = arena.take(len(xIdx)), arena.take(len(fp.rows))
			pl.hop2 = append(pl.hop2, fp)
		}

		// Rows folded locally.
		for _, r := range yRows {
			if e.d.YPart[r] == pr.id {
				pl.localY = append(pl.localY, slotIdx{slot: ySlot[r], idx: r})
			}
		}
	}

	// Static receive lists: each sender's fixed payload is known, so the
	// receiver reads it in place through precomputed slot arrays instead
	// of doing per-word map lookups at run time. Walking senders in
	// ascending order leaves every list sender-ordered.
	for _, s := range e.rprocs {
		for _, sp := range s.fwd.hop1 {
			pr := e.rprocs[sp.dest]
			l := recvLink{peer: s.id, from: &sp.payload, xTo: make([]int, len(sp.xIdx)), yTo: make([]int, len(sp.grp.rows))}
			for t, j := range sp.xIdx {
				l.xTo[t] = pr.xSlot[j]
				// An x value whose final destination is this very processor
				// lands in extX too.
				if slot, ok := extSlot[pr.id][j]; ok {
					pr.fwd.toExt = append(pr.fwd.toExt, slotIdx{slot: l.xTo[t], idx: slot})
				}
			}
			for t, r := range sp.grp.rows {
				l.yTo[t] = pr.ySlot[r] // combining: same y_i from many sources
			}
			pr.fwd.recv1 = append(pr.fwd.recv1, l)
		}
		for _, fp := range s.fwd.hop2 {
			pr := e.rprocs[fp.dest]
			l := recvLink{peer: s.id, from: &fp.payload, xTo: make([]int, len(fp.xSlot)), yTo: fp.rows}
			for t, j := range s.hop2X[fp.dest] {
				l.xTo[t] = extSlot[pr.id][j]
			}
			pr.fwd.recv2 = append(pr.fwd.recv2, l)
		}
	}
}

func dedupSelfX(xs []slotIdx) []slotIdx {
	out := xs[:0]
	for i, x := range xs {
		if i == 0 || x.slot != xs[i-1].slot {
			out = append(out, x)
		}
	}
	return out
}

func dedupSorted(xs []int) []int {
	sort.Ints(xs)
	out := xs[:0]
	for i, x := range xs {
		if i == 0 || x != xs[i-1] {
			out = append(out, x)
		}
	}
	return out
}

// Close stops the routed engine's helper executors; like Engine.Close it
// is idempotent, and Multiply after Close returns a typed *ClosedError.
func (e *RoutedEngine) Close() { e.run.close() }

// Multiply computes y ← Ax with the routed two-phase schedule. It
// returns *ClosedError after Close and *EngineFaultError once a
// contained processor panic has poisoned the engine.
func (e *RoutedEngine) Multiply(x, y []float64) error {
	checkDims(x, y, e.d.A.Cols, e.d.A.Rows)
	return e.dispatch(x, y, 0, false)
}

// dispatch runs one multiply of any surface; see Engine.dispatch.
func (e *RoutedEngine) dispatch(x, y []float64, nrhs int, transpose bool) error {
	if transpose {
		e.ensureTranspose()
	}
	if nrhs > 0 {
		e.ensureBlock(nrhs, transpose)
	}
	return e.run.multiply(job{
		x: x, y: y, nrhs: nrhs, transpose: transpose,
		kid: e.sel.forWidth(max(nrhs, 1)), steps: 3,
	}, e.d.A.NNZ())
}

// step executes step s of virtual processor vp: three steps around the
// two barriers of the two hops. Step 0 seeds the routing buffers with the
// self-routed payloads and fills the hop-1 packets; step 1 combines the
// incoming ones into the dense routing buffers, fills the hop-2 forwards
// from them and folds the rows this proc owns straight out of ry; step 2
// banks the incoming forwards and computes the local rows. The transpose
// runs the same steps over its own plan with the routing buffers' roles
// swapped. selfK's rows index routing slots, not packet positions, so the
// relaxed loops may run there; the sorted layout never applies (it is
// derived only for the own compute kernels).
//
//spmv:hotpath
func (e *RoutedEngine) step(s, vp int, j *job) {
	pr, n := e.rprocs[vp], j.nrhs
	pl, rx, ry := pr.plan(j.transpose), pr.routeXVal, pr.routeYVal
	if n > 0 {
		rx, ry = pr.routeXValB, pr.routeYValB
	}
	if j.transpose {
		rx, ry = ry, rx
	}
	ext := pl.extX
	if n > 0 {
		ext = pl.extXB
	}
	switch s {
	case 0:
		clear(ry)
		seedSlots(rx, j.x, pl.seedX, n)
		if n > 0 {
			pl.selfK.addIntoBlockK(j.kid, ry, j.x, nil, n)
		} else {
			pl.selfK.addIntoK(j.kid, ry, j.x, nil)
		}
		for _, sp := range pl.hop1 {
			sp.fill(j, nil)
		}
	case 1:
		bank(pl.recv1, rx, ry, n)
		drainSlots(ext, rx, pl.toExt, n, false)
		for _, fp := range pl.hop2 {
			fp.gather(rx, ry, n)
		}
		drainSlots(j.y, ry, pl.localY, n, true)
	case 2:
		bank(pl.recv2, ext, j.y, n)
		own := ownOf(&pl.own, &pl.ownS, j.kid)
		if n > 0 {
			own.addIntoBlockK(j.kid, j.y, j.x, ext, n)
		} else {
			own.addIntoK(j.kid, j.y, j.x, ext)
		}
	}
}
