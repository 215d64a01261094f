// Package spmv executes distributed-memory parallel SpMV over K virtual
// processors under any distrib.Distribution. It implements the three
// schedules of the paper:
//
//   - the classic two-phase algorithm (expand x, multiply, fold ȳ) for 2D
//     partitions;
//   - the paper's fused single-phase algorithm (§III) for s2D partitions:
//     Precompute, Expand-and-Fold (one packet [x̂,ŷ] per destination),
//     Compute;
//   - the routed two-hop variant for s2D-b (§VI-B1), where packets travel
//     through mesh intermediates and partial results combine en route.
//
// A virtual processor is a unit of the partition, not a goroutine: K is a
// partition-quality parameter the paper sweeps to 4096, and the engine
// must not pay a scheduler round trip per processor for it. NewEngine
// compiles the static schedule into a flat execution plan (plan.go): per
// processor, the packets it fills, the packets it reads — in place, out
// of their senders' buffers, in ascending sender order — and its compute
// kernel. A multiply is then a short list of steps over the K processors
// separated by barriers, executed by min(K, GOMAXPROCS) executors of
// which the calling goroutine is the first (exec.go). The barrier count
// is the paper's phase count: one for the fused schedule, two for the
// other two. A steady-state Multiply spawns no goroutines and performs no
// heap allocations, and its result does not depend on which executor ran
// which processor. Every plan also serves the transpose product y ← Aᵀx
// with the phases reversed (transpose.go, routed_transpose.go) under the
// same contracts.
package spmv

import (
	"fmt"
	"sort"

	"repro/internal/distrib"
)

// proc holds one virtual processor's schedule. The map-based fields
// describe the schedule for ScheduleStats, the consistency tests and the
// lazy transpose compile; the compiled plans are what Multiply executes.
type proc struct {
	id int

	// Owned nonzeros whose output row is remote (the precompute set),
	// grouped by destination part. x is always local for these under s2D.
	preGroups map[int][]localNZ
	// xNeed[dest] lists the locally-owned x indices dest requires.
	xNeed map[int][]int
	// extIdx[s] is the remote x index held in slot s of the forward
	// plan's extX.
	extIdx []int

	fwd vplan
	// t is the compiled transpose plan (y ← Aᵀx), built lazily on the
	// first MultiplyTranspose; see transpose.go.
	t *vplan
}

// plan returns the processor's compiled plan for one direction.
func (pr *proc) plan(transpose bool) *vplan {
	if transpose {
		return pr.t
	}
	return &pr.fwd
}

// localNZ is a build-time nonzero of one processor. src ≥ 0 means x[src]
// is locally owned; src < 0 means external slot -(src+1).
type localNZ struct {
	row int
	src int
	val float64
}

// vplan is one virtual processor's compiled plan for one direction.
// Phase 0 carries the fused [x̂,ŷ] packets or the two-phase x packets,
// phase 1 the two-phase fold packets (empty when fused).
type vplan struct {
	extX []float64
	// own is the Compute step over the processor's output rows; ownS is
	// own recompiled in descending-work slot order, derived lazily the
	// first time a sorted-layout backend is installed (see kernel.go).
	own, ownS rowKernel
	sends     [2][]*sendPlan
	recv      [2][]recvLink // ascending sender order: fixes the fold order

	// extXB is the block (multi-RHS) twin of extX, nrhs values per slot,
	// sized lazily by ensureBlock.
	extXB []float64
}

// Engine runs parallel SpMV for a fixed distribution. Build once with
// NewEngine, call Multiply repeatedly. Multiply must not be called
// concurrently on the same engine: calls share the compiled packet
// buffers.
type Engine struct {
	d     *distrib.Distribution
	procs []*proc
	fused bool
	run   runner

	// Per-width-class kernel backend selection and the lazily derived
	// sorted layouts (see kernel.go, autotune.go). The zero value runs
	// the scalar reference kernels everywhere.
	kernelState

	// pt samples per-phase expand/compute/fold wall time on the calling
	// goroutine when armed via SamplePhases (see timing.go).
	pt phaseTimer

	// blockNRHS[dir] is the width direction dir's block buffers are
	// currently sliced for (0 until its first block multiply); see
	// ensureBlock in block.go.
	blockNRHS [2]int
	io        blockIO

	// tready flips once the transpose plan is compiled (lazily, by the
	// first MultiplyTranspose).
	tready bool
}

// NewEngine builds the static communication and computation schedule for
// d, compiles it into an allocation-free execution plan, and parks the
// engine's helper executors. Fused distributions must satisfy the s2D
// property.
//
//spmv:deterministic
func NewEngine(d *distrib.Distribution) (*Engine, error) {
	if err := d.Validate(); err != nil {
		return nil, err
	}
	procs := make([]*proc, d.K)
	for i := range procs {
		procs[i] = &proc{id: i, preGroups: make(map[int][]localNZ), xNeed: make(map[int][]int)}
	}
	// Build-time state the compiled plan replaces: each processor's
	// output-local nonzeros, its remote-x slot assignment, and the x
	// indices every (owner, consumer) pair exchanges.
	own := make([][]localNZ, d.K)
	extSlot := make([]map[int]int, d.K)
	for i := range extSlot {
		extSlot[i] = make(map[int]int)
	}
	type pair struct{ from, to int }
	xWant := make(map[pair]map[int]struct{})

	var s2dErr error
	d.EachNZ(func(i, j int, v float64, o int) {
		yOwner, xOwner := d.YPart[i], d.XPart[j]
		if s2dErr != nil {
			return
		}
		if d.Fused && o != yOwner && o != xOwner {
			s2dErr = fmt.Errorf("spmv: nonzero (%d,%d) violates s2D", i, j)
			return
		}
		src := j
		if xOwner != o { // x remote: request x_j from its owner
			key := pair{from: xOwner, to: o}
			if xWant[key] == nil {
				xWant[key] = make(map[int]struct{})
			}
			xWant[key][j] = struct{}{}
			s, ok := extSlot[o][j]
			if !ok {
				s = len(extSlot[o])
				extSlot[o][j] = s
			}
			src = -(s + 1)
		}
		if yOwner == o {
			own[o] = append(own[o], localNZ{row: i, src: src, val: v})
		} else { // y remote: ship the partial (precomputed when fused)
			procs[o].preGroups[yOwner] = append(procs[o].preGroups[yOwner], localNZ{row: i, src: src, val: v})
		}
	})
	if s2dErr != nil {
		return nil, s2dErr
	}
	for key, set := range xWant { //spmvlint:unordered per-key independent writes; idxs are sorted before use
		idxs := make([]int, 0, len(set))
		for j := range set {
			idxs = append(idxs, j)
		}
		sort.Ints(idxs)
		procs[key.from].xNeed[key.to] = idxs
	}

	// ---- compile the execution plan ----
	for _, pr := range procs {
		pr.extIdx = invertSlots(extSlot[pr.id])
		pr.fwd.extX = make([]float64, len(pr.extIdx))
		pr.fwd.own = compileRows(own[pr.id])
		own[pr.id] = nil
		pr.fwd.sends = compileSends(d.Fused, pr.xNeed, pr.preGroups)
	}
	e := &Engine{d: d, procs: procs, fused: d.Fused}
	linkRecvs(procs, false, extSlot)
	e.run.start(d.K, e)
	return e, nil
}

// compileSends compiles one processor's outgoing packets for one
// direction from the x indices (xOut) and the partial-result nonzeros
// (groups) it owes each destination. Fused, a destination gets one
// [x̂,ŷ] packet in phase 0; otherwise its x entries travel in phase 0
// and its partials in phase 1. Destinations ascend within a phase.
func compileSends(fused bool, xOut map[int][]int, groups map[int][]localNZ) (sends [2][]*sendPlan) {
	type packet struct {
		phase, dest int
		xIdx        []int
		grp         rowKernel
	}
	var packets []packet
	if fused {
		dests := make(map[int]struct{}, len(xOut)+len(groups))
		for dst := range xOut {
			dests[dst] = struct{}{}
		}
		for dst := range groups {
			dests[dst] = struct{}{}
		}
		for _, dst := range sortedKeys(dests) {
			packets = append(packets, packet{0, dst, xOut[dst], compileRows(groups[dst])})
		}
	} else {
		for _, dst := range sortedKeys(xOut) {
			packets = append(packets, packet{0, dst, xOut[dst], rowKernel{}})
		}
		for _, dst := range sortedKeys(groups) {
			packets = append(packets, packet{1, dst, nil, compileRows(groups[dst])})
		}
	}
	words := 0
	for _, p := range packets {
		words += len(p.xIdx) + len(p.grp.rows)
	}
	arena := newValArena(words)
	for _, p := range packets {
		sends[p.phase] = append(sends[p.phase], newSendPlan(p.dest, p.xIdx, p.grp, arena))
	}
	return sends
}

// linkRecvs compiles every processor's static receive lists for one
// direction: one link per packet addressed to it, reading the sender's
// payload in place, its x entries translated to the receiver's extX
// slots (extSlot[dest]: shipped index → slot). Walking senders in
// ascending order leaves every list sender-ordered.
func linkRecvs(procs []*proc, transpose bool, extSlot []map[int]int) {
	for _, pr := range procs {
		for ph, sends := range pr.plan(transpose).sends {
			for _, sp := range sends {
				xTo := make([]int, len(sp.xIdx))
				for t, j := range sp.xIdx {
					xTo[t] = extSlot[sp.dest][j]
				}
				dst := procs[sp.dest].plan(transpose)
				dst.recv[ph] = append(dst.recv[ph], recvLink{peer: pr.id, from: &sp.payload, xTo: xTo, yTo: sp.grp.rows})
			}
		}
	}
}

// compiledGroupRows returns the distinct rows a fold group will ship —
// the group's packet yVal length — without building the kernel twice.
func compiledGroupRows(nzs []localNZ) []int {
	if len(nzs) == 0 {
		return nil
	}
	rows := make([]int, 0, len(nzs))
	for _, nz := range nzs {
		rows = append(rows, nz.row)
	}
	return dedupSorted(rows)
}

// Close stops the engine's helper executors and returns once they have
// exited; Multiply must not be called again (it returns a typed
// *ClosedError if it is). Close is idempotent — sharing layers that
// refcount engines may Close defensively. Closing is optional — an
// unclosed engine merely keeps at most GOMAXPROCS−1 goroutines parked
// until process exit — but long-lived programs that build many engines
// should close them.
func (e *Engine) Close() { e.run.close() }

// Multiply computes y ← Ax in parallel. x and y must have the matrix's
// dimensions (mismatches panic: that is a caller bug, not a runtime
// condition); y is fully overwritten. Steady-state calls spawn no
// goroutines and allocate nothing: the caller and the engine's parked
// helpers execute the compiled plan against x and y. Multiply returns a
// typed *ClosedError after Close and a typed *EngineFaultError once a
// contained processor panic has poisoned the engine.
func (e *Engine) Multiply(x, y []float64) error {
	checkDims(x, y, e.d.A.Cols, e.d.A.Rows)
	return e.dispatch(x, y, 0, false)
}

// dispatch runs one multiply of any surface: nrhs = 0 is the
// single-vector plan, nrhs > 0 the column-blocked one; transpose selects
// the Aᵀx plan. Lazy plan state is brought up to date first, with every
// executor idle.
func (e *Engine) dispatch(x, y []float64, nrhs int, transpose bool) error {
	if transpose {
		e.ensureTranspose()
	}
	if nrhs > 0 {
		e.ensureBlock(nrhs, transpose)
	}
	steps := 3
	if e.fused {
		steps = 2
	}
	return e.run.multiply(job{
		x: x, y: y, nrhs: nrhs, transpose: transpose,
		kid: e.sel.forWidth(max(nrhs, 1)), steps: steps, sample: e.pt.begin(),
	}, e.d.A.NNZ())
}

// step executes step s of virtual processor vp. The fused schedule (§III)
// is steps 0–1 around one barrier: fill the [x̂,ŷ] packets (Precompute +
// Expand-and-Fold), then bank the incoming ones in sender order and run
// the local Compute kernel. The classic schedule is steps 0–2 around
// two: fill the x packets (Expand); bank them, multiply, and fill the
// partial-result packets; bank those (Fold). The runner has cleared y
// before any step 1.
//
//spmv:hotpath
func (e *Engine) step(s, vp int, j *job) {
	pl := e.procs[vp].plan(j.transpose)
	ext, pt := pl.extX, &e.pt
	if j.nrhs > 0 {
		ext = pl.extXB
	}
	switch s {
	case 0:
		for _, sp := range pl.sends[0] {
			sp.fill(j, ext) // fused partial kernels read local x only
		}
		pt.lap(j, vp, &pt.expandNs)
	case 1:
		bank(pl.recv[0], ext, j.y, j.nrhs) // rows owned exclusively by vp
		if e.fused {
			pt.lap(j, vp, &pt.foldNs)
		} else {
			pt.lap(j, vp, &pt.expandNs)
		}
		own := ownOf(&pl.own, &pl.ownS, j.kid)
		if j.nrhs > 0 {
			own.addIntoBlockK(j.kid, j.y, j.x, ext, j.nrhs)
		} else {
			own.addIntoK(j.kid, j.y, j.x, ext)
		}
		pt.lap(j, vp, &pt.computeNs)
		for _, sp := range pl.sends[1] {
			sp.fill(j, ext)
		}
		if !e.fused {
			pt.lap(j, vp, &pt.foldNs)
		}
	case 2:
		bank(pl.recv[1], ext, j.y, j.nrhs)
		pt.lap(j, vp, &pt.foldNs)
	}
}
