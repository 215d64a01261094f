package spmv

import (
	"maps"
	"slices"
)

// This file holds the compiled execution plan shared by all three
// schedules. NewEngine / NewRoutedEngine first build the human-readable
// schedule (xNeed, preGroups, hop tables — kept for ScheduleStats and the
// consistency tests), then compile it down to flat arrays so the
// steady-state Multiply performs zero heap allocations:
//
//   - segKernel / rowKernel: branch-free SoA CSR segments. Each output
//     slot has one run of local-x nonzeros and one run of external-x
//     nonzeros, so the inner loops never test the sign-encoded src that
//     localNZ uses at build time.
//   - sendPlan: a packet with fixed index arrays built once; only its
//     payload (carved from a per-processor valArena) is refilled per
//     call, by the step that sends it.
//   - recvLink: the same packet as its receiver sees it — a pointer to
//     the sender's payload plus where each word lands. A processor's
//     links are compiled in ascending sender order and banked in that
//     order by the step after the fill (see exec.go for the barrier in
//     between), which is what makes y accumulation bitwise-deterministic
//     whichever executor runs the processor. bank is the only receive
//     site in the package.

// segKernel is a pair of CSR-style nonzero runs per output slot t:
// a local run reading x directly and an external run reading the
// proc's extX (or any other gathered buffer).
type segKernel struct {
	locPtr []int
	locSrc []int
	locVal []float64
	extPtr []int
	extSrc []int
	extVal []float64
}

// The row loops below slice each run once (src, val := …[a:b]) and range
// over the index slice: the bounds of a run are checked once per slot
// instead of three times per nonzero, and the slice headers stay in
// registers instead of being reloaded through k.

// value computes slot t's dot-product contribution.
//
//spmv:hotpath
func (k *segKernel) value(t int, x, ext []float64) float64 {
	s := 0.0
	src := k.locSrc[k.locPtr[t]:k.locPtr[t+1]]
	val := k.locVal[k.locPtr[t]:k.locPtr[t+1]]
	for q, j := range src {
		s += val[q] * x[j]
	}
	src = k.extSrc[k.extPtr[t]:k.extPtr[t+1]]
	val = k.extVal[k.extPtr[t]:k.extPtr[t+1]]
	for q, j := range src {
		s += val[q] * ext[j]
	}
	return s
}

// rowKernel couples a segKernel with its output indices (global y rows
// for compute kernels, dense slots for routed accumulators).
type rowKernel struct {
	rows []int
	segKernel
}

// addInto accumulates every slot's value into dst[rows[t]]. It is the
// loop nearly every nonzero of a multiply runs through, so it carries
// value's two runs itself, with the run bounds walked incrementally and
// the sum in a local until the slot's one store.
//
//spmv:hotpath
func (k *rowKernel) addInto(dst, x, ext []float64) {
	la, ea := k.locPtr[0], k.extPtr[0]
	for t, row := range k.rows {
		lb, eb := k.locPtr[t+1], k.extPtr[t+1]
		s := 0.0
		val := k.locVal[la:lb]
		for q, j := range k.locSrc[la:lb] {
			s += val[q] * x[j]
		}
		val = k.extVal[ea:eb]
		for q, j := range k.extSrc[ea:eb] {
			s += val[q] * ext[j]
		}
		dst[row] += s
		la, ea = lb, eb
	}
}

// fillInto overwrites dst[t] with slot t's value; dst must have
// len(k.rows) entries (a packet's yVal buffer).
//
//spmv:hotpath
func (k *rowKernel) fillInto(dst, x, ext []float64) {
	for t := range k.rows {
		dst[t] = k.value(t, x, ext)
	}
}

// addIntoBlock is the nrhs-wide addInto over column-blocked buffers (the
// value of source j for column c sits at x[j*nrhs+c]): slot t's nrhs
// values are added to dst[rows[t]*nrhs : ...].
//
//spmv:hotpath
func (k *rowKernel) addIntoBlock(dst, x, ext []float64, nrhs int) {
	k.blockInto(dst, x, ext, nrhs, true)
}

// fillIntoBlock is the nrhs-wide fillInto: slot t's nrhs values overwrite
// dst[t*nrhs : (t+1)*nrhs] (a block packet's yVal buffer).
//
//spmv:hotpath
func (k *rowKernel) fillIntoBlock(dst, x, ext []float64, nrhs int) {
	k.blockInto(dst, x, ext, nrhs, false)
}

// blockInto is the row loop under both. The columns of a slot are taken
// eight at a time, then four, then singly, with the sums in locals, each
// pass walking the slot's two runs again: per column, the nonzeros
// accumulate in exactly the order value uses and reach dst in one
// operation, so nrhs=1 reproduces the single-vector result bit for bit —
// and a pass costs little more than value does, where a loop over the
// columns inside the nonzero loop carries every sum through memory.
//
//spmv:hotpath
func (k *rowKernel) blockInto(dst, x, ext []float64, nrhs int, add bool) {
	for t, row := range k.rows {
		if !add {
			row = t
		}
		out := dst[row*nrhs : (row+1)*nrhs]
		c := 0
		for ; c+8 <= nrhs; c += 8 {
			var a0, a1, a2, a3, a4, a5, a6, a7 float64
			val := k.locVal[k.locPtr[t]:k.locPtr[t+1]]
			for q, j := range k.locSrc[k.locPtr[t]:k.locPtr[t+1]] {
				v, xs := val[q], x[j*nrhs+c:j*nrhs+c+8]
				a0 += v * xs[0]
				a1 += v * xs[1]
				a2 += v * xs[2]
				a3 += v * xs[3]
				a4 += v * xs[4]
				a5 += v * xs[5]
				a6 += v * xs[6]
				a7 += v * xs[7]
			}
			val = k.extVal[k.extPtr[t]:k.extPtr[t+1]]
			for q, j := range k.extSrc[k.extPtr[t]:k.extPtr[t+1]] {
				v, xs := val[q], ext[j*nrhs+c:j*nrhs+c+8]
				a0 += v * xs[0]
				a1 += v * xs[1]
				a2 += v * xs[2]
				a3 += v * xs[3]
				a4 += v * xs[4]
				a5 += v * xs[5]
				a6 += v * xs[6]
				a7 += v * xs[7]
			}
			o := out[c : c+8]
			if add {
				a0, a1, a2, a3 = o[0]+a0, o[1]+a1, o[2]+a2, o[3]+a3
				a4, a5, a6, a7 = o[4]+a4, o[5]+a5, o[6]+a6, o[7]+a7
			}
			o[0], o[1], o[2], o[3] = a0, a1, a2, a3
			o[4], o[5], o[6], o[7] = a4, a5, a6, a7
		}
		for ; c+4 <= nrhs; c += 4 {
			var a0, a1, a2, a3 float64
			val := k.locVal[k.locPtr[t]:k.locPtr[t+1]]
			for q, j := range k.locSrc[k.locPtr[t]:k.locPtr[t+1]] {
				v, xs := val[q], x[j*nrhs+c:j*nrhs+c+4]
				a0 += v * xs[0]
				a1 += v * xs[1]
				a2 += v * xs[2]
				a3 += v * xs[3]
			}
			val = k.extVal[k.extPtr[t]:k.extPtr[t+1]]
			for q, j := range k.extSrc[k.extPtr[t]:k.extPtr[t+1]] {
				v, xs := val[q], ext[j*nrhs+c:j*nrhs+c+4]
				a0 += v * xs[0]
				a1 += v * xs[1]
				a2 += v * xs[2]
				a3 += v * xs[3]
			}
			o := out[c : c+4]
			if add {
				a0, a1, a2, a3 = o[0]+a0, o[1]+a1, o[2]+a2, o[3]+a3
			}
			o[0], o[1], o[2], o[3] = a0, a1, a2, a3
		}
		for ; c < nrhs; c++ {
			s := 0.0
			val := k.locVal[k.locPtr[t]:k.locPtr[t+1]]
			for q, j := range k.locSrc[k.locPtr[t]:k.locPtr[t+1]] {
				s += val[q] * x[j*nrhs+c]
			}
			val = k.extVal[k.extPtr[t]:k.extPtr[t+1]]
			for q, j := range k.extSrc[k.extPtr[t]:k.extPtr[t+1]] {
				s += val[q] * ext[j*nrhs+c]
			}
			if add {
				s = out[c] + s
			}
			out[c] = s
		}
	}
}

// each calls f for every nonzero of k in slot order — per slot the local
// run, then the external run — in the build-time encoding compileRows
// takes (external sources as -(slot+1)). The lazy transpose compiles walk
// the forward own kernel with it, so the build-time nonzero list need not
// be kept.
func (k *rowKernel) each(f func(localNZ)) {
	for t, row := range k.rows {
		for q := k.locPtr[t]; q < k.locPtr[t+1]; q++ {
			f(localNZ{row: row, src: k.locSrc[q], val: k.locVal[q]})
		}
		for q := k.extPtr[t]; q < k.extPtr[t+1]; q++ {
			f(localNZ{row: row, src: -(k.extSrc[q] + 1), val: k.extVal[q]})
		}
	}
}

// compileRows groups build-time nonzeros by output row into a rowKernel
// with sorted distinct rows and separated local/external runs.
//
//spmv:deterministic
func compileRows(nzs []localNZ) rowKernel {
	var k rowKernel
	if len(nzs) == 0 {
		k.locPtr = []int{0}
		k.extPtr = []int{0}
		return k
	}
	rows := make([]int, 0, len(nzs))
	for _, nz := range nzs {
		rows = append(rows, nz.row)
	}
	rows = dedupSorted(rows)
	// rows is sorted and distinct, so slot lookup is a binary search —
	// measurably faster to build than the map[int]int this used (see
	// BenchmarkCompileRows) and allocation-free.
	slot := func(r int) int {
		t, _ := slices.BinarySearch(rows, r)
		return t
	}
	k.rows = rows
	k.locPtr = make([]int, len(rows)+1)
	k.extPtr = make([]int, len(rows)+1)
	for _, nz := range nzs {
		if nz.src >= 0 {
			k.locPtr[slot(nz.row)+1]++
		} else {
			k.extPtr[slot(nz.row)+1]++
		}
	}
	for t := 0; t < len(rows); t++ {
		k.locPtr[t+1] += k.locPtr[t]
		k.extPtr[t+1] += k.extPtr[t]
	}
	k.locSrc = make([]int, k.locPtr[len(rows)])
	k.locVal = make([]float64, k.locPtr[len(rows)])
	k.extSrc = make([]int, k.extPtr[len(rows)])
	k.extVal = make([]float64, k.extPtr[len(rows)])
	locPos := slices.Clone(k.locPtr[:len(rows)])
	extPos := slices.Clone(k.extPtr[:len(rows)])
	for _, nz := range nzs {
		t := slot(nz.row)
		if nz.src >= 0 {
			p := locPos[t]
			locPos[t]++
			k.locSrc[p] = nz.src
			k.locVal[p] = nz.val
		} else {
			p := extPos[t]
			extPos[t]++
			k.extSrc[p] = -(nz.src + 1)
			k.extVal[p] = nz.val
		}
	}
	return k
}

// valArena carves fixed float64 buffers for a proc's packet values out of
// one backing allocation. Sizing happens in a counting pass before any
// take.
type valArena struct{ buf []float64 }

func newValArena(n int) *valArena { return &valArena{buf: make([]float64, n)} }

func (a *valArena) take(n int) []float64 {
	s := a.buf[:n:n]
	a.buf = a.buf[n:]
	return s
}

// payload is the value half of a packet: the x entries and partial y
// results of one message, single-vector and (sized lazily by ensureBlock)
// nrhs-wide. The sender's fill step writes it; after the barrier the
// receiver's bank reads it in place.
type payload struct {
	xVal, yVal   []float64
	xValB, yValB []float64
}

// words is the packet's size in vector entries per right-hand side.
func (p *payload) words() int { return len(p.xVal) + len(p.yVal) }

// ensureBlock (re)sizes the nrhs-wide twins. Growth reallocates;
// shrinking re-slices the existing backing arrays, so alternating between
// a large and a small nrhs allocates only once.
func (p *payload) ensureBlock(nrhs int) {
	p.xValB = growBlock(p.xValB, len(p.xVal)*nrhs)
	p.yValB = growBlock(p.yValB, len(p.yVal)*nrhs)
}

// sendPlan is one precompiled outgoing packet: fixed destination and index
// arrays, payload refilled per call. A multi-RHS multiply still emits
// exactly one packet per peer per phase.
type sendPlan struct {
	dest int
	xIdx []int     // x entries shipped verbatim
	grp  rowKernel // partial results shipped; grp.rows are their y indices
	payload
}

func newSendPlan(dest int, xIdx []int, grp rowKernel, arena *valArena) *sendPlan {
	sp := &sendPlan{dest: dest, xIdx: xIdx, grp: grp}
	sp.xVal = arena.take(len(xIdx))
	sp.yVal = arena.take(len(grp.rows))
	return sp
}

// fill refreshes the packet's payload from the job's x (and ext, the
// processor's external buffer, for two-phase fold groups) under the job's
// kernel backend. Send groups never use the sorted layout — their slot
// order is the payload order the receivers were compiled against — so
// kid only selects between the scalar and relaxed loops here.
//
//spmv:hotpath
func (sp *sendPlan) fill(j *job, ext []float64) {
	if n := j.nrhs; n > 0 {
		for t, i := range sp.xIdx {
			copy(sp.xValB[t*n:(t+1)*n], j.x[i*n:(i+1)*n])
		}
		sp.grp.fillIntoBlockK(j.kid, sp.yValB, j.x, ext, n)
		return
	}
	for t, i := range sp.xIdx {
		sp.xVal[t] = j.x[i]
	}
	sp.grp.fillIntoK(j.kid, sp.yVal, j.x, ext)
}

// recvLink is one incoming packet as its receiver reads it.
type recvLink struct {
	peer int // the sending processor
	from *payload
	xTo  []int // xVal[t] overwrites xDst[xTo[t]]
	yTo  []int // yVal[t] accumulates into yDst[yTo[t]]
}

// bank delivers links in order: x entries overwrite their slots of xDst,
// partial results accumulate into yDst. nrhs = 0 reads the single-vector
// payloads, nrhs > 0 the nrhs-wide ones into column-blocked buffers.
//
//spmv:hotpath
func bank(links []recvLink, xDst, yDst []float64, nrhs int) {
	for i := range links {
		l := &links[i]
		if nrhs > 0 {
			for t, s := range l.xTo {
				copy(xDst[s*nrhs:(s+1)*nrhs], l.from.xValB[t*nrhs:(t+1)*nrhs])
			}
			for t, s := range l.yTo {
				addBlock(yDst[s*nrhs:(s+1)*nrhs], l.from.yValB[t*nrhs:(t+1)*nrhs])
			}
			continue
		}
		xv, yv := l.from.xVal, l.from.yVal
		for t, s := range l.xTo {
			xDst[s] = xv[t]
		}
		for t, s := range l.yTo {
			yDst[s] += yv[t]
		}
	}
}

// growBlock returns s re-sliced to n entries, reallocating only when the
// existing capacity is insufficient.
func growBlock(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

// sortedKeys returns m's keys in ascending order — every send loop
// iterates destinations through this, which is what makes packet emission
// deterministic.
func sortedKeys[V any](m map[int]V) []int {
	return slices.Sorted(maps.Keys(m))
}
