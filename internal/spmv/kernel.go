package spmv

// This file is the kernel backend layer: a small set of interchangeable
// compute implementations behind the four entry points every schedule's
// run body uses (addInto / fillInto and their nrhs-wide block twins).
// The compiled plan — packets, index arrays, receive order — is backend-
// independent; a backend only changes how a rowKernel's slots are walked:
//
//   - scalar:     the PR 6 loops, one variable-width run per slot. The
//                 reference backend; every other non-relaxed backend is
//                 bitwise identical to it.
//   - reg:        register-blocked SpMM loops for nrhs ∈ {2, 4, 8}
//                 (kernel_width.go): the width, the stride and the
//                 accumulator count are compile-time constants and a
//                 slot's runs are walked once. Other widths fall back
//                 to the scalar loops.
//   - sorted:     the sorted-slot layout (SELL-C-σ spirit): the *own*
//                 compute kernels are recompiled with slots in descending
//                 nonzero-count order, so the power-law suite's heavy
//                 rows run first and the inner-loop trip counts decay
//                 monotonically. Only whole slots move — within-slot
//                 summation order is untouched — so results stay bitwise
//                 identical. Send-group kernels never reorder: packet
//                 payload order is part of the wire format the receive
//                 translations were compiled against.
//   - sortedreg:  sorted layout + register-blocked loops.
//   - relaxed:    multi-accumulator unrolled loops (kernel_width.go)
//                 that trade the contractual summation order for ILP.
//                 Results agree with scalar only to ulp-level tolerance,
//                 so this backend is never chosen by the autotuner unless
//                 explicitly admitted (TuneConfig.RelaxedFP) and is kept
//                 out of the bit-identical serve/coalescing paths.
//
// Selection is per width class (the nrhs buckets 1, 2, 4, 8, and 0 for
// every other width), held in a kernelSel and resolved once per dispatch
// — the per-slot inner loops pay no dynamic dispatch.

import (
	"fmt"
	"sort"
	"strings"
)

// kernelID names one kernel backend.
type kernelID uint8

const (
	kernScalar kernelID = iota
	kernReg
	kernSorted
	kernSortedReg
	kernRelaxed
	numKernels
)

var kernelNames = [numKernels]string{"scalar", "reg", "sorted", "sortedreg", "relaxed"}

func (k kernelID) String() string { return kernelNames[k] }

// sortedLayout reports whether the backend reads the sorted-slot own
// kernels instead of the row-ascending ones.
func (k kernelID) sortedLayout() bool { return k == kernSorted || k == kernSortedReg }

// regBlocked reports whether the backend uses the width-specialized
// block loops for nrhs ∈ {2, 4, 8}.
func (k kernelID) regBlocked() bool { return k == kernReg || k == kernSortedReg }

// kernelByName resolves a backend name ("scalar", "reg", "sorted",
// "sortedreg", "relaxed"), case-sensitively.
func kernelByName(name string) (kernelID, error) {
	for id, n := range kernelNames {
		if n == name {
			return kernelID(id), nil
		}
	}
	return 0, fmt.Errorf("spmv: unknown kernel %q (valid: %s)",
		name, strings.Join(KernelNames(), ", "))
}

// KernelNames lists the selectable kernel backends, scalar first. The
// order is also the autotuner's probe and tie-break order.
func KernelNames() []string {
	out := make([]string, numKernels)
	copy(out, kernelNames[:])
	return out
}

// Width classes: nrhs ∈ {1, 2, 4, 8} each form their own class, every
// other width shares class 0 ("generic"), which always runs the
// variable-width loops (its backend choice can still flip the layout).
const numClasses = 5

// classWidths maps a class index to the nrhs value identifying it
// publicly (0 = all other widths).
var classWidths = [numClasses]int{0, 1, 2, 4, 8}

func classOf(nrhs int) int {
	switch nrhs {
	case 1:
		return 1
	case 2:
		return 2
	case 4:
		return 3
	case 8:
		return 4
	}
	return 0
}

// kernelSel is the per-width-class backend selection; the zero value
// selects scalar everywhere, which is exactly the PR 6 behavior.
type kernelSel struct {
	byClass [numClasses]kernelID
}

func (s *kernelSel) forWidth(nrhs int) kernelID { return s.byClass[classOf(nrhs)] }

func (s *kernelSel) anySorted() bool {
	for _, kid := range s.byClass {
		if kid.sortedLayout() {
			return true
		}
	}
	return false
}

// kernelState is the kernel-selection state embedded in both engines:
// the per-class selection (a multiply's backend is resolved from it once
// and travels in its job), flags for the lazily derived sorted own
// kernels, and the last Autotune report.
type kernelState struct {
	sel                kernelSel
	sortedFwd, sortedT bool
	tuned              *KernelReport
}

func (ks *kernelState) kstate() *kernelState { return ks }

// report returns the engine's current selection: the Autotune verdict
// when one ran, otherwise a synthetic all-default report.
func (ks *kernelState) report() KernelReport {
	if ks.tuned != nil {
		return ks.tuned.clone()
	}
	choices := make([]KernelChoice, numClasses)
	for c := range choices {
		choices[c] = KernelChoice{
			NRHS:   classWidths[c],
			Kernel: ks.sel.byClass[c].String(),
			Source: "default",
		}
	}
	return KernelReport{Choices: choices}
}

// ---- dispatch ----

// addIntoK is addInto under the given backend.
//
//spmv:hotpath
func (k *rowKernel) addIntoK(kid kernelID, dst, x, ext []float64) {
	if kid == kernRelaxed {
		k.addIntoRelaxed(dst, x, ext)
		return
	}
	k.addInto(dst, x, ext)
}

// fillIntoK is fillInto under the given backend.
//
//spmv:hotpath
func (k *rowKernel) fillIntoK(kid kernelID, dst, x, ext []float64) {
	if kid == kernRelaxed {
		k.fillIntoRelaxed(dst, x, ext)
		return
	}
	k.fillInto(dst, x, ext)
}

// addIntoBlockK is addIntoBlock under the given backend. Widths without
// a specialized loop use the generic path, which keeps them bitwise
// identical to scalar even under reg/relaxed selections.
//
//spmv:hotpath
func (k *rowKernel) addIntoBlockK(kid kernelID, dst, x, ext []float64, nrhs int) {
	switch {
	case kid.regBlocked():
		switch nrhs {
		case 2:
			k.addIntoBlock2(dst, x, ext)
			return
		case 4:
			k.addIntoBlock4(dst, x, ext)
			return
		case 8:
			k.addIntoBlock8(dst, x, ext)
			return
		}
	case kid == kernRelaxed:
		switch nrhs {
		case 1:
			// The nrhs=1 block layout is the single-vector layout, so the
			// relaxed single loop keeps MultiplyBlock(·, ·, 1) identical to
			// Multiply under this backend too.
			k.addIntoRelaxed(dst, x, ext)
			return
		case 4:
			k.addIntoBlock4R(dst, x, ext)
			return
		case 8:
			k.addIntoBlock8R(dst, x, ext)
			return
		}
	}
	k.addIntoBlock(dst, x, ext, nrhs)
}

// fillIntoBlockK is fillIntoBlock under the given backend.
//
//spmv:hotpath
func (k *rowKernel) fillIntoBlockK(kid kernelID, dst, x, ext []float64, nrhs int) {
	switch {
	case kid.regBlocked():
		switch nrhs {
		case 2:
			k.fillIntoBlock2(dst, x, ext)
			return
		case 4:
			k.fillIntoBlock4(dst, x, ext)
			return
		case 8:
			k.fillIntoBlock8(dst, x, ext)
			return
		}
	case kid == kernRelaxed:
		switch nrhs {
		case 1:
			k.fillIntoRelaxed(dst, x, ext)
			return
		case 4:
			k.fillIntoBlock4R(dst, x, ext)
			return
		case 8:
			k.fillIntoBlock8R(dst, x, ext)
			return
		}
	}
	k.fillIntoBlock(dst, x, ext, nrhs)
}

// ---- sorted-slot layout ----

// sortedByWork recompiles k with its slots reordered by descending
// nonzero count (ties keep ascending-row order, so the layout is
// deterministic across rebuilt engines). Whole slots move — each slot's
// local and external runs are copied verbatim — so every output value
// is the bitwise-same sum as in the original layout; only the order in
// which distinct outputs are produced changes. Intended for the *own*
// compute kernels only: send-group kernels define packet payload order
// and must never reorder.
func sortedByWork(k *rowKernel) rowKernel {
	n := len(k.rows)
	perm := make([]int, n)
	for t := range perm {
		perm[t] = t
	}
	work := func(t int) int {
		return (k.locPtr[t+1] - k.locPtr[t]) + (k.extPtr[t+1] - k.extPtr[t])
	}
	// Stable sort on the identity permutation of row-ascending slots:
	// equal-work slots keep ascending rows.
	sort.SliceStable(perm, func(a, b int) bool { return work(perm[a]) > work(perm[b]) })

	var s rowKernel
	s.rows = make([]int, n)
	s.locPtr = make([]int, n+1)
	s.extPtr = make([]int, n+1)
	s.locSrc = make([]int, len(k.locSrc))
	s.locVal = make([]float64, len(k.locVal))
	s.extSrc = make([]int, len(k.extSrc))
	s.extVal = make([]float64, len(k.extVal))
	for t, p := range perm {
		s.rows[t] = k.rows[p]
		s.locPtr[t+1] = s.locPtr[t] + (k.locPtr[p+1] - k.locPtr[p])
		s.extPtr[t+1] = s.extPtr[t] + (k.extPtr[p+1] - k.extPtr[p])
		copy(s.locSrc[s.locPtr[t]:s.locPtr[t+1]], k.locSrc[k.locPtr[p]:k.locPtr[p+1]])
		copy(s.locVal[s.locPtr[t]:s.locPtr[t+1]], k.locVal[k.locPtr[p]:k.locPtr[p+1]])
		copy(s.extSrc[s.extPtr[t]:s.extPtr[t+1]], k.extSrc[k.extPtr[p]:k.extPtr[p+1]])
		copy(s.extVal[s.extPtr[t]:s.extPtr[t+1]], k.extVal[k.extPtr[p]:k.extPtr[p+1]])
	}
	return s
}

// ownOf picks the own-compute kernel variant the backend reads.
func ownOf(flat, sorted *rowKernel, kid kernelID) *rowKernel {
	if kid.sortedLayout() {
		return sorted
	}
	return flat
}

// installKernel installs kid for one width class and derives the sorted
// own kernels the first time a sorted-layout backend is selected. It
// must run with every executor idle (between multiplies), like every
// other plan mutation.
func (e *Engine) installKernel(class int, kid kernelID) {
	e.sel.byClass[class] = kid
	if kid.sortedLayout() {
		e.ensureSorted()
	}
}

// ensureSorted derives the sorted-slot variants of every own kernel
// that exists so far; the transpose variants derive when the transpose
// plan compiles (see ensureTranspose).
func (e *Engine) ensureSorted() {
	if !e.sortedFwd {
		for _, pr := range e.procs {
			pr.fwd.ownS = sortedByWork(&pr.fwd.own)
		}
		e.sortedFwd = true
	}
	if e.tready && !e.sortedT {
		for _, pr := range e.procs {
			pr.t.ownS = sortedByWork(&pr.t.own)
		}
		e.sortedT = true
	}
}

func (e *RoutedEngine) installKernel(class int, kid kernelID) {
	e.sel.byClass[class] = kid
	if kid.sortedLayout() {
		e.ensureSorted()
	}
}

func (e *RoutedEngine) ensureSorted() {
	if !e.sortedFwd {
		for _, pr := range e.rprocs {
			pr.fwd.ownS = sortedByWork(&pr.fwd.own)
		}
		e.sortedFwd = true
	}
	if e.tready && !e.sortedT {
		for _, pr := range e.rprocs {
			pr.t.ownS = sortedByWork(&pr.t.own)
		}
		e.sortedT = true
	}
}
