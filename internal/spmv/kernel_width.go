package spmv

// Width-specialized SpMM loops (the "reg" backend) and the opt-in
// relaxed-FP loops (the "relaxed" backend).
//
// The reg loops fix the width at compile time: all nrhs accumulators of
// a slot are locals the compiler keeps in registers, the slot's runs are
// walked once, and the x row loads through a constant stride and a
// constant-length slice (`x[j*4 : j*4+4]`). The reference loop
// (rowKernel.blockInto) takes any width, eight or four columns to a pass
// with the stride and the column offset in variables and the columns
// left over one pass each, and is the slower for it: 78 µs against 67 at
// nrhs=8, 55 against 46 at nrhs=4 and 54 against 41 at nrhs=2 on a
// 2 500-row, 12k-nonzero plan. Per column the nonzeros accumulate in
// exactly the scalar order — local run then external run, q ascending —
// so every reg result is bitwise identical to the reference path.
//
// The relaxed loops break that contract deliberately: the single-vector
// loop splits the dot product across four accumulators (q-unrolled) and
// the width-4/8 block loops across two accumulator sets, recombining at
// the end. That reassociation buys instruction-level parallelism but
// changes the rounding, so results only agree with scalar to ulp-level
// tolerance — which is why the backend is opt-in (TuneConfig.RelaxedFP)
// and excluded from the bit-identical serve paths by default.

// ---- reg: width 2 ----

func (k *rowKernel) addIntoBlock2(dst, x, ext []float64) {
	for t, row := range k.rows {
		var a0, a1 float64
		val := k.locVal[k.locPtr[t]:k.locPtr[t+1]]
		for q, j := range k.locSrc[k.locPtr[t]:k.locPtr[t+1]] {
			v := val[q]
			xs := x[j*2 : j*2+2]
			a0 += v * xs[0]
			a1 += v * xs[1]
		}
		val = k.extVal[k.extPtr[t]:k.extPtr[t+1]]
		for q, j := range k.extSrc[k.extPtr[t]:k.extPtr[t+1]] {
			v := val[q]
			xs := ext[j*2 : j*2+2]
			a0 += v * xs[0]
			a1 += v * xs[1]
		}
		out := dst[row*2 : row*2+2]
		out[0] += a0
		out[1] += a1
	}
}

func (k *rowKernel) fillIntoBlock2(dst, x, ext []float64) {
	for t := range k.rows {
		var a0, a1 float64
		val := k.locVal[k.locPtr[t]:k.locPtr[t+1]]
		for q, j := range k.locSrc[k.locPtr[t]:k.locPtr[t+1]] {
			v := val[q]
			xs := x[j*2 : j*2+2]
			a0 += v * xs[0]
			a1 += v * xs[1]
		}
		val = k.extVal[k.extPtr[t]:k.extPtr[t+1]]
		for q, j := range k.extSrc[k.extPtr[t]:k.extPtr[t+1]] {
			v := val[q]
			xs := ext[j*2 : j*2+2]
			a0 += v * xs[0]
			a1 += v * xs[1]
		}
		out := dst[t*2 : t*2+2]
		out[0] = a0
		out[1] = a1
	}
}

// ---- reg: width 4 ----

func (k *rowKernel) addIntoBlock4(dst, x, ext []float64) {
	for t, row := range k.rows {
		var a0, a1, a2, a3 float64
		val := k.locVal[k.locPtr[t]:k.locPtr[t+1]]
		for q, j := range k.locSrc[k.locPtr[t]:k.locPtr[t+1]] {
			v := val[q]
			xs := x[j*4 : j*4+4]
			a0 += v * xs[0]
			a1 += v * xs[1]
			a2 += v * xs[2]
			a3 += v * xs[3]
		}
		val = k.extVal[k.extPtr[t]:k.extPtr[t+1]]
		for q, j := range k.extSrc[k.extPtr[t]:k.extPtr[t+1]] {
			v := val[q]
			xs := ext[j*4 : j*4+4]
			a0 += v * xs[0]
			a1 += v * xs[1]
			a2 += v * xs[2]
			a3 += v * xs[3]
		}
		out := dst[row*4 : row*4+4]
		out[0] += a0
		out[1] += a1
		out[2] += a2
		out[3] += a3
	}
}

func (k *rowKernel) fillIntoBlock4(dst, x, ext []float64) {
	for t := range k.rows {
		var a0, a1, a2, a3 float64
		val := k.locVal[k.locPtr[t]:k.locPtr[t+1]]
		for q, j := range k.locSrc[k.locPtr[t]:k.locPtr[t+1]] {
			v := val[q]
			xs := x[j*4 : j*4+4]
			a0 += v * xs[0]
			a1 += v * xs[1]
			a2 += v * xs[2]
			a3 += v * xs[3]
		}
		val = k.extVal[k.extPtr[t]:k.extPtr[t+1]]
		for q, j := range k.extSrc[k.extPtr[t]:k.extPtr[t+1]] {
			v := val[q]
			xs := ext[j*4 : j*4+4]
			a0 += v * xs[0]
			a1 += v * xs[1]
			a2 += v * xs[2]
			a3 += v * xs[3]
		}
		out := dst[t*4 : t*4+4]
		out[0] = a0
		out[1] = a1
		out[2] = a2
		out[3] = a3
	}
}

// ---- reg: width 8 ----

func (k *rowKernel) addIntoBlock8(dst, x, ext []float64) {
	for t, row := range k.rows {
		var a0, a1, a2, a3, a4, a5, a6, a7 float64
		val := k.locVal[k.locPtr[t]:k.locPtr[t+1]]
		for q, j := range k.locSrc[k.locPtr[t]:k.locPtr[t+1]] {
			v := val[q]
			xs := x[j*8 : j*8+8]
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
			v := val[q]
			xs := ext[j*8 : j*8+8]
			a0 += v * xs[0]
			a1 += v * xs[1]
			a2 += v * xs[2]
			a3 += v * xs[3]
			a4 += v * xs[4]
			a5 += v * xs[5]
			a6 += v * xs[6]
			a7 += v * xs[7]
		}
		out := dst[row*8 : row*8+8]
		out[0] += a0
		out[1] += a1
		out[2] += a2
		out[3] += a3
		out[4] += a4
		out[5] += a5
		out[6] += a6
		out[7] += a7
	}
}

func (k *rowKernel) fillIntoBlock8(dst, x, ext []float64) {
	for t := range k.rows {
		var a0, a1, a2, a3, a4, a5, a6, a7 float64
		val := k.locVal[k.locPtr[t]:k.locPtr[t+1]]
		for q, j := range k.locSrc[k.locPtr[t]:k.locPtr[t+1]] {
			v := val[q]
			xs := x[j*8 : j*8+8]
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
			v := val[q]
			xs := ext[j*8 : j*8+8]
			a0 += v * xs[0]
			a1 += v * xs[1]
			a2 += v * xs[2]
			a3 += v * xs[3]
			a4 += v * xs[4]
			a5 += v * xs[5]
			a6 += v * xs[6]
			a7 += v * xs[7]
		}
		out := dst[t*8 : t*8+8]
		out[0] = a0
		out[1] = a1
		out[2] = a2
		out[3] = a3
		out[4] = a4
		out[5] = a5
		out[6] = a6
		out[7] = a7
	}
}

// ---- relaxed: single vector ----

// valueRelaxed is value with the dot product split across four
// accumulators (4-way q-unroll), recombined as (s0+s2)+(s1+s3). Not
// bitwise equal to value — ulp-level only.
func (k *segKernel) valueRelaxed(t int, x, ext []float64) float64 {
	var s0, s1, s2, s3 float64
	src := k.locSrc[k.locPtr[t]:k.locPtr[t+1]]
	val := k.locVal[k.locPtr[t]:k.locPtr[t+1]]
	for ; len(src) >= 4 && len(val) >= 4; src, val = src[4:], val[4:] {
		s0 += val[0] * x[src[0]]
		s1 += val[1] * x[src[1]]
		s2 += val[2] * x[src[2]]
		s3 += val[3] * x[src[3]]
	}
	for q, j := range src {
		s0 += val[q] * x[j]
	}
	src = k.extSrc[k.extPtr[t]:k.extPtr[t+1]]
	val = k.extVal[k.extPtr[t]:k.extPtr[t+1]]
	for ; len(src) >= 4 && len(val) >= 4; src, val = src[4:], val[4:] {
		s0 += val[0] * ext[src[0]]
		s1 += val[1] * ext[src[1]]
		s2 += val[2] * ext[src[2]]
		s3 += val[3] * ext[src[3]]
	}
	for q, j := range src {
		s0 += val[q] * ext[j]
	}
	return (s0 + s2) + (s1 + s3)
}

func (k *rowKernel) addIntoRelaxed(dst, x, ext []float64) {
	for t, row := range k.rows {
		dst[row] += k.valueRelaxed(t, x, ext)
	}
}

func (k *rowKernel) fillIntoRelaxed(dst, x, ext []float64) {
	for t := range k.rows {
		dst[t] = k.valueRelaxed(t, x, ext)
	}
}

// ---- relaxed: width 4 ----

// addIntoBlock4R is addIntoBlock4 with the nonzero run 2-way unrolled
// over two accumulator sets; ulp-level only.
func (k *rowKernel) addIntoBlock4R(dst, x, ext []float64) {
	for t, row := range k.rows {
		a0, a1, a2, a3, b0, b1, b2, b3 := k.valueBlock4R(t, x, ext)
		out := dst[row*4 : row*4+4]
		out[0] += a0 + b0
		out[1] += a1 + b1
		out[2] += a2 + b2
		out[3] += a3 + b3
	}
}

func (k *rowKernel) fillIntoBlock4R(dst, x, ext []float64) {
	for t := range k.rows {
		a0, a1, a2, a3, b0, b1, b2, b3 := k.valueBlock4R(t, x, ext)
		out := dst[t*4 : t*4+4]
		out[0] = a0 + b0
		out[1] = a1 + b1
		out[2] = a2 + b2
		out[3] = a3 + b3
	}
}

func (k *rowKernel) valueBlock4R(t int, x, ext []float64) (a0, a1, a2, a3, b0, b1, b2, b3 float64) {
	src := k.locSrc[k.locPtr[t]:k.locPtr[t+1]]
	val := k.locVal[k.locPtr[t]:k.locPtr[t+1]]
	vec := x
	for run := 0; run < 2; run++ {
		for ; len(src) >= 2 && len(val) >= 2; src, val = src[2:], val[2:] {
			v, w := val[0], val[1]
			xs := vec[src[0]*4 : src[0]*4+4]
			ys := vec[src[1]*4 : src[1]*4+4]
			a0 += v * xs[0]
			a1 += v * xs[1]
			a2 += v * xs[2]
			a3 += v * xs[3]
			b0 += w * ys[0]
			b1 += w * ys[1]
			b2 += w * ys[2]
			b3 += w * ys[3]
		}
		for q, j := range src {
			v := val[q]
			xs := vec[j*4 : j*4+4]
			a0 += v * xs[0]
			a1 += v * xs[1]
			a2 += v * xs[2]
			a3 += v * xs[3]
		}
		src = k.extSrc[k.extPtr[t]:k.extPtr[t+1]]
		val = k.extVal[k.extPtr[t]:k.extPtr[t+1]]
		vec = ext
	}
	return
}

// ---- relaxed: width 8 ----

// addIntoBlock8R is addIntoBlock8 with the nonzero run 2-way unrolled
// over two accumulator sets; ulp-level only.
func (k *rowKernel) addIntoBlock8R(dst, x, ext []float64) {
	var a, b [8]float64
	for t, row := range k.rows {
		k.valueBlock8R(t, x, ext, &a, &b)
		out := dst[row*8 : row*8+8]
		out[0] += a[0] + b[0]
		out[1] += a[1] + b[1]
		out[2] += a[2] + b[2]
		out[3] += a[3] + b[3]
		out[4] += a[4] + b[4]
		out[5] += a[5] + b[5]
		out[6] += a[6] + b[6]
		out[7] += a[7] + b[7]
	}
}

func (k *rowKernel) fillIntoBlock8R(dst, x, ext []float64) {
	var a, b [8]float64
	for t := range k.rows {
		k.valueBlock8R(t, x, ext, &a, &b)
		out := dst[t*8 : t*8+8]
		out[0] = a[0] + b[0]
		out[1] = a[1] + b[1]
		out[2] = a[2] + b[2]
		out[3] = a[3] + b[3]
		out[4] = a[4] + b[4]
		out[5] = a[5] + b[5]
		out[6] = a[6] + b[6]
		out[7] = a[7] + b[7]
	}
}

func (k *rowKernel) valueBlock8R(t int, x, ext []float64, a, b *[8]float64) {
	*a = [8]float64{}
	*b = [8]float64{}
	src := k.locSrc[k.locPtr[t]:k.locPtr[t+1]]
	val := k.locVal[k.locPtr[t]:k.locPtr[t+1]]
	vec := x
	for run := 0; run < 2; run++ {
		for ; len(src) >= 2 && len(val) >= 2; src, val = src[2:], val[2:] {
			v, w := val[0], val[1]
			xs := vec[src[0]*8 : src[0]*8+8]
			ys := vec[src[1]*8 : src[1]*8+8]
			for c := 0; c < 8; c++ {
				a[c] += v * xs[c]
				b[c] += w * ys[c]
			}
		}
		for q, j := range src {
			v := val[q]
			xs := vec[j*8 : j*8+8]
			for c := 0; c < 8; c++ {
				a[c] += v * xs[c]
			}
		}
		src = k.extSrc[k.extPtr[t]:k.extPtr[t+1]]
		val = k.extVal[k.extPtr[t]:k.extPtr[t+1]]
		vec = ext
	}
}
