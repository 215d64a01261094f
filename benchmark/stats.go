package main

import (
	"math"
	"sort"
)

// quantile returns the q-quantile (0 ≤ q ≤ 1) of vals by linear
// interpolation between order statistics. vals is not modified; an empty
// input returns NaN so a missing measurement can never read as a time.
func quantile(vals []float64, q float64) float64 {
	if len(vals) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(vals []float64) float64 { return quantile(vals, 0.5) }

// iqrShare is the spread the acceptance rule uses: the distance between
// the first and third quartile as a share of the median, with the
// quartiles computed as Python's statistics.quantiles(values, n=4) does
// (the "exclusive" method: position (n+1)·p in the sorted sample).
func iqrShare(vals []float64) float64 {
	if len(vals) < 2 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	q := func(p float64) float64 {
		pos := p*float64(len(s)+1) - 1
		if pos <= 0 {
			return s[0]
		}
		if pos >= float64(len(s)-1) {
			return s[len(s)-1]
		}
		lo := int(math.Floor(pos))
		return s[lo] + (s[lo+1]-s[lo])*(pos-float64(lo))
	}
	med := median(s)
	if med == 0 {
		return 0
	}
	return (q(0.75) - q(0.25)) / math.Abs(med)
}

func mean(vals []float64) float64 {
	if len(vals) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, v := range vals {
		sum += v
	}
	return sum / float64(len(vals))
}
