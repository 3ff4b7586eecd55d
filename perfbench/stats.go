package main

import (
	"math"
	"sort"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (0 for an empty sample). xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// windowedQuantile splits xs, in its order, into k windows of near-equal
// length and returns the median of the windows' q-quantiles. A burst of slow
// values moves only the windows it falls in, so the result holds while the
// burst covers fewer than half of them.
func windowedQuantile(xs []float64, k int, q float64) float64 {
	k = min(k, len(xs))
	if k <= 1 {
		return quantile(xs, q)
	}
	per := make([]float64, k)
	for w := range per {
		per[w] = quantile(xs[w*len(xs)/k:(w+1)*len(xs)/k], q)
	}
	return median(per)
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func maxOf(xs []float64) float64 {
	m := 0.0
	for _, x := range xs {
		m = max(m, x)
	}
	return m
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ratio returns a/b, or 0 when b is 0 (a layer that did no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
