package main

import (
	"math"
	"sort"
)

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (the "inclusive" method); 0 for an empty sample.
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

func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}

// ratio is a/b, or 0 when the base is 0 (a layer the workload bypasses).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// spread is the run-to-run spread the acceptance rule uses: the distance
// between the first and third quartile as a share of the median. With
// fewer than four values there are no quartiles to speak of, so the full
// range stands in.
func spread(xs []float64) float64 {
	m := median(xs)
	if len(xs) < 2 || m == 0 {
		return 0
	}
	if len(xs) < 4 {
		return (quantile(xs, 1) - quantile(xs, 0)) / math.Abs(m)
	}
	q1, q3 := exclusiveQuartiles(xs)
	return (q3 - q1) / math.Abs(m)
}

// exclusiveQuartiles matches Python's statistics.quantiles(xs, n=4),
// which the acceptance driver uses.
func exclusiveQuartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(p float64) float64 {
		pos := p * float64(len(s)+1)
		j := int(math.Floor(pos))
		if j < 1 {
			return s[0]
		}
		if j >= len(s) {
			return s[len(s)-1]
		}
		return s[j-1] + (s[j]-s[j-1])*(pos-float64(j))
	}
	return at(0.25), at(0.75)
}
