package main

import (
	"slices"
	"sort"
)

// quantile returns the q-quantile of xs by nearest rank (xs is sorted
// in place); 0 when xs is empty.
func quantile(xs []int64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	slices.Sort(xs)
	i := int(q * float64(len(xs)))
	return float64(xs[min(i, len(xs)-1)])
}

// median of a few per-round values; 0 when there are none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// quietQuartile is the quartile of a few per-round values on the good
// side: the first for a metric that is better lower, the third for one
// that is better higher. The shared host this runs on has spells of
// seconds in which everything takes up to twice as long; they only
// ever make a round look worse, so the good-side quartile repeats from
// run to run where the median does not.
func quietQuartile(xs []float64, higher bool) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := 0.25 * float64(len(s)-1)
	if higher {
		pos = 0.75 * float64(len(s)-1)
	}
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
