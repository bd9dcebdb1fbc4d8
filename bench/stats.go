package main

import "sort"

// summary is the spread of one metric's samples: the passes of one run, or
// the runs of one side of a comparison.
type summary struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
	N      int     `json:"n"`
}

// summarize returns the median, quartiles and range of xs (all zero when xs
// is empty).
func summarize(xs []float64) summary {
	if len(xs) == 0 {
		return summary{}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	q1, q3 := quartiles(s)
	return summary{Median: median(s), Q1: q1, Q3: q3, Min: s[0], Max: s[len(s)-1], N: len(s)}
}

// median of an ascending, non-empty sample.
func median(sorted []float64) float64 {
	n := len(sorted)
	if n%2 == 1 {
		return sorted[n/2]
	}
	return (sorted[n/2-1] + sorted[n/2]) / 2
}

// quartiles returns the first and third quartiles of an ascending, non-empty
// sample exactly as Python's statistics.quantiles(xs, n=4) computes them
// (its default "exclusive" method), so the spreads this program prints are
// the spreads anyone recomputing them from the result files gets. A single
// sample is its own quartiles.
func quartiles(sorted []float64) (q1, q3 float64) {
	ld := len(sorted)
	if ld == 1 {
		return sorted[0], sorted[0]
	}
	cut := func(i int) float64 {
		m := ld + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*4
		return (sorted[j-1]*float64(4-delta) + sorted[j]*float64(delta)) / 4
	}
	return cut(1), cut(3)
}

// pairWins pairs base[i] with change[i] in order and counts the pairs the
// change wins and loses; ties count for neither side.
func pairWins(base, change []float64, lowerIsBetter bool) (wins, losses, pairs int) {
	pairs = min(len(base), len(change))
	for i := 0; i < pairs; i++ {
		b, c := base[i], change[i]
		if !lowerIsBetter {
			b, c = -b, -c
		}
		switch {
		case c < b:
			wins++
		case c > b:
			losses++
		}
	}
	return wins, losses, pairs
}
