// Package stats provides the small set of summary statistics used when
// reporting experiment results: geometric means (the paper reports geomean
// speedups), relative errors, nearest-rank percentiles, and min/max helpers.
package stats

import (
	"cmp"
	"errors"
	"math"
	"sort"
)

// ErrEmpty is returned by aggregations over empty inputs.
var ErrEmpty = errors.New("stats: empty input")

// Geomean returns the geometric mean of xs. All values must be positive.
func Geomean(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	sum := 0.0
	for _, x := range xs {
		if x <= 0 {
			return 0, errors.New("stats: geomean of non-positive value")
		}
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs))), nil
}

// MustGeomean is Geomean for inputs known to be valid; it panics on error.
func MustGeomean(xs []float64) float64 {
	g, err := Geomean(xs)
	if err != nil {
		panic(err)
	}
	return g
}

// Mean returns the arithmetic mean of xs.
func Mean(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs)), nil
}

// Max returns the largest element of xs.
func Max(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m, nil
}

// Min returns the smallest element of xs.
func Min(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m, nil
}

// Percentile returns the p-th percentile (0 <= p <= 100) of xs using the
// nearest-rank method on a sorted copy: the smallest element with at least
// ceil(p/100 * n) elements at or below it (p = 0 returns the minimum). The
// nearest-rank definition is exact and interpolation-free, so percentile
// reports are bit-stable — a property the serving golden snapshots pin.
func Percentile(xs []float64, p float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	if p < 0 || p > 100 || math.IsNaN(p) {
		return 0, errors.New("stats: percentile out of [0,100]")
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	return PercentileSorted(sorted, p)
}

// PercentileSorted is Percentile over already-sorted data; it allocates
// nothing. The input must be in ascending order.
func PercentileSorted(sorted []float64, p float64) (float64, error) {
	n := len(sorted)
	if n == 0 {
		return 0, ErrEmpty
	}
	if p < 0 || p > 100 || math.IsNaN(p) {
		return 0, errors.New("stats: percentile out of [0,100]")
	}
	return sorted[NearestRank(n, p)-1], nil
}

// NearestRank returns the 1-based rank of the p-th percentile (0 <= p <=
// 100) of n > 0 samples under the nearest-rank rule: ceil(p/100 * n),
// clamped to [1, n]. It is the one place the percentile rule lives;
// PercentileSorted and selection-based callers both index by it.
func NearestRank(n int, p float64) int {
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return rank
}

// Select returns the k-th smallest element of xs (0-based) by in-place
// quickselect, and leaves xs partitioned around it: every element before
// index k is at most the result and every element after it at least. So a
// smaller rank can then be selected from xs[:k+1] alone. Expected time is
// linear; runs of equal values partition in one pass. xs must hold no NaN,
// and k must index xs.
func Select[T cmp.Ordered](xs []T, k int) T {
	lo, hi := 0, len(xs)-1
	for lo < hi {
		// Median-of-three pivot, then a three-way partition of xs[lo..hi]:
		// [lo, lt) < p, [lt, gt] == p, (gt, hi] > p.
		a, b, c := xs[lo], xs[lo+(hi-lo)/2], xs[hi]
		if a > b {
			a, b = b, a
		}
		if b > c {
			b = c
		}
		p := max(a, b)
		lt, i, gt := lo, lo, hi
		for i <= gt {
			switch x := xs[i]; {
			case x < p:
				xs[lt], xs[i] = x, xs[lt]
				lt++
				i++
			case x > p:
				xs[i], xs[gt] = xs[gt], x
				gt--
			default:
				i++
			}
		}
		switch {
		case k < lt:
			hi = lt - 1
		case k > gt:
			lo = gt + 1
		default:
			return p
		}
	}
	return xs[k]
}

// RelError returns |got-want| / |want|. It is used to validate the
// discrete-event simulator against analytic references (paper Figure 14).
func RelError(got, want float64) float64 {
	if want == 0 {
		if got == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return math.Abs(got-want) / math.Abs(want)
}

// GeomeanRelError returns the geometric mean of per-point relative errors,
// mapping exact matches (error 0) to a 1e-12 floor so the geomean is defined.
func GeomeanRelError(got, want []float64) (float64, error) {
	if len(got) != len(want) {
		return 0, errors.New("stats: length mismatch")
	}
	if len(got) == 0 {
		return 0, ErrEmpty
	}
	errs := make([]float64, len(got))
	for i := range got {
		e := RelError(got[i], want[i])
		if e < 1e-12 {
			e = 1e-12
		}
		errs[i] = e
	}
	return Geomean(errs)
}

// Speedup returns base/new, the conventional speedup of new over base.
func Speedup(base, new float64) float64 {
	if new <= 0 {
		return math.Inf(1)
	}
	return base / new
}
