package stats

import (
	"math"
	"math/rand/v2"
	"sort"
	"testing"
	"testing/quick"
)

func TestGeomean(t *testing.T) {
	g, err := Geomean([]float64{1, 4})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(g-2) > 1e-12 {
		t.Errorf("Geomean(1,4) = %v, want 2", g)
	}
	if _, err := Geomean(nil); err != ErrEmpty {
		t.Errorf("Geomean(nil) err = %v, want ErrEmpty", err)
	}
	if _, err := Geomean([]float64{1, -1}); err == nil {
		t.Error("Geomean with negative value: want error")
	}
}

func TestGeomeanBetweenMinAndMax(t *testing.T) {
	f := func(a, b, c uint16) bool {
		xs := []float64{float64(a) + 1, float64(b) + 1, float64(c) + 1}
		g := MustGeomean(xs)
		lo, _ := Min(xs)
		hi, _ := Max(xs)
		return g >= lo-1e-9 && g <= hi+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMeanMinMax(t *testing.T) {
	xs := []float64{3, 1, 2}
	if m, _ := Mean(xs); m != 2 {
		t.Errorf("Mean = %v, want 2", m)
	}
	if m, _ := Min(xs); m != 1 {
		t.Errorf("Min = %v, want 1", m)
	}
	if m, _ := Max(xs); m != 3 {
		t.Errorf("Max = %v, want 3", m)
	}
	for _, f := range []func([]float64) (float64, error){Mean, Min, Max} {
		if _, err := f(nil); err != ErrEmpty {
			t.Errorf("empty input err = %v, want ErrEmpty", err)
		}
	}
}

func TestRelError(t *testing.T) {
	if e := RelError(110, 100); math.Abs(e-0.1) > 1e-12 {
		t.Errorf("RelError = %v, want 0.1", e)
	}
	if e := RelError(0, 0); e != 0 {
		t.Errorf("RelError(0,0) = %v, want 0", e)
	}
	if e := RelError(1, 0); !math.IsInf(e, 1) {
		t.Errorf("RelError(1,0) = %v, want +Inf", e)
	}
}

func TestGeomeanRelError(t *testing.T) {
	got := []float64{110, 95}
	want := []float64{100, 100}
	g, err := GeomeanRelError(got, want)
	if err != nil {
		t.Fatal(err)
	}
	wantG := math.Sqrt(0.1 * 0.05)
	if math.Abs(g-wantG) > 1e-12 {
		t.Errorf("GeomeanRelError = %v, want %v", g, wantG)
	}
	if _, err := GeomeanRelError([]float64{1}, []float64{1, 2}); err == nil {
		t.Error("length mismatch: want error")
	}
	// Exact matches do not blow up the geomean.
	if _, err := GeomeanRelError([]float64{1, 2}, []float64{1, 2}); err != nil {
		t.Errorf("exact match: %v", err)
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3} // unsorted on purpose
	cases := []struct {
		p    float64
		want float64
	}{
		{0, 1}, {10, 1}, {20, 1}, {21, 2}, {50, 3}, {80, 4}, {99, 5}, {100, 5},
	}
	for _, c := range cases {
		got, err := Percentile(xs, c.p)
		if err != nil {
			t.Fatalf("p%.0f: %v", c.p, err)
		}
		if got != c.want {
			t.Errorf("Percentile(p=%v) = %v, want %v", c.p, got, c.want)
		}
	}
	// The input must not be mutated.
	if xs[0] != 5 || xs[4] != 3 {
		t.Error("Percentile mutated its input")
	}
	if _, err := Percentile(nil, 50); err != ErrEmpty {
		t.Errorf("empty input err = %v, want ErrEmpty", err)
	}
	for _, bad := range []float64{-1, 101, math.NaN()} {
		if _, err := Percentile(xs, bad); err == nil {
			t.Errorf("Percentile(p=%v): want error", bad)
		}
	}
	// Single element: every percentile is that element.
	for _, p := range []float64{0, 50, 100} {
		if got, _ := Percentile([]float64{7}, p); got != 7 {
			t.Errorf("Percentile([7], %v) = %v", p, got)
		}
	}
}

func TestPercentileSortedMatchesAndAllocs(t *testing.T) {
	sorted := []float64{1, 2, 3, 4, 5, 6, 7, 8}
	for p := 0.0; p <= 100; p += 0.5 {
		a, _ := Percentile(sorted, p)
		b, _ := PercentileSorted(sorted, p)
		if a != b {
			t.Fatalf("p=%v: Percentile %v != PercentileSorted %v", p, a, b)
		}
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := PercentileSorted(sorted, 99); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("PercentileSorted allocates: %v allocs/run", allocs)
	}
}

func TestSpeedup(t *testing.T) {
	if s := Speedup(2, 1); s != 2 {
		t.Errorf("Speedup = %v, want 2", s)
	}
	if s := Speedup(1, 0); !math.IsInf(s, 1) {
		t.Errorf("Speedup(1,0) = %v, want +Inf", s)
	}
}

// TestSelectNearestRankMatchesSort is the property the serving summaries
// rely on: selecting p99 by NearestRank, then p50 from the prefix p99's
// selection leaves, gives exactly PercentileSorted's p50 and p99 — on
// samples of every size 1..300, with runs of duplicates.
func TestSelectNearestRankMatchesSort(t *testing.T) {
	r := rand.New(rand.NewPCG(7, 11))
	for n := 1; n <= 300; n++ {
		for trial := 0; trial < 8; trial++ {
			distinct := 1 + r.IntN(n) // few distinct values force duplicates
			xs := make([]int64, n)
			fs := make([]float64, n)
			for i := range xs {
				xs[i] = r.Int64N(int64(distinct)) * 1000
				fs[i] = float64(xs[i])
			}
			sort.Float64s(fs)
			want50, _ := PercentileSorted(fs, 50)
			want99, _ := PercentileSorted(fs, 99)
			k99 := NearestRank(n, 99) - 1
			got99 := Select(xs, k99)
			got50 := Select(xs[:k99+1], NearestRank(n, 50)-1)
			if float64(got50) != want50 || float64(got99) != want99 {
				t.Fatalf("n=%d trial %d: p50/p99 = %d/%d by selection, %v/%v by sort",
					n, trial, got50, got99, want50, want99)
			}
		}
	}
}

// TestSelectEveryRank checks Select against a sorted copy at every rank and
// the partition it leaves behind.
func TestSelectEveryRank(t *testing.T) {
	r := rand.New(rand.NewPCG(3, 5))
	for _, n := range []int{1, 2, 3, 7, 64, 257} {
		base := make([]float64, n)
		for i := range base {
			base[i] = float64(r.IntN(n/2 + 1))
		}
		sorted := append([]float64(nil), base...)
		sort.Float64s(sorted)
		for k := 0; k < n; k++ {
			xs := append([]float64(nil), base...)
			if got := Select(xs, k); got != sorted[k] {
				t.Fatalf("n=%d: Select(k=%d) = %v, want %v", n, k, got, sorted[k])
			}
			for i, x := range xs {
				if (i < k && x > sorted[k]) || (i > k && x < sorted[k]) {
					t.Fatalf("n=%d k=%d: xs[%d] = %v on the wrong side of %v", n, k, i, x, sorted[k])
				}
			}
		}
	}
}

func TestNearestRank(t *testing.T) {
	for _, tc := range []struct {
		n    int
		p    float64
		want int
	}{{1, 50, 1}, {1, 99, 1}, {2, 50, 1}, {2, 99, 2}, {100, 99, 99}, {101, 99, 100}, {200, 50, 100}, {10, 0, 1}, {10, 100, 10}} {
		if got := NearestRank(tc.n, tc.p); got != tc.want {
			t.Errorf("NearestRank(%d, %v) = %d, want %d", tc.n, tc.p, got, tc.want)
		}
	}
}
