package rng

import (
	"math"
	"testing"
)

// TestFixedSeedStreams pins the exact head of several fixed-seed streams.
// These values are load-bearing: the serving golden snapshots depend on every
// draw, so a change here is a change to every serving experiment's output.
// Never "refresh" these constants to make the test pass — a mismatch means
// the generator algorithm changed, which is a breaking change.
func TestFixedSeedStreams(t *testing.T) {
	cases := []struct {
		seed uint64
		want [4]uint32
	}{
		{seed: 0, want: headOf(0)},
		{seed: 1, want: headOf(1)},
		{seed: 42, want: headOf(42)},
	}
	// First, structural pins: regenerating must reproduce itself exactly.
	for _, c := range cases {
		r := New(c.seed)
		for i, w := range c.want {
			if g := r.Uint32(); g != w {
				t.Errorf("seed %d draw %d: got %d, want %d", c.seed, i, g, w)
			}
		}
	}
	// Second, hard-coded pins for seed 42 so the stream can never drift
	// silently between builds (headOf would follow a drifting algorithm).
	r := New(42)
	got := [4]uint32{r.Uint32(), r.Uint32(), r.Uint32(), r.Uint32()}
	want := [4]uint32{4252926801, 1148020438, 1582319135, 142375219}
	if got != want {
		t.Fatalf("seed 42 stream head changed: got %v, want %v — this breaks every serving golden", got, want)
	}
}

func headOf(seed uint64) [4]uint32 {
	r := New(seed)
	return [4]uint32{r.Uint32(), r.Uint32(), r.Uint32(), r.Uint32()}
}

func TestMixDeterministicAndSpread(t *testing.T) {
	if Mix(7, 3) != Mix(7, 3) {
		t.Fatal("Mix not deterministic")
	}
	seen := map[uint64]bool{}
	for i := uint64(0); i < 1000; i++ {
		v := Mix(12345, i)
		if seen[v] {
			t.Fatalf("Mix collision at stream %d", i)
		}
		seen[v] = true
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(9)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", f)
		}
	}
}

func TestExpMoments(t *testing.T) {
	r := New(11)
	const n = 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		v := r.Exp()
		if v < 0 || math.IsInf(v, 0) || math.IsNaN(v) {
			t.Fatalf("Exp produced %v", v)
		}
		sum += v
	}
	mean := sum / n
	if mean < 0.98 || mean > 1.02 {
		t.Fatalf("Exp mean = %v, want ~1", mean)
	}
}

func TestIntRanges(t *testing.T) {
	r := New(5)
	seenLo, seenHi := false, false
	for i := 0; i < 10000; i++ {
		v := r.IntRange(3, 7)
		if v < 3 || v > 7 {
			t.Fatalf("IntRange out of bounds: %d", v)
		}
		if v == 3 {
			seenLo = true
		}
		if v == 7 {
			seenHi = true
		}
	}
	if !seenLo || !seenHi {
		t.Error("IntRange never hit an endpoint in 10k draws")
	}
	for i := 0; i < 10000; i++ {
		v := r.LogInt(NewLogRange(16, 1024))
		if v < 16 || v > 1024 {
			t.Fatalf("LogInt out of bounds: %d", v)
		}
	}
	if got := r.LogInt(NewLogRange(8, 8)); got != 8 {
		t.Fatalf("degenerate LogInt = %d", got)
	}
}

// TestUniformity is a coarse chi-squared-free sanity check: each of 16
// buckets of Uint32 should hold roughly 1/16 of the draws.
func TestUniformity(t *testing.T) {
	r := New(77)
	const n = 160000
	var buckets [16]int
	for i := 0; i < n; i++ {
		buckets[r.Uint32()>>28]++
	}
	for i, c := range buckets {
		frac := float64(c) / n
		if frac < 0.055 || frac > 0.07 {
			t.Errorf("bucket %d holds %.4f of draws, want ~0.0625", i, frac)
		}
	}
}

func TestAllocFree(t *testing.T) {
	r := New(1)
	allocs := testing.AllocsPerRun(1000, func() {
		_ = r.Uint64()
		_ = r.Float64()
		_ = r.Exp()
		_ = r.IntRange(1, 10)
	})
	if allocs != 0 {
		t.Fatalf("Rand draws allocate: %v allocs/run", allocs)
	}
}

// TestLogIntMatchesInlineFormula: a prepared LogRange draws exactly what the
// inline log-uniform formula draws, from the same stream.
func TestLogIntMatchesInlineFormula(t *testing.T) {
	for _, rg := range [][2]int{{1, 1}, {8, 8}, {1, 2}, {16, 1024}, {128, 512}, {3, 100000}} {
		lo, hi := rg[0], rg[1]
		lr := NewLogRange(lo, hi)
		a, b := New(99), New(99)
		for i := 0; i < 2000; i++ {
			want := lo
			if lo != hi {
				v := math.Exp(math.Log(float64(lo)) + b.Float64()*(math.Log(float64(hi)+1)-math.Log(float64(lo))))
				want = min(max(int(v), lo), hi)
			}
			if got := a.LogInt(lr); got != want {
				t.Fatalf("[%d,%d] draw %d: LogInt = %d, inline formula %d", lo, hi, i, got, want)
			}
		}
		if a != b {
			t.Fatalf("[%d,%d]: streams diverged", lo, hi)
		}
	}
}
