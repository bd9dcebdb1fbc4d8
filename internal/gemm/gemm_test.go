package gemm

import (
	"strings"
	"testing"
	"testing/quick"

	"t3sim/internal/units"
)

func shape(m, n, k int) Shape { return Shape{M: m, N: n, K: k, ElemBytes: 2} }

func TestShapeBasics(t *testing.T) {
	s := shape(1024, 512, 256)
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := s.FLOPs(); got != 2*1024*512*256 {
		t.Errorf("FLOPs = %d", got)
	}
	if got := s.OutputBytes(); got != 1024*512*2 {
		t.Errorf("OutputBytes = %v", got)
	}
	if got := s.ABytes(); got != 1024*256*2 {
		t.Errorf("ABytes = %v", got)
	}
	if got := s.BBytes(); got != 256*512*2 {
		t.Errorf("BBytes = %v", got)
	}
	if got := s.InputBytes(); got != s.ABytes()+s.BBytes() {
		t.Errorf("InputBytes = %v", got)
	}
}

func TestShapeValidate(t *testing.T) {
	bad := []Shape{
		{M: 0, N: 1, K: 1, ElemBytes: 2},
		{M: 1, N: -1, K: 1, ElemBytes: 2},
		{M: 1, N: 1, K: 0, ElemBytes: 2},
		{M: 1, N: 1, K: 1, ElemBytes: 0},
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("case %d: expected error for %v", i, s)
		}
	}
}

func TestShapeString(t *testing.T) {
	s := Shape{M: 8, N: 4, K: 2, ElemBytes: 2, TransB: true}
	if got := s.String(); got != "GEMM[8x4x2 NT e2]" {
		t.Errorf("String = %q", got)
	}
}

func TestSliceK(t *testing.T) {
	s := shape(100, 100, 1000)
	sl, err := s.SliceK(8)
	if err != nil {
		t.Fatal(err)
	}
	if sl.K != 125 || sl.M != 100 || sl.N != 100 {
		t.Errorf("SliceK = %v", sl)
	}
	// Output size is invariant under slicing — the T3 premise.
	if sl.OutputBytes() != s.OutputBytes() {
		t.Error("slicing changed output size")
	}
	if _, err := s.SliceK(0); err == nil {
		t.Error("SliceK(0): expected error")
	}
	if _, err := s.SliceK(2000); err == nil {
		t.Error("SliceK > K: expected error")
	}
	// Rounding never loses work.
	sl7, _ := s.SliceK(7)
	if sl7.K*7 < 1000 {
		t.Errorf("SliceK(7) lost work: K=%d", sl7.K)
	}
}

func TestGridGeometry(t *testing.T) {
	g, err := NewGrid(shape(1024, 512, 256), DefaultTiling())
	if err != nil {
		t.Fatal(err)
	}
	if g.WGsM != 8 || g.WGsN != 4 || g.NumWGs != 32 {
		t.Errorf("grid = %dx%d (%d WGs)", g.WGsM, g.WGsN, g.NumWGs)
	}
	if g.NumWFs() != 128 {
		t.Errorf("NumWFs = %d", g.NumWFs())
	}
	if g.WFTileM != 32 || g.WFTileN != 128 {
		t.Errorf("WF tile = %dx%d", g.WFTileM, g.WFTileN)
	}
	if g.WFTileBytes() != 32*128*2 {
		t.Errorf("WFTileBytes = %v", g.WFTileBytes())
	}
	if g.WGTileBytes() != 128*128*2 {
		t.Errorf("WGTileBytes = %v", g.WGTileBytes())
	}
	if g.UpdatesPerElement() != 1 {
		t.Errorf("UpdatesPerElement = %d", g.UpdatesPerElement())
	}
}

// TestGridRejectsOverflowingShapes: a shape whose size arithmetic would wrap
// int64 fails in NewGrid with an error naming the shape and the product,
// instead of reaching the tracker with a zero or negative WF tile.
func TestGridRejectsOverflowingShapes(t *testing.T) {
	const big = 1 << 32
	cases := []struct {
		name  string
		shape Shape
		til   Tiling
		want  string // product named in the error; "" = accepted
	}{
		// M·N = 2^64 wraps to 0: WFTileBytes used to come out as 0B.
		{"MN wraps to zero", shape(big, big, 8), DefaultTiling(), "M·N·ElemBytes"},
		// M·N·2 = 3.2e19: WFTileBytes used to come out negative.
		{"MN wraps negative", shape(4000000000, 4000000000, 4000000000), DefaultTiling(), "M·N·ElemBytes"},
		{"A bytes", shape(big, 1, big), DefaultTiling(), "M·K·ElemBytes"},
		{"B bytes", shape(1, big, big), DefaultTiling(), "K·N·ElemBytes"},
		{"FLOPs", shape(1<<21, 1<<21, 1<<21), DefaultTiling(), "2·M·N·K"},
		{"WF count", Shape{M: 1 << 40, N: 1 << 20, K: 1, ElemBytes: 1},
			Tiling{TileM: 1, TileN: 1, WFPerWG: 8, SplitK: 1}, "WGsM·WGsN·SplitK·WFPerWG"},
		{"large but fits", shape(1<<20, 1<<20, 1<<20), DefaultTiling(), ""},
	}
	for _, c := range cases {
		g, err := NewGrid(c.shape, c.til)
		if c.want == "" {
			if err != nil {
				t.Errorf("%s: %v", c.name, err)
			} else if g.WFTileBytes() <= 0 {
				t.Errorf("%s: WFTileBytes = %v", c.name, g.WFTileBytes())
			}
			continue
		}
		if err == nil {
			t.Errorf("%s: %v accepted (WFTileBytes %v), want an overflow error", c.name, c.shape, g.WFTileBytes())
			continue
		}
		for _, sub := range []string{c.shape.String(), c.want, "overflows"} {
			if !strings.Contains(err.Error(), sub) {
				t.Errorf("%s: error %q does not mention %q", c.name, err, sub)
			}
		}
	}
}

func TestGridRoundsUpPartialTiles(t *testing.T) {
	g, err := NewGrid(shape(130, 129, 64), DefaultTiling())
	if err != nil {
		t.Fatal(err)
	}
	if g.WGsM != 2 || g.WGsN != 2 || g.NumWGs != 4 {
		t.Errorf("grid = %dx%d (%d)", g.WGsM, g.WGsN, g.NumWGs)
	}
}

func TestGridWFCoverageInvariant(t *testing.T) {
	// The driver's wf_tile_size = (M·N)/#WF apportions the output across
	// WFs: the sum is never above the output and undershoots by less than
	// one element per WF (pure floor-division slack).
	f := func(m, n, k uint8) bool {
		s := shape(int(m)+1, int(n)+1, int(k)+1)
		g, err := NewGrid(s, DefaultTiling())
		if err != nil {
			return false
		}
		covered := units.Bytes(g.NumWFs()) * g.WFTileBytes() / units.Bytes(g.Tiling.SplitK)
		slack := units.Bytes(g.NumWFs()) * s.ElemBytes
		return covered <= s.OutputBytes() && covered+slack > s.OutputBytes()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSplitK(t *testing.T) {
	til := DefaultTiling()
	til.SplitK = 4
	g, err := NewGrid(shape(256, 256, 4096), til)
	if err != nil {
		t.Fatal(err)
	}
	base, _ := NewGrid(shape(256, 256, 4096), DefaultTiling())
	if g.NumWGs != 4*base.NumWGs {
		t.Errorf("split-K WGs = %d, want %d", g.NumWGs, 4*base.NumWGs)
	}
	if g.UpdatesPerElement() != 4 {
		t.Errorf("UpdatesPerElement = %d, want 4", g.UpdatesPerElement())
	}
	// Each split-K WG streams 1/4 of the K panel and does 1/4 of the FLOPs.
	if g.WGFLOPs() != base.WGFLOPs()/4 {
		t.Errorf("split-K WGFLOPs = %d, want %d", g.WGFLOPs(), base.WGFLOPs()/4)
	}
	if g.WGInputBytes() != base.WGInputBytes()/4 {
		t.Errorf("split-K WGInputBytes = %v, want %v", g.WGInputBytes(), base.WGInputBytes()/4)
	}
}

func TestStages(t *testing.T) {
	g, _ := NewGrid(shape(1024, 1024, 128), DefaultTiling()) // 64 WGs
	st := g.Stages(20)
	if len(st) != 4 {
		t.Fatalf("stages = %v, want 4 waves", st)
	}
	want := []int{20, 20, 20, 4}
	total := 0
	for i, w := range st {
		if w != want[i] {
			t.Errorf("stage %d = %d, want %d", i, w, want[i])
		}
		total += w
	}
	if total != g.NumWGs {
		t.Errorf("stage sum = %d, want %d", total, g.NumWGs)
	}
}

func TestStagesPanics(t *testing.T) {
	g, _ := NewGrid(shape(128, 128, 128), DefaultTiling())
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	g.Stages(0)
}

func TestTilingValidate(t *testing.T) {
	bad := []Tiling{
		{TileM: 0, TileN: 128, WFPerWG: 4, SplitK: 1},
		{TileM: 128, TileN: 0, WFPerWG: 4, SplitK: 1},
		{TileM: 128, TileN: 128, WFPerWG: 0, SplitK: 1},
		{TileM: 128, TileN: 128, WFPerWG: 9, SplitK: 1}, // 3-bit wf_id limit
		{TileM: 128, TileN: 128, WFPerWG: 4, SplitK: 0},
	}
	for i, til := range bad {
		if err := til.Validate(); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
	if err := DefaultTiling().Validate(); err != nil {
		t.Errorf("DefaultTiling invalid: %v", err)
	}
}

func TestEfficiencyShape(t *testing.T) {
	mk := func(k int, transB bool) float64 {
		s := shape(4096, 4096, k)
		s.TransB = transB
		g, err := NewGrid(s, DefaultTiling())
		if err != nil {
			t.Fatal(err)
		}
		return Efficiency(g)
	}
	// Longer K is more efficient.
	if mk(256, false) >= mk(2048, false) {
		t.Error("efficiency should grow with K")
	}
	// Transposed operands cost something.
	if mk(2048, true) >= mk(2048, false) {
		t.Error("transposed B should cost efficiency")
	}
	// In a sane range.
	for _, k := range []int{64, 256, 1024, 4096} {
		e := mk(k, false)
		if e <= 0.05 || e > 1 {
			t.Errorf("Efficiency(K=%d) = %v, out of range", k, e)
		}
	}
	// Large-K dense GEMMs land in the calibrated 50-60% zone.
	if e := mk(2048, false); e < 0.45 || e > 0.75 {
		t.Errorf("Efficiency(K=2048) = %v, want 0.45..0.75", e)
	}
}

func TestEfficiencyPartialTilePenalty(t *testing.T) {
	full, _ := NewGrid(shape(1024, 1024, 1024), DefaultTiling())
	ragged, _ := NewGrid(shape(1024+1, 1024, 1024), DefaultTiling())
	if Efficiency(ragged) >= Efficiency(full) {
		t.Error("ragged grid should be less efficient")
	}
}

func TestSliceN(t *testing.T) {
	s := shape(100, 1000, 100)
	sl, err := s.SliceN(8)
	if err != nil {
		t.Fatal(err)
	}
	if sl.N != 125 || sl.M != 100 || sl.K != 100 {
		t.Errorf("SliceN = %v", sl)
	}
	// Column-parallel shards shrink the output (no reduction needed).
	if sl.OutputBytes() >= s.OutputBytes() {
		t.Error("shard output not smaller")
	}
	if _, err := s.SliceN(0); err == nil {
		t.Error("SliceN(0): expected error")
	}
	if _, err := s.SliceN(2000); err == nil {
		t.Error("SliceN > N: expected error")
	}
	// Rounding never loses columns.
	sl7, _ := s.SliceN(7)
	if sl7.N*7 < 1000 {
		t.Errorf("SliceN(7) lost columns: N=%d", sl7.N)
	}
}
