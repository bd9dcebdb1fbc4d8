package gemm

import (
	"fmt"

	"t3sim/internal/units"
)

// Tiling describes how a tiled GEMM kernel blocks its output: each WG
// produces a TileM×TileN block of C, split among WFPerWG wavefronts that
// each produce a complete WF sub-tile. The paper's tracker assumes exactly
// this structure ("each WF/WG generates a complete tile of data", §4.2.1),
// matching the tiled kernels in rocBLAS/cuBLAS/CUTLASS.
type Tiling struct {
	TileM, TileN int
	WFPerWG      int
	// SplitK is the K-dimension work split: SplitK WGs cooperate on one
	// output tile, each producing a partial tile that must be reduced
	// (§7.7). 1 means the standard data-parallel-over-output tiling.
	SplitK int
}

// DefaultTiling matches the 128×128 macro-tile, 4-wavefront kernels the
// evaluated BLAS libraries pick for large Transformer GEMMs.
func DefaultTiling() Tiling {
	return Tiling{TileM: 128, TileN: 128, WFPerWG: 4, SplitK: 1}
}

// Validate reports whether the tiling is usable.
func (t Tiling) Validate() error {
	if t.TileM <= 0 || t.TileN <= 0 {
		return fmt.Errorf("gemm: non-positive tile in %+v", t)
	}
	if t.WFPerWG <= 0 || t.WFPerWG > 8 {
		// The tracker tags WFs with 3 bits (§4.2.1), so at most 8 per WG.
		return fmt.Errorf("gemm: WFPerWG = %d, must be in 1..8", t.WFPerWG)
	}
	if t.SplitK <= 0 {
		return fmt.Errorf("gemm: SplitK = %d, must be positive", t.SplitK)
	}
	return nil
}

// Grid is the launch geometry of a Shape under a Tiling.
type Grid struct {
	Shape  Shape
	Tiling Tiling

	WGsM, WGsN int // WG grid covering the output
	NumWGs     int // total WGs (including the SplitK factor)
	WFTileM    int // rows of one WF's sub-tile
	WFTileN    int // cols of one WF's sub-tile
}

// NewGrid derives the launch geometry. The WF sub-tile split is along M
// (each WF owns TileM/WFPerWG rows of the WG tile), the common layout for
// the modeled kernels; when TileM is not divisible the last WF's tile is
// smaller, which the byte accounting below rounds against the caller. A
// shape whose byte, FLOP or wavefront counts overflow int64 is rejected.
func NewGrid(s Shape, t Tiling) (Grid, error) {
	if err := s.Validate(); err != nil {
		return Grid{}, err
	}
	if err := t.Validate(); err != nil {
		return Grid{}, err
	}
	if err := s.checkSizes(); err != nil {
		return Grid{}, err
	}
	g := Grid{Shape: s, Tiling: t}
	g.WGsM = int(units.CeilDiv(int64(s.M), int64(t.TileM)))
	g.WGsN = int(units.CeilDiv(int64(s.N), int64(t.TileN)))
	if _, ok := checkedProduct(int64(g.WGsM), int64(g.WGsN), int64(t.SplitK), int64(t.WFPerWG)); !ok {
		return Grid{}, fmt.Errorf("gemm: %v: wavefront count WGsM·WGsN·SplitK·WFPerWG overflows int64 under %+v", s, t)
	}
	g.NumWGs = g.WGsM * g.WGsN * t.SplitK
	g.WFTileM = int(units.CeilDiv(int64(t.TileM), int64(t.WFPerWG)))
	g.WFTileN = t.TileN
	return g, nil
}

// NumWFs returns the total wavefront count of the launch.
func (g Grid) NumWFs() int { return g.NumWGs * g.Tiling.WFPerWG }

// WFTileBytes returns the output bytes one wavefront is responsible for: the
// quantum the T3 tracker counts against. The paper's driver computes it as
// (M·N)/#WF (§4.2.1), which equals the geometric WF sub-tile for exact
// launches and apportions boundary raggedness evenly otherwise. Split-K WGs
// share tiles, so the division uses the WF count of one K-slice.
func (g Grid) WFTileBytes() units.Bytes {
	wfsPerSlice := int64(g.NumWFs()) / int64(g.Tiling.SplitK)
	elems := int64(g.Shape.M) * int64(g.Shape.N)
	return units.Bytes(elems/wfsPerSlice) * g.Shape.ElemBytes
}

// WGTileBytes returns the output bytes one workgroup produces.
func (g Grid) WGTileBytes() units.Bytes {
	return units.Bytes(int64(g.Tiling.TileM)*int64(g.Tiling.TileN)) * g.Shape.ElemBytes
}

// UpdatesPerElement returns how many times each output element is written
// for this launch geometry: 1 for standard tilings, SplitK for split-K
// kernels where each of the SplitK partial tiles updates the element (§7.7).
func (g Grid) UpdatesPerElement() int { return g.Tiling.SplitK }

// WGInputBytes returns the operand bytes one WG streams to produce its tile:
// a TileM×K panel of A plus a K×TileN panel of B (K already divided across
// the SplitK WGs sharing the tile).
func (g Grid) WGInputBytes() units.Bytes {
	k := int64(units.CeilDiv(int64(g.Shape.K), int64(g.Tiling.SplitK)))
	a := int64(g.Tiling.TileM) * k
	b := k * int64(g.Tiling.TileN)
	return units.Bytes(a+b) * g.Shape.ElemBytes
}

// WGFLOPs returns the MAC work of one WG.
func (g Grid) WGFLOPs() int64 {
	k := units.CeilDiv(int64(g.Shape.K), int64(g.Tiling.SplitK))
	return 2 * int64(g.Tiling.TileM) * int64(g.Tiling.TileN) * k
}

// Stages returns how many full waves of WGs the launch needs when at most
// concurrentWGs can be resident at once, and the WG count of each stage.
// Every stage but possibly the last is full (§2.5).
func (g Grid) Stages(concurrentWGs int) []int {
	if concurrentWGs <= 0 {
		panic("gemm: Stages with non-positive concurrency")
	}
	n := g.NumWGs
	var stages []int
	for n > 0 {
		w := concurrentWGs
		if n < w {
			w = n
		}
		stages = append(stages, w)
		n -= w
	}
	return stages
}
