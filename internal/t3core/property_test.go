package t3core

import (
	"testing"
	"testing/quick"

	"t3sim/internal/gemm"
	"t3sim/internal/gpu"
	"t3sim/internal/interconnect"
	"t3sim/internal/memory"
	"t3sim/internal/units"
)

// TestPropertyFusedRSInvariants: for random sliced GEMM shapes and device
// counts, the fused run completes with exact traffic invariants:
//
//   - GEMM local updates = tiles of phases 1..n-1;
//   - incoming updates mirror outgoing link traffic;
//   - DMA reads = tiles of phases 1..n-2;
//   - collective ordering GEMMDone <= CollectiveDone <= Done.
func TestPropertyFusedRSInvariants(t *testing.T) {
	f := func(mRaw, nRaw, kRaw uint8, devRaw uint8) bool {
		m := (int(mRaw)%8 + 2) * 128 // 256..1152, tile-aligned
		n := (int(nRaw)%8 + 2) * 128
		k := (int(kRaw)%8 + 1) * 64
		devices := []int{2, 3, 4, 8}[int(devRaw)%4]
		g, err := gemm.NewGrid(gemm.Shape{M: m, N: n, K: k, ElemBytes: 2}, gemm.DefaultTiling())
		if err != nil {
			return false
		}
		if g.NumWFs() < devices {
			return true // vacuous: grid too small to chunk
		}
		o := FusedOptions{
			GPU:         gpu.DefaultConfig(),
			Memory:      memory.DefaultConfig(),
			Link:        interconnect.DefaultConfig(),
			Tracker:     TrackerConfig{Sets: 256, Ways: 64, MaxWFsPerWG: 8},
			Devices:     devices,
			Grid:        g,
			Collective:  RingReduceScatter,
			Arbitration: ArbRoundRobin,
		}
		res, err := RunFused(o)
		if err != nil {
			return false
		}
		if res.GEMMDone <= 0 || res.CollectiveDone < res.GEMMDone || res.Done < res.CollectiveDone {
			return false
		}
		// Tile accounting. Phases split the tile space contiguously.
		tiles := g.NumWFs()
		tileBytes := g.WFTileBytes()
		phase0 := tiles / devices // phaseStart[1]
		lastStart := (devices - 1) * tiles / devices
		localTiles := tiles - phase0
		if got := res.DRAM.Bytes[memory.Update][memory.StreamCompute]; got != units.Bytes(localTiles)*tileBytes {
			return false
		}
		// Incoming updates correspond to phases 1..n-1, minus boundary
		// fragments dropped by the mirror (at most one tile per phase edge).
		gotIn := res.DRAM.Bytes[memory.Update][memory.StreamComm]
		wantIn := units.Bytes(localTiles) * tileBytes
		slack := units.Bytes(devices) * tileBytes
		if gotIn > wantIn || gotIn < wantIn-slack {
			return false
		}
		// DMA reads: phases 1..n-2.
		dmaTiles := lastStart - phase0
		if got := res.DRAM.Bytes[memory.Read][memory.StreamComm]; got != units.Bytes(dmaTiles)*tileBytes {
			return false
		}
		// No plain writes under NMC.
		return res.DRAM.KindBytes(memory.Write) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestPropertyMirrorMatchesMultiDevice: across random tile-aligned shapes,
// the mirror run and the explicit multi-device run agree on completion time
// within a small tolerance.
func TestPropertyMirrorMatchesMultiDevice(t *testing.T) {
	f := func(mRaw, nRaw uint8, devRaw uint8) bool {
		m := (int(mRaw)%4 + 2) * 128
		n := (int(nRaw)%4 + 2) * 128
		devices := []int{2, 4}[int(devRaw)%2]
		g, err := gemm.NewGrid(gemm.Shape{M: m, N: n, K: 256, ElemBytes: 2}, gemm.DefaultTiling())
		if err != nil || g.NumWFs() < devices {
			return err == nil
		}
		o := FusedOptions{
			GPU:         gpu.DefaultConfig(),
			Memory:      memory.DefaultConfig(),
			Link:        interconnect.DefaultConfig(),
			Tracker:     TrackerConfig{Sets: 256, Ways: 64, MaxWFsPerWG: 8},
			Devices:     devices,
			Grid:        g,
			Collective:  RingReduceScatter,
			Arbitration: ArbRoundRobin,
		}
		mirror, err := RunFused(o)
		if err != nil {
			return false
		}
		multi, err := RunFusedGEMMRSMultiDevice(o)
		if err != nil {
			return false
		}
		rel := (float64(multi.Done) - float64(mirror.CollectiveDone)) / float64(multi.Done)
		return rel > -0.05 && rel < 0.05
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Error(err)
	}
}

// TestFusedPaperTrackerBudgetFailure: failure injection — running a
// communication-bound sub-layer with the paper's 256x8 tracker overflows a
// set and surfaces an error instead of silently corrupting state.
func TestFusedPaperTrackerBudgetFailure(t *testing.T) {
	g, err := gemm.NewGrid(gemm.Shape{M: 16384, N: 3072, K: 384, ElemBytes: 2}, gemm.DefaultTiling())
	if err != nil {
		t.Fatal(err)
	}
	o := FusedOptions{
		GPU:         gpu.DefaultConfig(),
		Memory:      memory.DefaultConfig(),
		Link:        interconnect.DefaultConfig(),
		Tracker:     DefaultTrackerConfig(), // the paper's 2048-slot budget
		Devices:     8,
		Grid:        g,
		Collective:  RingReduceScatter,
		Arbitration: ArbRoundRobin,
	}
	if _, err := RunFused(o); err == nil {
		t.Error("expected tracker-capacity error for Mega-GPT-2 OP with the paper's budget")
	}
}
