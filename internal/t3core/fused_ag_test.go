package t3core

import (
	"testing"

	"t3sim/internal/gemm"
	"t3sim/internal/memory"
	"t3sim/internal/units"
)

func agOpts(t *testing.T, devices int) FusedOptions {
	t.Helper()
	o := fusedOpts(t, devices)
	// The grid is the producer's local shard for all-gather.
	g, err := gemm.NewGrid(gemm.Shape{M: 2048, N: 512, K: 1024, ElemBytes: 2}, gemm.DefaultTiling())
	if err != nil {
		t.Fatal(err)
	}
	o.Grid = g
	o.Collective = RingAllGather
	return o
}

func TestFusedAGCompletes(t *testing.T) {
	res, err := RunFused(agOpts(t, 4))
	if err != nil {
		t.Fatal(err)
	}
	if res.GEMMDone <= 0 || res.CollectiveDone <= 0 || res.Done < res.CollectiveDone {
		t.Fatalf("times: %+v", res)
	}
}

func TestFusedAGTrafficAccounting(t *testing.T) {
	n := 4
	o := agOpts(t, n)
	res, err := RunFused(o)
	if err != nil {
		t.Fatal(err)
	}
	shard := units.Bytes(o.Grid.NumWFs()) * o.Grid.WFTileBytes()

	// Local writes: own shard (compute stream) + n-1 staged shards (comm).
	if got := res.DRAM.Bytes[memory.Write][memory.StreamCompute]; got != shard {
		t.Errorf("own shard writes = %v, want %v", got, shard)
	}
	if got := res.DRAM.Bytes[memory.Write][memory.StreamComm]; got != shard*units.Bytes(n-1) {
		t.Errorf("staged writes = %v, want %v", got, shard*units.Bytes(n-1))
	}
	// Forward reads: hops 1..n-2 re-read staged shards.
	if got := res.DRAM.Bytes[memory.Read][memory.StreamComm]; got != shard*units.Bytes(n-2) {
		t.Errorf("forward reads = %v, want %v", got, shard*units.Bytes(n-2))
	}
	// No reductions anywhere: zero NMC updates (§7.1).
	if got := res.DRAM.KindBytes(memory.Update); got != 0 {
		t.Errorf("all-gather produced %v updates, want 0", got)
	}
	// Link: own shard + n-2 forwards.
	if res.LinkBytes != shard*units.Bytes(n-1) {
		t.Errorf("link bytes = %v, want %v", res.LinkBytes, shard*units.Bytes(n-1))
	}
	// DMA triggers: hops 1..n-2 per tile.
	wantDMA := int64(o.Grid.NumWFs()) * int64(n-2)
	if res.DMATriggered != wantDMA {
		t.Errorf("DMA triggered = %d, want %d", res.DMATriggered, wantDMA)
	}
}

func TestFusedAGOverlapShape(t *testing.T) {
	// The gather of n-1 shards should largely hide behind the producer:
	// exposure is bounded by roughly one shard's wire time per residual hop,
	// far below the full serialized all-gather.
	o := agOpts(t, 8)
	res, err := RunFused(o)
	if err != nil {
		t.Fatal(err)
	}
	shard := units.Bytes(o.Grid.NumWFs()) * o.Grid.WFTileBytes()
	serialized := o.Link.LinkBandwidth.TransferTime(shard * 7)
	exposure := res.Done - res.GEMMDone
	if exposure >= serialized {
		t.Errorf("exposed %v not below serialized AG %v", exposure, serialized)
	}
}

func TestFusedAGValidation(t *testing.T) {
	o := agOpts(t, 4)
	o.Grid.Tiling.SplitK = 2
	if _, err := RunFused(o); err == nil {
		t.Error("split-K all-gather: expected error")
	}
	o = agOpts(t, 1)
	if _, err := RunFused(o); err == nil {
		t.Error("single device: expected error")
	}
}

func a2aOpts(t *testing.T, devices int) FusedOptions {
	t.Helper()
	o := fusedOpts(t, devices)
	o.Collective = AllToAll
	return o
}

func TestFusedAllToAllCompletes(t *testing.T) {
	res, err := RunFused(a2aOpts(t, 4))
	if err != nil {
		t.Fatal(err)
	}
	if res.GEMMDone <= 0 || res.Done <= 0 {
		t.Fatalf("times: %+v", res)
	}
}

func TestFusedAllToAllTraffic(t *testing.T) {
	n := 4
	o := a2aOpts(t, n)
	res, err := RunFused(o)
	if err != nil {
		t.Fatal(err)
	}
	total := units.Bytes(o.Grid.NumWFs()) * o.Grid.WFTileBytes()
	chunk := total / units.Bytes(n)

	// Owned chunk stored locally; remote-mapped output not written locally
	// at all (§7.1).
	if got := res.DRAM.Bytes[memory.Write][memory.StreamCompute]; got != chunk {
		t.Errorf("local writes = %v, want %v (owned chunk only)", got, chunk)
	}
	// Incoming: n-1 chunks staged.
	if got := res.DRAM.Bytes[memory.Write][memory.StreamComm]; got != chunk*units.Bytes(n-1) {
		t.Errorf("incoming writes = %v, want %v", got, chunk*units.Bytes(n-1))
	}
	// No collective reads, no updates, no forwarding.
	if got := res.DRAM.Bytes[memory.Read][memory.StreamComm]; got != 0 {
		t.Errorf("collective reads = %v, want 0", got)
	}
	if got := res.DRAM.KindBytes(memory.Update); got != 0 {
		t.Errorf("updates = %v, want 0", got)
	}
	if res.LinkBytes != chunk*units.Bytes(n-1) {
		t.Errorf("link bytes = %v, want %v", res.LinkBytes, chunk*units.Bytes(n-1))
	}
}

func TestFusedAllToAllValidation(t *testing.T) {
	o := a2aOpts(t, 4)
	o.Grid.Tiling.SplitK = 2
	if _, err := RunFused(o); err == nil {
		t.Error("split-K all-to-all: expected error")
	}
	o = a2aOpts(t, 1)
	if _, err := RunFused(o); err == nil {
		t.Error("single device: expected error")
	}
}
