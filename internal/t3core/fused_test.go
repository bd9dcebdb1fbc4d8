package t3core

import (
	"testing"

	"t3sim/internal/gemm"
	"t3sim/internal/gpu"
	"t3sim/internal/interconnect"
	"t3sim/internal/memory"
	"t3sim/internal/units"
)

func fusedOpts(t *testing.T, devices int) FusedOptions {
	t.Helper()
	g, err := gemm.NewGrid(gemm.Shape{M: 2048, N: 2048, K: 512, ElemBytes: 2}, gemm.DefaultTiling())
	if err != nil {
		t.Fatal(err)
	}
	return FusedOptions{
		GPU:         gpu.DefaultConfig(),
		Memory:      memory.DefaultConfig(),
		Link:        interconnect.DefaultConfig(),
		Tracker:     DefaultTrackerConfig(),
		Devices:     devices,
		Grid:        g,
		Arbitration: ArbRoundRobin,
		Collective:  RingReduceScatter,
	}
}

func TestFusedRunCompletes(t *testing.T) {
	res, err := RunFused(fusedOpts(t, 4))
	if err != nil {
		t.Fatal(err)
	}
	if res.GEMMDone <= 0 || res.CollectiveDone <= 0 || res.Done <= 0 {
		t.Fatalf("missing times: %+v", res)
	}
	if res.CollectiveDone < res.GEMMDone {
		// The owned chunk needs the GEMM's last phase, so it cannot finish
		// before the GEMM's local stores.
		t.Errorf("collective done %v before GEMM done %v", res.CollectiveDone, res.GEMMDone)
	}
	if res.Done < res.CollectiveDone {
		t.Errorf("done %v before collective done %v", res.Done, res.CollectiveDone)
	}
}

func TestFusedTrafficAccounting(t *testing.T) {
	n := 4
	o := fusedOpts(t, n)
	res, err := RunFused(o)
	if err != nil {
		t.Fatal(err)
	}
	tiles := o.Grid.NumWFs()
	tileBytes := o.Grid.WFTileBytes()
	total := units.Bytes(tiles) * tileBytes
	chunk := total / units.Bytes(n) // phases are equal here (tiles % n == 0)

	// GEMM local updates: phases 1..n-1 = (n-1)/n of the output.
	wantLocal := chunk * units.Bytes(n-1)
	gotLocal := res.DRAM.Bytes[memory.Update][memory.StreamCompute]
	if gotLocal != wantLocal {
		t.Errorf("local updates = %v, want %v", gotLocal, wantLocal)
	}
	// Incoming updates: 1 remote-written chunk + n-2 DMA chunks = (n-1)/n.
	wantIn := chunk * units.Bytes(n-1)
	gotIn := res.DRAM.Bytes[memory.Update][memory.StreamComm]
	if gotIn != wantIn {
		t.Errorf("incoming updates = %v, want %v", gotIn, wantIn)
	}
	// DMA reads: n-2 chunks.
	wantRead := chunk * units.Bytes(n-2)
	gotRead := res.DRAM.Bytes[memory.Read][memory.StreamComm]
	if gotRead != wantRead {
		t.Errorf("DMA reads = %v, want %v", gotRead, wantRead)
	}
	// Link: phase-0 remote writes + n-2 DMA chunks = (n-1)/n of the output.
	wantLink := chunk * units.Bytes(n-1)
	if res.LinkBytes != wantLink {
		t.Errorf("link bytes = %v, want %v", res.LinkBytes, wantLink)
	}
	// No plain writes anywhere: everything is NMC updates (§4.3).
	if w := res.DRAM.KindBytes(memory.Write); w != 0 {
		t.Errorf("unexpected plain writes: %v", w)
	}
	// DMA triggers: tiles of phases 1..n-2.
	wantDMA := int64(tiles) * int64(n-2) / int64(n)
	if res.DMATriggered != wantDMA {
		t.Errorf("DMA triggered = %d, want %d", res.DMATriggered, wantDMA)
	}
}

func TestFusedVsSequentialDataMovement(t *testing.T) {
	// T3's whole-point check: the fused run moves far fewer DRAM bytes for
	// the collective than the baseline's 2(n-1)+1 chunk reads and n chunk
	// writes (Figure 10 / Figure 18).
	n := 8
	o := fusedOpts(t, n)
	res, err := RunFused(o)
	if err != nil {
		t.Fatal(err)
	}
	total := units.Bytes(o.Grid.NumWFs()) * o.Grid.WFTileBytes()
	chunk := total / units.Bytes(n)
	baselineRSReads := chunk * units.Bytes(2*(n-1)-1+2)
	fusedCollectiveReads := res.DRAM.Bytes[memory.Read][memory.StreamComm]
	ratio := float64(baselineRSReads) / float64(fusedCollectiveReads)
	// (2n-1)/(n-2): 2.5x for n=8 (the paper's RS read reduction at TP=8).
	if ratio < 2.3 || ratio > 2.7 {
		t.Errorf("RS read reduction = %.2fx, want ~2.5x", ratio)
	}
}

func TestFusedTrackerWithinBudget(t *testing.T) {
	res, err := RunFused(fusedOpts(t, 8))
	if err != nil {
		t.Fatal(err)
	}
	tr, _ := NewTracker(DefaultTrackerConfig())
	if res.TrackerMaxLive > tr.Capacity() {
		t.Errorf("tracker high-water %d exceeds hardware capacity %d", res.TrackerMaxLive, tr.Capacity())
	}
	if res.TrackerMaxLive == 0 {
		t.Error("tracker never used")
	}
}

func TestFusedMCACalibrates(t *testing.T) {
	o := fusedOpts(t, 4)
	o.Arbitration = ArbMCA
	res, err := RunFused(o)
	if err != nil {
		t.Fatal(err)
	}
	if res.MCAThreshold == 0 {
		t.Error("MCA threshold not calibrated")
	}
}

func TestFusedMCANotSlowerThanRoundRobin(t *testing.T) {
	// MCA exists to prevent communication bursts from stalling the GEMM; it
	// must not lose to round-robin.
	base := fusedOpts(t, 8)
	rr, err := RunFused(base)
	if err != nil {
		t.Fatal(err)
	}
	base.Arbitration = ArbMCA
	mca, err := RunFused(base)
	if err != nil {
		t.Fatal(err)
	}
	if float64(mca.Done) > float64(rr.Done)*1.02 {
		t.Errorf("MCA (%v) slower than round-robin (%v)", mca.Done, rr.Done)
	}
}

func TestFusedDirectRS(t *testing.T) {
	o := fusedOpts(t, 4)
	o.Collective = DirectReduceScatter
	res, err := RunFused(o)
	if err != nil {
		t.Fatal(err)
	}
	// §7.1: direct-RS is orchestrated entirely by GEMM stores — the
	// collective issues no memory reads and no DMAs.
	if r := res.DRAM.Bytes[memory.Read][memory.StreamComm]; r != 0 {
		t.Errorf("direct-RS issued %v collective reads, want 0", r)
	}
	if res.DMATriggered != 0 {
		t.Errorf("direct-RS triggered %d DMAs, want 0", res.DMATriggered)
	}
	if res.Done <= 0 {
		t.Error("no completion time")
	}
	// All n-1 slices of every tile cross the links.
	total := units.Bytes(o.Grid.NumWFs()) * o.Grid.WFTileBytes()
	want := total / units.Bytes(o.Devices) * units.Bytes(o.Devices-1)
	if res.LinkBytes != want {
		t.Errorf("link bytes = %v, want %v", res.LinkBytes, want)
	}
}

func TestFusedSplitK(t *testing.T) {
	o := fusedOpts(t, 4)
	til := gemm.DefaultTiling()
	til.SplitK = 2
	g, err := gemm.NewGrid(gemm.Shape{M: 2048, N: 2048, K: 2048, ElemBytes: 2}, til)
	if err != nil {
		t.Fatal(err)
	}
	o.Grid = g
	res, err := RunFused(o)
	if err != nil {
		t.Fatal(err)
	}
	// Split-K doubles the local update volume for phases 1..n-1 (§7.7).
	tiles := g.NumWFs() / 2
	tileBytes := g.WFTileBytes()
	chunk := units.Bytes(tiles) * tileBytes / 4
	wantLocal := 2 * chunk * 3
	if got := res.DRAM.Bytes[memory.Update][memory.StreamCompute]; got != wantLocal {
		t.Errorf("split-K local updates = %v, want %v", got, wantLocal)
	}
}

func TestFusedValidation(t *testing.T) {
	cases := []func(*FusedOptions){
		func(o *FusedOptions) { o.Devices = 1 },
		func(o *FusedOptions) { o.GPU.CUs = 0 },
		func(o *FusedOptions) { o.Memory.Channels = 0 },
		func(o *FusedOptions) { o.Link.PacketSize = 0 },
		func(o *FusedOptions) { o.Tracker.Sets = 0 },
		func(o *FusedOptions) { o.Grid.Shape.M = 0 },
		func(o *FusedOptions) { o.Collective = Collective(9) }, // unknown collective
		func(o *FusedOptions) { o.Devices = 1 << 20 },          // more devices than tiles
	}
	for i, mutate := range cases {
		o := fusedOpts(t, 4)
		mutate(&o)
		if _, err := RunFused(o); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
}

func TestFusedOverlapBeatsSequentialShape(t *testing.T) {
	// The fused completion should exceed the GEMM by much less than a full
	// serialized reduce-scatter would add: the communication hides behind
	// compute except for a per-chunk tail.
	o := fusedOpts(t, 8)
	res, err := RunFused(o)
	if err != nil {
		t.Fatal(err)
	}
	exposure := res.Done - res.GEMMDone
	// A serialized ring-RS of this output at link speed:
	total := units.Bytes(o.Grid.NumWFs()) * o.Grid.WFTileBytes()
	wire := o.Link.LinkBandwidth.TransferTime(total * 7 / 8)
	if exposure >= wire {
		t.Errorf("exposed communication %v not below serialized wire time %v", exposure, wire)
	}
}

func TestArbitrationStrings(t *testing.T) {
	if ArbRoundRobin.String() != "round-robin" || ArbMCA.String() != "mca" ||
		ArbComputeFirst.String() != "compute-first" || Arbitration(9).String() == "" {
		t.Error("arbitration strings wrong")
	}
}
