package t3core

import (
	"testing"

	"t3sim/internal/gemm"
	"t3sim/internal/interconnect"
	"t3sim/internal/memory"
	"t3sim/internal/units"
)

func TestFusedDMABlockGranularity(t *testing.T) {
	// Larger DMA blocks must preserve byte conservation and completion
	// while reducing trigger count.
	base := fusedOpts(t, 4)
	r1, err := RunFused(base)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{2, 4, 8} {
		o := fusedOpts(t, 4)
		o.DMATilesPerBlock = k
		rk, err := RunFused(o)
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		// Same total DMA read volume and incoming update volume.
		if rk.DRAM.Bytes[memory.Read][memory.StreamComm] != r1.DRAM.Bytes[memory.Read][memory.StreamComm] {
			t.Errorf("k=%d: DMA read bytes %v != %v", k,
				rk.DRAM.Bytes[memory.Read][memory.StreamComm],
				r1.DRAM.Bytes[memory.Read][memory.StreamComm])
		}
		if rk.LinkBytes != r1.LinkBytes {
			t.Errorf("k=%d: link bytes %v != %v", k, rk.LinkBytes, r1.LinkBytes)
		}
		if rk.Done <= 0 {
			t.Errorf("k=%d: no completion", k)
		}
		// Completion time may differ slightly (burstier), but not wildly.
		rel := float64(rk.Done)/float64(r1.Done) - 1
		if rel < -0.2 || rel > 0.2 {
			t.Errorf("k=%d: Done %v vs %v (%.1f%%)", k, rk.Done, r1.Done, 100*rel)
		}
	}
}

func TestFusedDMABlockUnevenChunks(t *testing.T) {
	// Chunk sizes that are not multiples of the block size still complete.
	o := fusedOpts(t, 3)
	o.DMATilesPerBlock = 7
	res, err := RunFused(o)
	if err != nil {
		t.Fatal(err)
	}
	if res.Done <= 0 {
		t.Error("no completion")
	}
}

// pinnedMCADatapaths runs each fused datapath and reports the MCA threshold
// its result carries.
var pinnedMCADatapaths = []struct {
	name string
	opts func(t *testing.T) FusedOptions
	run  func(FusedOptions) (threshold int, done units.Time, err error)
}{
	{"rs", func(t *testing.T) FusedOptions { return fusedOpts(t, 8) },
		func(o FusedOptions) (int, units.Time, error) {
			r, err := RunFused(o)
			return r.MCAThreshold, r.Done, err
		}},
	{"ag", func(t *testing.T) FusedOptions { return agOpts(t, 4) },
		func(o FusedOptions) (int, units.Time, error) {
			r, err := RunFused(o)
			return r.MCAThreshold, r.Done, err
		}},
	{"all-to-all", func(t *testing.T) FusedOptions { return a2aOpts(t, 4) },
		func(o FusedOptions) (int, units.Time, error) {
			r, err := RunFused(o)
			return r.MCAThreshold, r.Done, err
		}},
	{"multi-device", func(t *testing.T) FusedOptions { return fusedOpts(t, 4) },
		func(o FusedOptions) (int, units.Time, error) {
			r, err := RunFusedGEMMRSMultiDevice(o)
			return r.MCAThreshold, r.Done, err
		}},
}

func TestFusedPinnedMCAThreshold(t *testing.T) {
	// The §6.1.3 fixed-threshold sweep on every datapath: each pinned
	// threshold completes, and the pinned value survives the monitor window.
	for _, dp := range pinnedMCADatapaths {
		for _, th := range []int{5, 10, 30, memory.MCANoLimit} {
			o := dp.opts(t)
			o.Arbitration = ArbMCA // still runs the monitor window
			o.FixedMCAThreshold = th
			got, done, err := dp.run(o)
			if err != nil {
				t.Fatalf("%s threshold %d: %v", dp.name, th, err)
			}
			if got != th {
				t.Errorf("%s: threshold %d overridden to %d", dp.name, th, got)
			}
			if done <= 0 {
				t.Errorf("%s threshold %d: no completion", dp.name, th)
			}
		}
	}
}

func TestFusedPinnedMCAThresholdValidate(t *testing.T) {
	for _, c := range []struct {
		arb Arbitration
		th  int
	}{
		{ArbRoundRobin, 10},
		{ArbComputeFirst, 10},
		{ArbRoundRobin, memory.MCANoLimit},
		{ArbMCA, -2},
	} {
		for _, dp := range pinnedMCADatapaths {
			o := dp.opts(t)
			o.Arbitration = c.arb
			o.FixedMCAThreshold = c.th
			if _, _, err := dp.run(o); err == nil {
				t.Errorf("%s: %v with pinned threshold %d accepted", dp.name, c.arb, c.th)
			}
		}
	}
	o := fusedOpts(t, 4)
	o.Arbitration = ArbMCA
	o.FixedMCAThreshold = memory.MCANoLimit
	if err := o.Validate(); err != nil {
		t.Errorf("MCA with MCANoLimit rejected: %v", err)
	}
}

func TestMCAPinnedThresholdIgnoresMonitor(t *testing.T) {
	mca := memory.NewMCA(memory.DefaultMCAConfig())
	mca.SetThreshold(30)
	mca.SetIntensity(0.95) // would map to 5
	if mca.Threshold() != 30 {
		t.Errorf("pinned threshold overridden: %d", mca.Threshold())
	}
	if !mca.Calibrated() {
		t.Error("pinned MCA should report calibrated")
	}
}

func TestFusedDMABlockTriggerCounts(t *testing.T) {
	// With k tiles per block the number of link sends shrinks ~k-fold; the
	// tracker still fires once per tile.
	o := fusedOpts(t, 4)
	o.DMATilesPerBlock = 4
	res, err := RunFused(o)
	if err != nil {
		t.Fatal(err)
	}
	tiles := o.Grid.NumWFs()
	wantFires := int64(tiles) * 3 / 4 // phases 1..3 of 4 fire
	if res.DMATriggered != int64(tiles)/2 {
		// DMA table consumed once per tile of phases 1..2 (n-2 chunks).
		t.Errorf("DMA table consumed %d, want %d", res.DMATriggered, tiles/2)
	}
	_ = wantFires
	// Byte conservation: incoming updates still (n-1)/n of the output.
	total := units.Bytes(tiles) * o.Grid.WFTileBytes()
	want := total / 4 * 3
	if got := res.DRAM.Bytes[memory.Update][memory.StreamComm]; got != want {
		t.Errorf("incoming updates %v, want %v", got, want)
	}
}

// TestFusedValidateMatchesRun pins that validation accepts exactly the
// options the runners run: for every mirror collective Validate() == nil
// iff RunFused succeeds, and for the explicit run its rules hold iff
// RunFusedGEMMRSMultiDevice succeeds.
func TestFusedValidateMatchesRun(t *testing.T) {
	zero := interconnect.DefaultConfig()
	zero.LinkLatency = 0
	mutations := []struct {
		name string
		set  func(o *FusedOptions)
	}{
		{"base", func(*FusedOptions) {}},
		{"split-k-2", func(o *FusedOptions) {
			til := o.Grid.Tiling
			til.SplitK = 2
			g, err := gemm.NewGrid(o.Grid.Shape, til)
			if err != nil {
				t.Fatal(err)
			}
			o.Grid = g
		}},
		{"ring-topo", func(o *FusedOptions) { o.Topo = interconnect.RingTopo(4, interconnect.DefaultConfig()) }},
		{"switch-topo", func(o *FusedOptions) { o.Topo = interconnect.SwitchTopo(4, interconnect.DefaultConfig()) }},
		{"topo-size", func(o *FusedOptions) { o.Topo = interconnect.RingTopo(8, interconnect.DefaultConfig()) }},
		{"zero-latency", func(o *FusedOptions) { o.Link = zero }},
		{"pinned-rr", func(o *FusedOptions) { o.FixedMCAThreshold = 10 }},
		{"pinned-mca", func(o *FusedOptions) { o.Arbitration, o.FixedMCAThreshold = ArbMCA, 10 }},
		{"one-device", func(o *FusedOptions) { o.Devices = 1 }},
		{"too-many-devices", func(o *FusedOptions) { o.Devices = 1 << 20 }},
		{"unknown-collective", func(o *FusedOptions) { o.Collective = Collective(9) }},
	}
	runs := []struct {
		name     string
		coll     Collective
		validate func(FusedOptions) error
		run      func(FusedOptions) error
	}{
		{"rs", RingReduceScatter, FusedOptions.Validate, mirrorErr},
		{"direct", DirectReduceScatter, FusedOptions.Validate, mirrorErr},
		{"ag", RingAllGather, FusedOptions.Validate, mirrorErr},
		{"a2a", AllToAll, FusedOptions.Validate, mirrorErr},
		{"explicit", RingReduceScatter, func(o FusedOptions) error { return o.validate(true) },
			func(o FusedOptions) error { _, err := RunFusedGEMMRSMultiDevice(o); return err }},
	}
	for _, rn := range runs {
		for _, m := range mutations {
			o := parOptions(t, 512, 512, 128, 4)
			o.Collective = rn.coll
			m.set(&o)
			verr, rerr := rn.validate(o), rn.run(o)
			if (verr == nil) != (rerr == nil) {
				t.Errorf("%s/%s: validate error %v, run error %v", rn.name, m.name, verr, rerr)
			}
		}
	}
}

func mirrorErr(o FusedOptions) error {
	_, err := RunFused(o)
	return err
}
