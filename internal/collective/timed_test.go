package collective

import (
	"testing"

	"t3sim/internal/interconnect"
	"t3sim/internal/memory"
	"t3sim/internal/sim"
	"t3sim/internal/units"
)

// harness builds an engine, a Table 1 ring topology and per-device memory
// controllers for a 16 MiB array.
func harness(t *testing.T, devices int) (*sim.Engine, TopoOptions) {
	t.Helper()
	eng, o := topoHarness(t, interconnect.RingTopo(devices, interconnect.DefaultConfig()))
	o.TotalBytes = 16 * units.MiB
	return eng, o
}

func runRS(t *testing.T, eng *sim.Engine, o TopoOptions) units.Time {
	t.Helper()
	return runTopo(t, eng, AlgoRing, ReduceScatterOp, o)
}

func runAG(t *testing.T, eng *sim.Engine, o TopoOptions) units.Time {
	t.Helper()
	return runTopo(t, eng, AlgoRing, AllGatherOp, o)
}

func analyticOpts(o TopoOptions) AnalyticOptions {
	return AnalyticOptions{
		Devices:           o.Topo.Devices(),
		TotalBytes:        o.TotalBytes,
		Link:              o.Topo.Spec().Link,
		MemBandwidth:      o.Devices[0].Mem.Config().TotalBandwidth,
		CUs:               o.CUs,
		PerCUMemBandwidth: o.PerCUMemBandwidth,
		NMC:               o.NMC,
	}
}

func TestOptionsValidate(t *testing.T) {
	_, o := harness(t, 4)
	if err := o.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []func(*TopoOptions){
		func(o *TopoOptions) { o.Topo = nil },
		func(o *TopoOptions) { o.Devices = o.Devices[:2] },
		func(o *TopoOptions) { o.TotalBytes = 0 },
		func(o *TopoOptions) { o.BlockBytes = 0 },
		func(o *TopoOptions) { o.CUs = 0 },
		func(o *TopoOptions) { o.PerCUMemBandwidth = 0 },
		func(o *TopoOptions) { o.Devices[0] = nil },
	}
	for i, mutate := range bad {
		_, o := harness(t, 4)
		mutate(&o)
		if err := o.Validate(); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
}

func TestRSMatchesAnalyticLinkBound(t *testing.T) {
	// With plentiful CUs the run is link-bound; the DES must land close to
	// the analytic model (the paper's Figure 14 validation, 6% error).
	for _, n := range []int{2, 4, 8} {
		eng, o := harness(t, n)
		got := runRS(t, eng, o)
		want, err := AnalyticRingReduceScatterTime(analyticOpts(o))
		if err != nil {
			t.Fatal(err)
		}
		rel := float64(got-want) / float64(want)
		if rel < -0.10 || rel > 0.10 {
			t.Errorf("n=%d: DES %v vs analytic %v (%.1f%%)", n, got, want, rel*100)
		}
	}
}

func TestAGMatchesAnalytic(t *testing.T) {
	for _, n := range []int{2, 4, 8} {
		eng, o := harness(t, n)
		got := runAG(t, eng, o)
		want, err := AnalyticRingAllGatherTime(analyticOpts(o))
		if err != nil {
			t.Fatal(err)
		}
		rel := float64(got-want) / float64(want)
		if rel < -0.10 || rel > 0.10 {
			t.Errorf("n=%d: DES %v vs analytic %v (%.1f%%)", n, got, want, rel*100)
		}
	}
}

func TestRSScalesWithSize(t *testing.T) {
	eng1, o1 := harness(t, 4)
	o1.TotalBytes = 8 * units.MiB
	t1 := runRS(t, eng1, o1)
	eng2, o2 := harness(t, 4)
	o2.TotalBytes = 32 * units.MiB
	t2 := runRS(t, eng2, o2)
	ratio := float64(t2) / float64(t1)
	if ratio < 3.5 || ratio > 4.5 {
		t.Errorf("4x size gave %.2fx time, want ~4x", ratio)
	}
}

func TestRSSlowsWithFewCUs(t *testing.T) {
	// The §3.2.1 effect: starving the collective kernel of CUs slows it.
	eng80, o80 := harness(t, 8)
	o80.CUs = 80
	t80 := runRS(t, eng80, o80)

	eng8, o8 := harness(t, 8)
	o8.CUs = 8
	t8 := runRS(t, eng8, o8)

	slowdown := float64(t8) / float64(t80)
	// The paper reports ~41% geomean slowdown for AR at 8 CUs; RS alone is
	// the reduction-heavy half, so expect a substantial hit.
	if slowdown < 1.2 {
		t.Errorf("8-CU slowdown = %.2fx, want > 1.2x", slowdown)
	}
	// And 16 CUs should be much closer to full speed (paper: ~7%).
	eng16, o16 := harness(t, 8)
	o16.CUs = 16
	t16 := runRS(t, eng16, o16)
	if s := float64(t16) / float64(t80); s > 1.15 {
		t.Errorf("16-CU slowdown = %.2fx, want <= 1.15x", s)
	}
}

func TestNMCReducesTrafficAndFinalStep(t *testing.T) {
	engB, oB := harness(t, 4)
	tBase := runRS(t, engB, oB)
	var baseReads units.Bytes
	for _, d := range oB.Devices {
		baseReads += d.Mem.Counters().KindBytes(memory.Read)
	}

	engN, oN := harness(t, 4)
	oN.NMC = true
	tNMC := runRS(t, engN, oN)
	var nmcReads, nmcUpdates units.Bytes
	for _, d := range oN.Devices {
		nmcReads += d.Mem.Counters().KindBytes(memory.Read)
		nmcUpdates += d.Mem.Counters().KindBytes(memory.Update)
	}

	if tNMC >= tBase {
		t.Errorf("NMC RS (%v) not faster than baseline (%v)", tNMC, tBase)
	}
	// Baseline reads per device: (2(N-1)-1+2) chunks; NMC: (N-1) chunks.
	// For N=4 that is 7/3 = 2.33x fewer reads.
	ratio := float64(baseReads) / float64(nmcReads)
	if ratio < 2.0 || ratio > 2.7 {
		t.Errorf("read reduction = %.2fx, want ~2.33x", ratio)
	}
	if nmcUpdates == 0 {
		t.Error("NMC run produced no update traffic")
	}
}

func TestRSTrafficAccounting(t *testing.T) {
	// Exact byte accounting for the baseline (Figure 10a): per device with
	// equal chunks, reads = (2(N-1)-1+2)*chunk, writes = (N-1+1)*chunk.
	n := 4
	eng, o := harness(t, n)
	o.TotalBytes = 8 * units.MiB // divisible by 4
	runRS(t, eng, o)
	chunk := o.TotalBytes / units.Bytes(n)
	wantReads := units.Bytes(2*(n-1)-1+2) * chunk
	wantWrites := units.Bytes(n-1+1) * chunk
	for i, d := range o.Devices {
		r := d.Mem.Counters().KindBytes(memory.Read)
		w := d.Mem.Counters().KindBytes(memory.Write)
		if r != wantReads {
			t.Errorf("device %d reads = %v, want %v", i, r, wantReads)
		}
		if w != wantWrites {
			t.Errorf("device %d writes = %v, want %v", i, w, wantWrites)
		}
	}
}

func TestAGTrafficAccounting(t *testing.T) {
	n := 4
	eng, o := harness(t, n)
	o.TotalBytes = 8 * units.MiB
	runAG(t, eng, o)
	chunk := o.TotalBytes / units.Bytes(n)
	want := units.Bytes(n-1) * chunk
	for i, d := range o.Devices {
		r := d.Mem.Counters().KindBytes(memory.Read)
		w := d.Mem.Counters().KindBytes(memory.Write)
		if r != want || w != want {
			t.Errorf("device %d r=%v w=%v, want %v each", i, r, w, want)
		}
	}
}

func TestRSBandwidthAsymptote(t *testing.T) {
	// For large link-bound arrays, RS time approaches
	// (N-1)/N * total / linkBW.
	eng, o := harness(t, 8)
	o.TotalBytes = 64 * units.MiB
	got := runRS(t, eng, o)
	ideal := o.Topo.Spec().Link.LinkBandwidth.TransferTime(o.TotalBytes * 7 / 8)
	rel := float64(got-ideal) / float64(ideal)
	if rel < 0 || rel > 0.15 {
		t.Errorf("RS %v vs wire lower bound %v (%.1f%% over)", got, ideal, rel*100)
	}
}

func TestUnequalChunksStillComplete(t *testing.T) {
	eng, o := harness(t, 3)
	o.TotalBytes = 10*units.MiB + 1 // not divisible by 3
	if tm := runRS(t, eng, o); tm <= 0 {
		t.Error("non-positive completion time")
	}
}

func TestAnalyticValidation(t *testing.T) {
	_, o := harness(t, 4)
	a := analyticOpts(o)
	bad := []func(*AnalyticOptions){
		func(a *AnalyticOptions) { a.Devices = 1 },
		func(a *AnalyticOptions) { a.TotalBytes = 0 },
		func(a *AnalyticOptions) { a.MemBandwidth = 0 },
		func(a *AnalyticOptions) { a.CUs = 0 },
		func(a *AnalyticOptions) { a.PerCUMemBandwidth = 0 },
		func(a *AnalyticOptions) { a.Link = interconnect.Config{} },
	}
	for i, mutate := range bad {
		aa := a
		mutate(&aa)
		if _, err := AnalyticRingReduceScatterTime(aa); err == nil {
			t.Errorf("RS case %d: expected error", i)
		}
		if _, err := AnalyticRingAllGatherTime(aa); err == nil {
			t.Errorf("AG case %d: expected error", i)
		}
		if _, err := AnalyticRingAllReduceTime(aa); err == nil {
			t.Errorf("AR case %d: expected error", i)
		}
	}
	ar, err := AnalyticRingAllReduceTime(a)
	if err != nil {
		t.Fatal(err)
	}
	rs, _ := AnalyticRingReduceScatterTime(a)
	ag, _ := AnalyticRingAllGatherTime(a)
	if ar != rs+ag {
		t.Error("AR != RS + AG")
	}
}
