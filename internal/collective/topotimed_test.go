package collective

import (
	"fmt"
	"strings"
	"testing"

	"t3sim/internal/check"
	"t3sim/internal/interconnect"
	"t3sim/internal/memory"
	"t3sim/internal/sim"
	"t3sim/internal/units"
)

// testSpecs returns one spec per topology kind, all on 8 devices so every
// algorithm (including halving-doubling) is a candidate everywhere.
func testSpecs() []interconnect.TopoSpec {
	cfg := interconnect.DefaultConfig()
	inter := cfg
	inter.LinkBandwidth = 25 * units.GBps
	inter.LinkLatency = 2 * units.Microsecond
	return []interconnect.TopoSpec{
		interconnect.RingTopo(8, cfg),
		interconnect.TorusTopo(2, 4, cfg),
		interconnect.SwitchTopo(8, cfg),
		interconnect.HierarchicalTopo(2, 4, cfg, inter),
	}
}

// topoHarness builds a shared-engine topology and per-device memory
// controllers.
func topoHarness(t *testing.T, spec interconnect.TopoSpec) (*sim.Engine, TopoOptions) {
	t.Helper()
	eng := sim.NewEngine()
	topo, err := spec.Build(eng)
	if err != nil {
		t.Fatal(err)
	}
	devs := make([]*Device, spec.Devices)
	for i := range devs {
		mc, err := memory.NewController(eng, memory.DefaultConfig(), memory.ComputeFirst{})
		if err != nil {
			t.Fatal(err)
		}
		devs[i] = &Device{ID: i, Mem: mc}
	}
	return eng, TopoOptions{
		Topo:              topo,
		Devices:           devs,
		TotalBytes:        8 * units.MiB,
		BlockBytes:        32 * units.KiB,
		CUs:               80,
		PerCUMemBandwidth: 16 * units.GBps,
		Stream:            memory.StreamComm,
	}
}

// clusterTopoHarness is topoHarness with every device on its own cluster
// engine; lookahead is the spec's minimum link latency.
func clusterTopoHarness(t *testing.T, spec interconnect.TopoSpec) (*sim.Cluster, TopoOptions) {
	t.Helper()
	cl := sim.NewCluster(spec.Devices, spec.MinLinkLatency())
	topo, err := spec.BuildCluster(cl)
	if err != nil {
		t.Fatal(err)
	}
	devs := make([]*Device, spec.Devices)
	for i := range devs {
		mc, err := memory.NewController(cl.Engine(i), memory.DefaultConfig(), memory.ComputeFirst{})
		if err != nil {
			t.Fatal(err)
		}
		devs[i] = &Device{ID: i, Mem: mc}
	}
	return cl, TopoOptions{
		Topo:              topo,
		Devices:           devs,
		TotalBytes:        8 * units.MiB,
		BlockBytes:        32 * units.KiB,
		CUs:               80,
		PerCUMemBandwidth: 16 * units.GBps,
		Stream:            memory.StreamComm,
	}
}

func runTopo(t *testing.T, eng *sim.Engine, algo Algorithm, op Op, o TopoOptions) units.Time {
	t.Helper()
	var done units.Time
	if err := StartTopoCollective(eng, algo, op, o, func() { done = eng.Now() }); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if done == 0 {
		t.Fatalf("%v %v never completed", algo, op)
	}
	return done
}

// TestTopoRingMatchesLegacyRing pins the timed engine to its ancestor: the
// ring algorithm on a ring topology reproduces the completion times of the
// deleted ring-only timed collective exactly — same rotation, same
// deferred-fold reads, same final merge kernel. The literals were recorded
// from that implementation on the same 16 MiB harness.
func TestTopoRingMatchesLegacyRing(t *testing.T) {
	for _, tc := range []struct {
		devices int
		name    string
		op      Op
		nmc     bool
		legacy  units.Time
	}{
		{2, "rs", ReduceScatterOp, false, 137757568},
		{2, "rs-nmc", ReduceScatterOp, true, 112657280},
		{2, "ag", AllGatherOp, false, 112591744},
		{4, "rs", ReduceScatterOp, false, 182635136},
		{4, "rs-nmc", ReduceScatterOp, true, 170197632},
		{4, "ag", AllGatherOp, false, 170001024},
		{8, "rs", ReduceScatterOp, false, 207377536},
		{8, "rs-nmc", ReduceScatterOp, true, 201391232},
		{8, "ag", AllGatherOp, false, 200932480},
	} {
		eng, o := harness(t, tc.devices)
		o.NMC = tc.nmc
		if got := runTopo(t, eng, AlgoRing, tc.op, o); got != tc.legacy {
			t.Errorf("n=%d %s: topo ring %v != legacy ring %v", tc.devices, tc.name, got, tc.legacy)
		}
	}
}

// TestTopoCollectiveClusterMatchesShared requires every (topology ×
// algorithm × op) cell to complete at identical times whether the devices
// share one engine or each owns a cluster engine — at every worker count.
func TestTopoCollectiveClusterMatchesShared(t *testing.T) {
	for _, spec := range testSpecs() {
		for _, algo := range CandidateAlgorithms(spec) {
			for _, op := range []Op{ReduceScatterOp, AllGatherOp, AllReduceOp} {
				spec, algo, op := spec, algo, op
				t.Run(fmt.Sprintf("%v/%v/%v", spec.Kind, algo, op), func(t *testing.T) {
					t.Parallel()
					eng, so := topoHarness(t, spec)
					want := runTopo(t, eng, algo, op, so)
					wantDev := make([]units.Time, spec.Devices)

					for _, workers := range []int{1, 2, 4} {
						cl, co := clusterTopoHarness(t, spec)
						chk := check.New()
						co.Check = chk
						cr, err := StartClusterTopoCollective(cl, algo, op, co)
						if err != nil {
							t.Fatal(err)
						}
						cl.Run(workers)
						cr.Finish()
						if got := cr.Done(); got != want {
							t.Errorf("workers=%d: done %v, want %v", workers, got, want)
						}
						for d := 0; d < spec.Devices; d++ {
							if workers == 1 {
								wantDev[d] = cr.DeviceDone(d)
							} else if got := cr.DeviceDone(d); got != wantDev[d] {
								t.Errorf("workers=%d: device %d done %v, want %v", workers, d, got, wantDev[d])
							}
						}
						if gotB, wantB := co.Topo.SentBytes(), so.Topo.SentBytes(); gotB != wantB {
							t.Errorf("workers=%d: wire bytes %v, want %v", workers, gotB, wantB)
						}
						if !chk.Ok() {
							t.Errorf("workers=%d: violations: %v", workers, chk.Violations())
						}
					}
				})
			}
		}
	}
}

// TestTopoCollectiveConservationLaws runs the heterogeneous two-level
// topology with the full checker attached — per-link lookahead laws on every
// mailbox (intra- and inter-node latencies), the cross-engine wire ledger,
// and the per-device incoming bounds — and demands a clean bill.
func TestTopoCollectiveConservationLaws(t *testing.T) {
	cfg := interconnect.DefaultConfig()
	inter := cfg
	inter.LinkBandwidth = 25 * units.GBps
	inter.LinkLatency = 2 * units.Microsecond
	spec := interconnect.HierarchicalTopo(2, 4, cfg, inter)
	for _, algo := range CandidateAlgorithms(spec) {
		cl, co := clusterTopoHarness(t, spec)
		chk := check.New()
		for _, e := range cl.Engines() {
			e.AttachChecker(chk)
		}
		co.Check = chk
		co.Topo.AttachChecker(chk)
		cr, err := StartClusterTopoCollective(cl, algo, AllReduceOp, co)
		if err != nil {
			t.Fatal(err)
		}
		cl.Run(2)
		cr.Finish()
		if cr.Done() == 0 {
			t.Fatalf("%v: never completed", algo)
		}
		if !chk.Ok() {
			t.Errorf("%v: violations: %v", algo, chk.Violations())
		}
	}
}

// TestTopoMisroutedChunkTripsBound falsifies the per-device conservation
// law: redirect one scheduled transfer to the wrong device after the
// expectations are registered and the victim's incoming-bytes bound must
// trip.
func TestTopoMisroutedChunkTripsBound(t *testing.T) {
	spec := interconnect.SwitchTopo(4, interconnect.DefaultConfig())
	eng, o := topoHarness(t, spec)
	chk := check.New()
	o.Check = chk
	r, err := newGraphRun(eng, nil, AlgoDirect, AllGatherOp, o, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Device 0's chunk was promised to device 1; deliver it to device 2
	// instead. Device 2 now stages more wire bytes than the schedule owes it.
	ops := r.sched.rounds[0]
	for i, op := range ops {
		if op.src == 0 && op.dst == 1 {
			ops[i].dst = 2
		}
	}
	r.start()
	eng.Run()
	if chk.Ok() {
		t.Fatal("mis-routed chunk staged without tripping the incoming bound")
	}
	found := false
	for _, v := range chk.Violations() {
		if strings.Contains(v.String(), "collective.topo.dev2.incoming") {
			found = true
		}
	}
	if !found {
		t.Errorf("expected a dev2 incoming-bound violation, got %v", chk.Violations())
	}
}
