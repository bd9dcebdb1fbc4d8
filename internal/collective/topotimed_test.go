package collective

import (
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

// runConserved runs one checked collective on eng and holds it to the
// conservation oracle: the run completes, every device finishes its schedule
// and stages exactly the wire bytes the schedule owes it — right bytes,
// right device, exactly once — and the checker (wire ledger, incoming
// bounds, plus whatever engine and link witnesses the caller attached)
// stays clean.
func runConserved(t *testing.T, eng *sim.Engine, algo Algorithm, op Op, o TopoOptions, chk *check.Checker, label string) {
	t.Helper()
	o.Check = chk
	done := false
	r, err := newGraphRun(eng, algo, op, o, func() { done = true })
	if err != nil {
		t.Fatal(err)
	}
	r.start()
	eng.Run()
	if !done {
		t.Fatalf("%s: never completed", label)
	}
	for d := 0; d < r.n; d++ {
		if r.cursor[d] != len(r.sched.rounds) {
			t.Errorf("%s: device %d stopped at round %d of %d", label, d, r.cursor[d], len(r.sched.rounds))
		}
		if got, want := r.staged[d], r.sched.expectedIncomingBytes(d); got != want {
			t.Errorf("%s: device %d staged %d wire bytes, want exactly %d", label, d, got, want)
		}
	}
	if !chk.Ok() {
		t.Errorf("%s: violations: %v", label, chk.Violations())
	}
}

// TestTopoCollectiveConservationLaws runs the heterogeneous two-level
// topology with the full checker attached — engine monotonicity, every
// link's serialization witness, the wire ledger and the per-device incoming
// bounds — and demands a clean bill.
func TestTopoCollectiveConservationLaws(t *testing.T) {
	cfg := interconnect.DefaultConfig()
	inter := cfg
	inter.LinkBandwidth = 25 * units.GBps
	inter.LinkLatency = 2 * units.Microsecond
	spec := interconnect.HierarchicalTopo(2, 4, cfg, inter)
	for _, algo := range CandidateAlgorithms(spec) {
		eng, o := topoHarness(t, spec)
		chk := check.New()
		eng.AttachChecker(chk)
		o.Topo.AttachChecker(chk)
		runConserved(t, eng, algo, AllReduceOp, o, chk, algo.String())
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
	r, err := newGraphRun(eng, AlgoDirect, AllGatherOp, o, nil)
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

// TestTopoCollectiveAllocs pins what one timed collective allocates once its
// memory controllers are warm: the run's schedule and fences, plus one pooled
// block op (and its bound handlers) per block in flight at the peak — not a
// fence and closures per block. The ring on a ring topology routes every
// block over one hop, so the topology adds nothing either. Its 1,792 blocks
// cost 14,775 allocations when each block built its own fence and closures.
func TestTopoCollectiveAllocs(t *testing.T) {
	spec := interconnect.RingTopo(8, interconnect.DefaultConfig())
	eng, o := topoHarness(t, spec)
	runTopo(t, eng, AlgoRing, ReduceScatterOp, o) // warm the controllers' queues
	allocs := testing.AllocsPerRun(3, func() { runTopo(t, eng, AlgoRing, ReduceScatterOp, o) })
	if _, _, blocks, _ := ScheduleStats(AlgoRing, ReduceScatterOp, 8, o.TotalBytes, o.BlockBytes, false); blocks != 1792 {
		t.Fatalf("harness schedules %d blocks, want 1792", blocks)
	}
	if want := 1480.0; allocs != want {
		t.Errorf("ring reduce-scatter on an 8-ring: %v allocs per run, want %v", allocs, want)
	}
}
