package collective

import (
	"testing"

	"t3sim/internal/interconnect"
	"t3sim/internal/sim"
	"t3sim/internal/units"
)

func topoAnalyticOpts(total units.Bytes) AnalyticOptions {
	return AnalyticOptions{
		TotalBytes:        total,
		MemBandwidth:      1 * units.TBps,
		CUs:               80,
		PerCUMemBandwidth: 16 * units.GBps,
	}
}

// TestAnalyticTopoRingCollapsesToClosedForm pins the generalized recurrence
// to its ancestor: on a symmetric ring with a divisible size it must
// reproduce the AnalyticRing* closed forms exactly.
func TestAnalyticTopoRingCollapsesToClosedForm(t *testing.T) {
	cfg := interconnect.DefaultConfig()
	for _, devices := range []int{2, 4, 8} {
		for _, nmc := range []bool{false, true} {
			spec := interconnect.RingTopo(devices, cfg)
			o := topoAnalyticOpts(32 * units.MiB)
			o.Link = cfg
			o.Devices = devices
			o.NMC = nmc

			rs, err := AnalyticTopoReduceScatterTime(AlgoRing, spec, o)
			if err != nil {
				t.Fatal(err)
			}
			wantRS, err := AnalyticRingReduceScatterTime(o)
			if err != nil {
				t.Fatal(err)
			}
			if rs != wantRS {
				t.Errorf("n=%d nmc=%v: topo RS %v != closed form %v", devices, nmc, rs, wantRS)
			}

			if nmc {
				continue
			}
			ag, err := AnalyticTopoAllGatherTime(AlgoRing, spec, o)
			if err != nil {
				t.Fatal(err)
			}
			wantAG, err := AnalyticRingAllGatherTime(o)
			if err != nil {
				t.Fatal(err)
			}
			if ag != wantAG {
				t.Errorf("n=%d: topo AG %v != closed form %v", devices, ag, wantAG)
			}
		}
	}
}

// TestTopoTimeMonotoneInBytes is the metamorphic law: more bytes never
// finish sooner, on any topology with any algorithm.
func TestTopoTimeMonotoneInBytes(t *testing.T) {
	sizes := []units.Bytes{
		64 * units.KiB, 512 * units.KiB, 1*units.MiB + 4096, 4 * units.MiB, 32 * units.MiB,
	}
	for _, spec := range testSpecs() {
		for _, algo := range CandidateAlgorithms(spec) {
			var prev units.Time
			for _, size := range sizes {
				o := topoAnalyticOpts(size)
				got, err := AnalyticTopoAllReduceTime(algo, spec, o)
				if err != nil {
					t.Fatal(err)
				}
				if got < prev {
					t.Errorf("%v/%v: time %v at %v beats %v at smaller size", spec.Kind, algo, got, size, prev)
				}
				prev = got
			}
		}
	}
}

// TestTopoTimeMonotoneInLatency is the second metamorphic law: slower links
// never make a collective finish sooner.
func TestTopoTimeMonotoneInLatency(t *testing.T) {
	latencies := []units.Time{0, 100 * units.Nanosecond, 500 * units.Nanosecond, 5 * units.Microsecond}
	base := interconnect.DefaultConfig()
	for _, kind := range []func(interconnect.Config) interconnect.TopoSpec{
		func(c interconnect.Config) interconnect.TopoSpec { return interconnect.RingTopo(8, c) },
		func(c interconnect.Config) interconnect.TopoSpec { return interconnect.TorusTopo(2, 4, c) },
		func(c interconnect.Config) interconnect.TopoSpec { return interconnect.SwitchTopo(8, c) },
		func(c interconnect.Config) interconnect.TopoSpec {
			inter := c
			inter.LinkBandwidth = 25 * units.GBps
			inter.LinkLatency = 4 * c.LinkLatency
			if inter.LinkLatency == 0 {
				inter.LinkLatency = c.LinkLatency
			}
			return interconnect.HierarchicalTopo(2, 4, c, inter)
		},
	} {
		spec0 := kind(base)
		for _, algo := range CandidateAlgorithms(spec0) {
			var prev units.Time
			for i, lat := range latencies {
				cfg := base
				cfg.LinkLatency = lat
				spec := kind(cfg)
				got, err := AnalyticTopoAllReduceTime(algo, spec, topoAnalyticOpts(4*units.MiB))
				if err != nil {
					t.Fatal(err)
				}
				if got < prev {
					t.Errorf("%v/%v: time %v at latency %v beats %v at lower latency",
						spec.Kind, algo, got, lat, prev)
				}
				prev = got
				_ = i
			}
		}
	}
}

// TestHalvingDoublingBeatsRingOnSwitch pins the algorithmic motivation: on a
// fully connected switch with many devices, log-round halving-doubling
// all-reduce is no slower than the (N−1)-round ring.
func TestHalvingDoublingBeatsRingOnSwitch(t *testing.T) {
	spec := interconnect.SwitchTopo(16, interconnect.DefaultConfig())
	for _, size := range []units.Bytes{1 * units.MiB, 4 * units.MiB, 16 * units.MiB} {
		o := topoAnalyticOpts(size)
		hd, err := AnalyticTopoAllReduceTime(AlgoHalvingDoubling, spec, o)
		if err != nil {
			t.Fatal(err)
		}
		ring, err := AnalyticTopoAllReduceTime(AlgoRing, spec, o)
		if err != nil {
			t.Fatal(err)
		}
		if hd > ring {
			t.Errorf("size %v: halving-doubling %v slower than ring %v on a 16-way switch", size, hd, ring)
		}
	}
}

// TestSelectAlgorithmOptimality is the policy property: the selected
// algorithm's analytic time is never more than 1.05× the best candidate's.
func TestSelectAlgorithmOptimality(t *testing.T) {
	sizes := []units.Bytes{16 * units.KiB, 256 * units.KiB, 2 * units.MiB, 32 * units.MiB, 256 * units.MiB}
	for _, spec := range testSpecs() {
		for _, size := range sizes {
			sel, err := SelectAlgorithm(size, spec)
			if err != nil {
				t.Fatal(err)
			}
			o := topoAnalyticOpts(size)
			selTime, err := AnalyticTopoAllReduceTime(sel, spec, o)
			if err != nil {
				t.Fatal(err)
			}
			best := selTime
			bestAlgo := sel
			for _, algo := range CandidateAlgorithms(spec) {
				tm, err := AnalyticTopoAllReduceTime(algo, spec, o)
				if err != nil {
					t.Fatal(err)
				}
				if tm < best {
					best, bestAlgo = tm, algo
				}
			}
			if float64(selTime) > 1.05*float64(best) {
				t.Errorf("%v @ %v: selected %v (%v) is >1.05x best %v (%v)",
					spec.Kind, size, sel, selTime, bestAlgo, best)
			}
		}
	}
}

// TestSelectAlgorithmSizeRegimes sanity-checks the Tessera-style policy
// shape on a switch: tiny messages do not pick the ring, huge messages do
// not pick direct broadcast-everything.
func TestSelectAlgorithmSizeRegimes(t *testing.T) {
	spec := interconnect.SwitchTopo(8, interconnect.DefaultConfig())
	tiny, err := SelectAlgorithm(4*units.KiB, spec)
	if err != nil {
		t.Fatal(err)
	}
	if tiny == AlgoRing {
		t.Errorf("4 KiB on a switch selected the ring; want a latency-lean algorithm")
	}
	huge, err := SelectAlgorithm(512*units.MiB, spec)
	if err != nil {
		t.Fatal(err)
	}
	if huge == AlgoTree {
		t.Errorf("512 MiB selected the full-vector tree; want a bandwidth-optimal algorithm")
	}
}

// TestCandidateAlgorithms pins the validity table.
func TestCandidateAlgorithms(t *testing.T) {
	cfg := interconnect.DefaultConfig()
	if got := CandidateAlgorithms(interconnect.RingTopo(8, cfg)); len(got) != 4 {
		t.Errorf("pow2 ring candidates = %v, want 4 incl. halving-doubling", got)
	}
	for _, algo := range CandidateAlgorithms(interconnect.RingTopo(6, cfg)) {
		if algo == AlgoHalvingDoubling {
			t.Error("halving-doubling offered for 6 devices")
		}
	}
	if _, err := buildSchedule(AlgoHalvingDoubling, AllReduceOp, 6, units.MiB, false); err == nil {
		t.Error("halving-doubling schedule for 6 devices did not error")
	}
}

// TestScheduleMovesExpectedBytes cross-checks schedules against exact
// per-device delivery laws, with a deliberately indivisible size so chunk
// rounding is exercised. A bandwidth-optimal all-gather delivers every chunk
// but the one device d already owns; a direct reduce-scatter delivers one
// partial of chunk d from each peer; the ring rotation delivers every chunk
// except the forward neighbor's starting chunk.
func TestScheduleMovesExpectedBytes(t *testing.T) {
	const total = 1*units.MiB + 12345
	for _, n := range []int{2, 4, 8} {
		chunks := chunkSizes(total, n)
		for _, algo := range []Algorithm{AlgoRing, AlgoHalvingDoubling, AlgoDirect} {
			sched, err := buildSchedule(algo, AllGatherOp, n, total, false)
			if err != nil {
				t.Fatal(err)
			}
			for d := 0; d < n; d++ {
				want := int64(total - chunks[d])
				if got := sched.expectedIncomingBytes(d); got != want {
					t.Errorf("%v AG n=%d dev %d: schedule delivers %d wire bytes, want %d",
						algo, n, d, got, want)
				}
			}
		}
		for d := 0; d < n; d++ {
			direct, err := buildSchedule(AlgoDirect, ReduceScatterOp, n, total, true)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := direct.expectedIncomingBytes(d), int64(n-1)*int64(chunks[d]); got != want {
				t.Errorf("direct RS n=%d dev %d: %d wire bytes, want %d", n, d, got, want)
			}
			ring, err := buildSchedule(AlgoRing, ReduceScatterOp, n, total, true)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := ring.expectedIncomingBytes(d), int64(total-chunks[mod(d-1, n)]); got != want {
				t.Errorf("ring RS n=%d dev %d: %d wire bytes, want %d", n, d, got, want)
			}
		}
	}
}

// TestAnalyticTopoBuildsNoEngine pins that the analytic model routes from
// the spec's route table: selecting an algorithm and bracketing every
// candidate on every topology kind builds no simulation engine. Not
// parallel, so no other test's engines land inside the window.
func TestAnalyticTopoBuildsNoEngine(t *testing.T) {
	before := sim.EnginesBuilt()
	for _, spec := range testSpecs() {
		o := topoAnalyticOpts(8 * units.MiB)
		if _, err := SelectAlgorithmWith(AllReduceOp, spec, o); err != nil {
			t.Fatal(err)
		}
		for _, algo := range CandidateAlgorithms(spec) {
			if _, _, err := AnalyticTopoTimeBounds(algo, AllReduceOp, spec, o); err != nil {
				t.Fatal(err)
			}
		}
	}
	if built := sim.EnginesBuilt() - before; built != 0 {
		t.Errorf("analytic model built %d engines, want 0", built)
	}
}
