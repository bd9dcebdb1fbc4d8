package experiments

import (
	"fmt"
	"testing"

	"t3sim/internal/check"
	"t3sim/internal/collective"
	"t3sim/internal/interconnect"
	"t3sim/internal/units"
)

// The topology differential battery: the graph timed engine
// (internal/collective/topotimed.go) versus the chunk-recurrence analytic
// model (internal/collective/analytic_topo.go) over every (topology ×
// algorithm) cell, in both the tolerance regime (Table 1 machine) and the
// exact-link-bound regime the ring sweep pioneered.

// topoDiffSpecs returns the four 8-device topologies the battery sweeps —
// the same ladder the topo-sweep experiment runs — so every algorithm
// (including halving-doubling) is a candidate on each.
func topoDiffSpecs(link interconnect.Config) []interconnect.TopoSpec {
	return DefaultTopoSpecs(link)
}

// topoDiameter is the worst-case route length on a topology.
func topoDiameter(t *testing.T, spec interconnect.TopoSpec) int {
	t.Helper()
	routes, err := spec.Routes()
	if err != nil {
		t.Fatal(err)
	}
	diam := 0
	for s := 0; s < spec.Devices; s++ {
		for d := 0; d < spec.Devices; d++ {
			diam = max(diam, routes.Hops(s, d))
		}
	}
	return diam
}

// runTimedTopoCollective runs topo-sweep's timed collective to completion
// with the invariant checker attached.
func runTimedTopoCollective(t *testing.T, setup Setup, spec interconnect.TopoSpec,
	algo collective.Algorithm, op collective.Op, size units.Bytes, nmc bool) units.Time {
	t.Helper()
	checker := check.New()
	setup.Check = checker
	done, err := timedTopoCollective(setup, spec, algo, op, size, nmc, nil)
	if err != nil {
		t.Fatal(err)
	}
	if done == 0 {
		t.Fatalf("%v/%v/%v never completed", spec.Kind, algo, op)
	}
	for _, v := range checker.Violations() {
		t.Errorf("invariant violation: %s", v)
	}
	return done
}

func topoAnalyticOpts(setup Setup, size units.Bytes, nmc bool) collective.AnalyticOptions {
	return collective.AnalyticOptions{
		TotalBytes:        size,
		MemBandwidth:      setup.Memory.TotalBandwidth,
		CUs:               setup.CollectiveCUs,
		PerCUMemBandwidth: setup.PerCUMemBandwidth,
		NMC:               nmc,
	}
}

// topoStepSlack bounds the fixed per-round costs the chunk recurrence only
// partially charges, generalizing differentialStepSlack to multi-hop routes:
// each round's critical path may store-and-forward a trailing block across
// up to diam links (a block's wire time plus the link latency per hop) and
// wait out a DRAM read before the next round's kernel.
func topoStepSlack(setup Setup, spec interconnect.TopoSpec, diam int) units.Time {
	perHop := spec.Link.LinkLatency + spec.Link.LinkBandwidth.TransferTime(setup.BlockBytes)
	if i := spec.InterLink; i.LinkBandwidth > 0 {
		interHop := i.LinkLatency + i.LinkBandwidth.TransferTime(setup.BlockBytes)
		if interHop > perHop {
			perHop = interHop
		}
	}
	return units.Time(diam)*perHop + setup.Memory.ReadLatency
}

// TestDifferentialTopoCollectives sweeps every (topology × algorithm) cell
// over sizes and ops on the Table 1 machine: the DES must match the analytic
// recurrence within tolerance.
func TestDifferentialTopoCollectives(t *testing.T) {
	setup := DefaultSetup()
	for _, spec := range topoDiffSpecs(setup.Link) {
		diam := topoDiameter(t, spec)
		for _, algo := range collective.CandidateAlgorithms(spec) {
			for _, tc := range []struct {
				op   collective.Op
				size units.Bytes
				nmc  bool
			}{
				{collective.AllReduceOp, 2 * units.MiB, false},
				{collective.AllReduceOp, 32 * units.MiB, false},
				{collective.ReduceScatterOp, 8*units.MiB + 4096, false},
				{collective.ReduceScatterOp, 8 * units.MiB, true},
				{collective.AllGatherOp, 8 * units.MiB, false},
			} {
				spec, algo, tc := spec, algo, tc
				name := fmt.Sprintf("%v/%v/%v/%v", spec.Kind, algo, tc.op, tc.size)
				if tc.nmc {
					name += "/nmc"
				}
				t.Run(name, func(t *testing.T) {
					t.Parallel()
					simT := runTimedTopoCollective(t, setup, spec, algo, tc.op, tc.size, tc.nmc)
					lo, hi, err := collective.AnalyticTopoTimeBounds(algo, tc.op, spec, topoAnalyticOpts(setup, tc.size, tc.nmc))
					if err != nil {
						t.Fatal(err)
					}
					rounds, _, _, err := collective.ScheduleStats(algo, tc.op, spec.Devices, tc.size, setup.BlockBytes, tc.nmc)
					if err != nil {
						t.Fatal(err)
					}
					// The DES must land inside the [lower, upper] analytic
					// envelope, up to tolerance; on single-hop topologies the
					// envelope collapses to a point and this is the same
					// check the ring battery runs.
					var diff units.Time
					switch {
					case simT < lo:
						diff = lo - simT
					case simT > hi:
						diff = simT - hi
					}
					rel := float64(diff) / float64(lo)
					allow := units.Time(rounds) * topoStepSlack(setup, spec, diam)
					if rel > differentialTolerance && diff > allow {
						t.Errorf("DES %v outside analytic envelope [%v, %v] by %v (%.2f%%), exceeds both %.0f%% and the %v fixed-cost allowance",
							simT, lo, hi, diff, 100*rel, 100*differentialTolerance, allow)
					}
				})
			}
		}
	}
}

// TestDifferentialTopoLinkBoundExact pins the exact regime on every cell:
// with zero link latency and memory/CU throughput inflated three orders of
// magnitude, wire serialization is the only real cost. The work-conserving
// lower bound may never be beaten by the DES, the store-and-forward upper
// bound may only be exceeded by counted costs — a trailing block's
// store-and-forward per hop per round, plus per-block feed reads and
// picosecond rounding across at most diam hops — and on single-hop
// topologies the two bounds coincide, so the DES is pinned exactly there.
func TestDifferentialTopoLinkBoundExact(t *testing.T) {
	setup := DefaultSetup()
	setup.Link.LinkLatency = 0
	setup.Memory.TotalBandwidth = 4096 * units.TBps
	setup.Memory.ReadLatency = 0
	setup.PerCUMemBandwidth = 64 * units.TBps
	const perBlockSlack = 32 // picoseconds, see TestDifferentialLinkBoundExact
	for _, spec := range topoDiffSpecs(setup.Link) {
		diam := topoDiameter(t, spec)
		for _, algo := range collective.CandidateAlgorithms(spec) {
			for _, op := range []collective.Op{collective.ReduceScatterOp, collective.AllReduceOp} {
				spec, algo, op := spec, algo, op
				t.Run(fmt.Sprintf("%v/%v/%v", spec.Kind, algo, op), func(t *testing.T) {
					t.Parallel()
					const size = 4 * units.MiB
					simT := runTimedTopoCollective(t, setup, spec, algo, op, size, true)
					lo, hi, err := collective.AnalyticTopoTimeBounds(algo, op, spec, topoAnalyticOpts(setup, size, true))
					if err != nil {
						t.Fatal(err)
					}
					if simT < lo {
						t.Errorf("DES %v beats the work-conserving wire lower bound %v: the link model is undercharging", simT, lo)
					}
					rounds, _, blocks, err := collective.ScheduleStats(algo, op, spec.Devices, size, setup.BlockBytes, true)
					if err != nil {
						t.Fatal(err)
					}
					// Counted slack runs over the slowest link a route can
					// cross (the hierarchy's inter-node links are slower than
					// spec.Link).
					blockT := spec.Link.LinkBandwidth.TransferTime(setup.BlockBytes)
					if i := spec.InterLink; i.LinkBandwidth > 0 {
						if t2 := i.LinkBandwidth.TransferTime(setup.BlockBytes); t2 > blockT {
							blockT = t2
						}
					}
					slack := units.Time(rounds*diam)*blockT + units.Time(blocks*diam)*perBlockSlack
					if simT > hi+slack {
						t.Errorf("link-bound DES %v exceeds the store-and-forward upper bound %v by %v (allowed %v)",
							simT, hi, simT-hi, slack)
					}
				})
			}
		}
	}
}
