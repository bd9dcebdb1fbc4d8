package collective

import (
	"testing"

	"t3sim/internal/check"
	"t3sim/internal/interconnect"
	"t3sim/internal/sim"
	"t3sim/internal/units"
)

// clusterHarness mirrors harness() with every device on its own cluster
// engine.
func clusterHarness(t *testing.T, devices int) (*sim.Cluster, TopoOptions) {
	t.Helper()
	cl, o := clusterTopoHarness(t, interconnect.RingTopo(devices, interconnect.DefaultConfig()))
	o.TotalBytes = 16 * units.MiB
	return cl, o
}

// TestClusterCollectiveMatchesSharedEngine requires the timed ring
// collectives to produce identical completion times and per-link byte
// accounting whether all devices share one engine or each owns a private
// cluster engine — at every worker count.
func TestClusterCollectiveMatchesSharedEngine(t *testing.T) {
	for _, devices := range []int{2, 4, 8} {
		for _, nmc := range []bool{false, true} {
			for _, reduce := range []bool{true, false} {
				if nmc && !reduce {
					continue // NMC only changes reduce-scatter
				}
				eng, so := harness(t, devices)
				so.NMC = nmc
				var want units.Time
				if reduce {
					want = runRS(t, eng, so)
				} else {
					want = runAG(t, eng, so)
				}

				for _, workers := range []int{1, 2, devices} {
					cl, co := clusterHarness(t, devices)
					co.NMC = nmc
					chk := check.New()
					co.Check = chk
					op := ReduceScatterOp
					if !reduce {
						op = AllGatherOp
					}
					cr, err := StartClusterTopoCollective(cl, AlgoRing, op, co)
					if err != nil {
						t.Fatal(err)
					}
					cl.Run(workers)
					cr.Finish()
					if got := cr.Done(); got != want {
						t.Errorf("devices=%d nmc=%v reduce=%v workers=%d: done %v, want %v",
							devices, nmc, reduce, workers, got, want)
					}
					for i := 0; i < devices; i++ {
						gotB := co.Topo.Link(i, (i+1)%devices).SentBytes()
						wantB := so.Topo.Link(i, (i+1)%devices).SentBytes()
						if gotB != wantB {
							t.Errorf("devices=%d nmc=%v reduce=%v workers=%d: link %d sent %v, want %v",
								devices, nmc, reduce, workers, i, gotB, wantB)
						}
					}
					if !chk.Ok() {
						t.Errorf("devices=%d nmc=%v reduce=%v workers=%d: violations: %v",
							devices, nmc, reduce, workers, chk.Violations())
					}
				}
			}
		}
	}
}

// TestClusterCollectivePerDeviceTimesDeterministic pins per-device
// completion times across worker counts (not just the max).
func TestClusterCollectivePerDeviceTimesDeterministic(t *testing.T) {
	const devices = 4
	run := func(workers int) []units.Time {
		cl, co := clusterHarness(t, devices)
		cr, err := StartClusterTopoCollective(cl, AlgoRing, ReduceScatterOp, co)
		if err != nil {
			t.Fatal(err)
		}
		cl.Run(workers)
		out := make([]units.Time, devices)
		for d := range out {
			out[d] = cr.DeviceDone(d)
		}
		return out
	}
	want := run(1)
	for _, workers := range []int{2, devices} {
		got := run(workers)
		for d := range got {
			if got[d] != want[d] {
				t.Errorf("workers=%d: device %d done at %v, want %v", workers, d, got[d], want[d])
			}
		}
	}
	for d, at := range want {
		if at == 0 {
			t.Errorf("device %d never completed", d)
		}
	}
}
