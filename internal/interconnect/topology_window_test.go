package interconnect

import (
	"reflect"
	"testing"

	"t3sim/internal/sim"
	"t3sim/internal/units"
)

// hierWindowProbe runs a fixed multi-round traffic pattern over a 2x4
// hierarchy on a cluster and returns the delivery times plus the run stats.
// The spec's per-edge latencies are taken as given; the cluster lookahead is
// always the spec's MinLinkLatency (the floor every link latency covers).
func hierWindowProbe(t *testing.T, spec TopoSpec, workers int) ([]units.Time, sim.ClusterStats) {
	t.Helper()
	n := spec.Devices
	cl := sim.NewCluster(n, spec.MinLinkLatency())
	topo, err := spec.BuildCluster(cl)
	if err != nil {
		t.Fatal(err)
	}
	const rounds = 6
	out := make([]units.Time, n*rounds)
	for d := 0; d < n; d++ {
		d := d
		var round int
		var kick func()
		kick = func() {
			r := round
			round++
			// Alternate an intra-node hop with a cross-node hop so every
			// device's horizon depends on both link classes.
			dst := (d + 1) % 4
			if d >= 4 {
				dst += 4
			}
			if r%2 == 1 {
				dst = (d + 4) % n
			}
			topo.Send(d, dst, units.Bytes(8+d)*units.KiB, func() {
				out[d*rounds+r] = cl.Engine(dst).Now()
				if r+1 < rounds {
					// This handler runs on dst's engine, which must never
					// schedule on d's: the next round starts when a small
					// acknowledgement travels back to d.
					topo.Send(dst, d, 64, func() {
						cl.Engine(d).After(spec.Link.LinkLatency, kick)
					})
				}
			})
		}
		cl.Engine(d).At(units.Time(d)*100, kick)
	}
	cl.Run(workers)
	return out, cl.Stats()
}

// TestHierarchyPerEdgeWindows is the regression test for the global-floor
// bug: cluster lookahead used to be the single MinLinkLatency over the whole
// graph, so a 3x-slower inter-node link dragged every intra-node window down
// to the same floor. With per-edge latencies flowing into per-edge bounds,
// the same workload on the asymmetric hierarchy must synchronize in strictly
// wider windows than the all-links-at-the-floor variant, while staying
// byte-identical at every worker count.
func TestHierarchyPerEdgeWindows(t *testing.T) {
	intra := topoCfg()
	inter := intra
	inter.LinkBandwidth = intra.LinkBandwidth / 3
	inter.LinkLatency = 3 * intra.LinkLatency
	asym := HierarchicalTopo(2, 4, intra, inter)
	// The floor variant models the old behaviour: identical graph, but every
	// edge clamped to the global minimum latency (bandwidths kept, so only
	// the lookahead differs).
	floorInter := inter
	floorInter.LinkLatency = intra.LinkLatency
	floored := HierarchicalTopo(2, 4, intra, floorInter)

	want, asymStats := hierWindowProbe(t, asym, 1)
	_, floorStats := hierWindowProbe(t, floored, 1)
	if asymStats.EngineWindows == 0 || floorStats.EngineWindows == 0 {
		t.Fatalf("probe ran no windows (asym %+v, floor %+v)", asymStats, floorStats)
	}
	if aw, fw := asymStats.AvgWindowWidth(), floorStats.AvgWindowWidth(); aw <= fw {
		t.Errorf("asymmetric hierarchy windows (%v) not wider than global-floor windows (%v)", aw, fw)
	}

	// Identity rides along: the asymmetric spec must deliver at the same
	// times at every worker count.
	for _, workers := range []int{2, 4} {
		if got, _ := hierWindowProbe(t, asym, workers); !reflect.DeepEqual(got, want) {
			t.Errorf("workers=%d: deliveries diverged on asymmetric hierarchy", workers)
		}
	}
}
