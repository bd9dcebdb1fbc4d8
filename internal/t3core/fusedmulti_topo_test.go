package t3core

import (
	"strings"
	"testing"

	"t3sim/internal/interconnect"
)

// topoFusedOpts returns the standard 8-device fused options routed over spec.
func topoFusedOpts(t *testing.T, spec interconnect.TopoSpec) FusedOptions {
	t.Helper()
	o := fusedOpts(t, spec.Devices)
	o.Topo = spec
	return o
}

// topoTestSpecs is the graph ladder the multi-device topo tests sweep.
func topoTestSpecs(t *testing.T) []interconnect.TopoSpec {
	t.Helper()
	link := interconnect.DefaultConfig()
	inter := link
	inter.LinkBandwidth = link.LinkBandwidth / 3
	inter.LinkLatency = 4 * link.LinkLatency
	return []interconnect.TopoSpec{
		interconnect.RingTopo(8, link),
		interconnect.TorusTopo(2, 4, link),
		interconnect.SwitchTopo(8, link),
		interconnect.HierarchicalTopo(2, 4, link, inter),
	}
}

func TestMultiDeviceTopoRingMatchesLegacy(t *testing.T) {
	// An explicit ring TopoSpec must reproduce the legacy implicit-ring run
	// exactly: same routes, same link order, same arbitration — the
	// byte-identity the zero-value Topo contract promises.
	legacy, err := RunFusedGEMMRSMultiDevice(fusedOpts(t, 8))
	if err != nil {
		t.Fatal(err)
	}
	ring, err := RunFusedGEMMRSMultiDevice(topoFusedOpts(t, interconnect.RingTopo(8, interconnect.DefaultConfig())))
	if err != nil {
		t.Fatal(err)
	}
	if legacy.Done != ring.Done || legacy.LinkBytes != ring.LinkBytes {
		t.Fatalf("explicit ring differs from legacy: done %v vs %v, link bytes %v vs %v",
			legacy.Done, ring.Done, legacy.LinkBytes, ring.LinkBytes)
	}
	for d := range legacy.CollectiveDone {
		if legacy.CollectiveDone[d] != ring.CollectiveDone[d] {
			t.Fatalf("device %d: collective done %v vs %v", d, legacy.CollectiveDone[d], ring.CollectiveDone[d])
		}
	}
}

func TestMultiDeviceTopoParallelMatchesSequential(t *testing.T) {
	// On every graph, the cluster driven by several workers must be
	// byte-identical to the sequential (ParWorkers 0) run.
	for _, spec := range topoTestSpecs(t) {
		o := topoFusedOpts(t, spec)
		seq, err := RunFusedGEMMRSMultiDevice(o)
		if err != nil {
			t.Fatalf("%v: %v", spec.Kind, err)
		}
		for _, workers := range []int{1, 2, 4} {
			o.ParWorkers = workers
			par, err := RunFusedGEMMRSMultiDevice(o)
			if err != nil {
				t.Fatalf("%v workers=%d: %v", spec.Kind, workers, err)
			}
			if par.Done != seq.Done || par.LinkBytes != seq.LinkBytes {
				t.Errorf("%v workers=%d: done %v vs %v, link bytes %v vs %v",
					spec.Kind, workers, par.Done, seq.Done, par.LinkBytes, seq.LinkBytes)
			}
			for d := range seq.CollectiveDone {
				if par.CollectiveDone[d] != seq.CollectiveDone[d] {
					t.Errorf("%v workers=%d device %d: %v vs %v",
						spec.Kind, workers, d, par.CollectiveDone[d], seq.CollectiveDone[d])
					break
				}
			}
		}
	}
}

func TestMultiDeviceTopoTransitTraffic(t *testing.T) {
	// Multi-hop graphs relay neighbor sends through intermediate devices, so
	// their per-link byte counters must sum to at least the single-hop
	// (ring/switch) total, and strictly more on the torus and hierarchy
	// whose diameters exceed one hop for some schedule pairs.
	ring, err := RunFusedGEMMRSMultiDevice(fusedOpts(t, 8))
	if err != nil {
		t.Fatal(err)
	}
	for _, spec := range topoTestSpecs(t) {
		res, err := RunFusedGEMMRSMultiDevice(topoFusedOpts(t, spec))
		if err != nil {
			t.Fatalf("%v: %v", spec.Kind, err)
		}
		if res.LinkBytes < ring.LinkBytes {
			t.Errorf("%v: link bytes %v below the single-hop total %v", spec.Kind, res.LinkBytes, ring.LinkBytes)
		}
		if (spec.Kind == interconnect.TopoTorus || spec.Kind == interconnect.TopoHierarchical) &&
			res.LinkBytes <= ring.LinkBytes {
			t.Errorf("%v: expected transit hops to add traffic above %v, got %v", spec.Kind, ring.LinkBytes, res.LinkBytes)
		}
	}
}

func TestMirrorRunsRejectNonRingTopo(t *testing.T) {
	// Single-GPU mirror runs model the ring implicitly; a non-ring topology
	// must be rejected, not silently ignored.
	spec := interconnect.SwitchTopo(8, interconnect.DefaultConfig())
	o := topoFusedOpts(t, spec)
	if _, err := RunFusedGEMMRS(o); err == nil || !strings.Contains(err.Error(), "mirror") {
		t.Errorf("RunFusedGEMMRS accepted a switch topology: err=%v", err)
	}
	o.Collective = RingAllGather
	if _, err := RunFusedGEMMAG(o); err == nil || !strings.Contains(err.Error(), "mirror") {
		t.Errorf("RunFusedGEMMAG accepted a switch topology: err=%v", err)
	}
	o.Collective = AllToAll
	if _, err := RunFusedGEMMAllToAll(o); err == nil || !strings.Contains(err.Error(), "mirror") {
		t.Errorf("RunFusedGEMMAllToAll accepted a switch topology: err=%v", err)
	}
}

func TestMultiDeviceTopoDeviceCountMismatch(t *testing.T) {
	o := fusedOpts(t, 8)
	o.Topo = interconnect.RingTopo(4, interconnect.DefaultConfig())
	if _, err := RunFusedGEMMRSMultiDevice(o); err == nil {
		t.Error("4-device topology accepted for an 8-device run")
	}
}
