package t3core

import (
	"reflect"
	"testing"

	"t3sim/internal/check"
	"t3sim/internal/interconnect"
	"t3sim/internal/sim"
)

// TestMultiDeviceSyncModesMatch is the t3core-level oracle for the cluster's
// one sync protocol on multi-link graphs: on the implicit ring and on ring,
// torus and hierarchy graphs, driving the cluster with workers 1/2/4/8 must
// reproduce the ParWorkers 0 (inline) result exactly — every field, every
// device — with identical coordination stats and the invariant checker
// clean throughout.
func TestMultiDeviceSyncModesMatch(t *testing.T) {
	link := interconnect.DefaultConfig()
	inter := link
	inter.LinkBandwidth = link.LinkBandwidth / 3
	inter.LinkLatency = 4 * link.LinkLatency
	specs := []interconnect.TopoSpec{
		{}, // zero spec: the implicit RingTopo(8, link)
		interconnect.RingTopo(8, link),
		interconnect.TorusTopo(2, 4, link),
		interconnect.HierarchicalTopo(2, 4, link, inter),
	}
	for _, spec := range specs {
		o := fusedOpts(t, 8)
		o.Topo = spec
		var wantStats sim.ClusterStats
		o.ClusterStats = &wantStats
		want, err := RunFusedGEMMRSMultiDevice(o)
		if err != nil {
			t.Fatalf("%v: %v", spec.Kind, err)
		}
		if wantStats.Windows == 0 {
			t.Fatalf("%v: reference run recorded no windows: %+v", spec.Kind, wantStats)
		}
		for _, workers := range []int{1, 2, 4, 8} {
			po := o
			po.ParWorkers = workers
			chk := check.New()
			po.Check = chk
			var st sim.ClusterStats
			po.ClusterStats = &st
			got, err := RunFusedGEMMRSMultiDevice(po)
			if err != nil {
				t.Fatalf("%v workers=%d: %v", spec.Kind, workers, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%v workers=%d: result diverged from sequential", spec.Kind, workers)
			}
			if !chk.Ok() {
				t.Errorf("%v workers=%d: violations: %v", spec.Kind, workers, chk.Violations())
			}
			if st != wantStats {
				t.Errorf("%v workers=%d: coordination stats diverged\n got: %+v\nwant: %+v",
					spec.Kind, workers, st, wantStats)
			}
		}
	}
}

// TestMultiDeviceSyncStatsAgree pins the coordination-stats contract: the
// cluster summary — rounds, engine-windows, simulated advance, stall
// accounting — describes the model's synchronization, not the goroutines
// that drove it, so it is identical at every worker count.
func TestMultiDeviceSyncStatsAgree(t *testing.T) {
	o := fusedOpts(t, 8)
	o.Topo = interconnect.TorusTopo(2, 4, interconnect.DefaultConfig())
	stats := func(workers int) sim.ClusterStats {
		po := o
		po.ParWorkers = workers
		var st sim.ClusterStats
		po.ClusterStats = &st
		if _, err := RunFusedGEMMRSMultiDevice(po); err != nil {
			t.Fatal(err)
		}
		return st
	}
	want := stats(1)
	if want.Windows == 0 || want.EngineWindows == 0 {
		t.Fatalf("torus run recorded no coordination: %+v", want)
	}
	for _, workers := range []int{2, 8} {
		if got := stats(workers); got != want {
			t.Errorf("workers=%d: coordination stats diverged\n got: %+v\nwant: %+v", workers, got, want)
		}
	}
}

// TestMultiDeviceAppointmentStress reruns the full-model stress on a torus
// with maximal workers — the -race exercise for the posted-only mailbox
// drain through the whole t3core datapath, where every device posts on
// several links per round.
func TestMultiDeviceAppointmentStress(t *testing.T) {
	o := parOptions(t, 512, 512, 128, 8)
	o.Topo = interconnect.TorusTopo(2, 4, interconnect.DefaultConfig())
	want, err := RunFusedGEMMRSMultiDevice(o)
	if err != nil {
		t.Fatal(err)
	}
	for rep := 0; rep < 3; rep++ {
		po := o
		po.ParWorkers = 8
		got, err := RunFusedGEMMRSMultiDevice(po)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("rep=%d: torus stress run diverged", rep)
		}
	}
}
