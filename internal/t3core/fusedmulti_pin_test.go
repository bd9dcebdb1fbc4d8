package t3core

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"t3sim/internal/check"
	"t3sim/internal/gemm"
	"t3sim/internal/interconnect"
	"t3sim/internal/memory"
)

// dramPins renders one device's DRAM counters as exact integers:
// bytes/requests/wait per access kind and stream.
func dramPins(b *strings.Builder, c memory.Counters) {
	for k := 0; k < 3; k++ {
		for s := 0; s < 2; s++ {
			fmt.Fprintf(b, "%d/%d/%d;", int64(c.Bytes[k][s]), c.Requests[k][s], int64(c.WaitTime[k][s]))
		}
	}
}

// multiPinLine renders every field of an explicit result (or its error) as
// one line of exact integers.
func multiPinLine(res MultiDeviceResult, err error) string {
	if err != nil {
		return "error: " + err.Error()
	}
	var b strings.Builder
	cs := res.Cluster
	fmt.Fprintf(&b, "done=%d link=%d live=%d mca=%d cluster=%d/%d/%d/%d/%d dram=",
		int64(res.Done), int64(res.LinkBytes), res.TrackerMaxLive, res.MCAThreshold,
		cs.Windows, cs.EngineWindows, int64(cs.Advance), cs.StalledEngineWindows, int64(cs.StallTime))
	dramPins(&b, res.DRAM)
	for d := range res.GEMMDone {
		fmt.Fprintf(&b, " dev%d gemm=%d coll=%d dram=", d, int64(res.GEMMDone[d]), int64(res.CollectiveDone[d]))
		dramPins(&b, res.PerDeviceDRAM[d])
	}
	return b.String()
}

// multiPinConfigs calls fn with the label and options of every
// configuration TestMultiDeviceResultPins pins: the ring, torus, switch and
// hierarchical graphs at 4 and 8 devices, under round-robin, MCA and a
// pinned MCA threshold, with and without the double-buffered producer. The
// grid (9×11 workgroups) leaves uneven chunks at 8 devices, and 20 CUs give
// the producer several stages that contend with the collective for DRAM.
func multiPinConfigs(t *testing.T, fn func(label string, o FusedOptions)) {
	t.Helper()
	link := interconnect.DefaultConfig()
	inter := link
	inter.LinkBandwidth = link.LinkBandwidth / 3
	inter.LinkLatency = 4 * link.LinkLatency
	g, err := gemm.NewGrid(gemm.Shape{M: 1152, N: 1408, K: 512, ElemBytes: 2}, gemm.DefaultTiling())
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{4, 8} {
		for _, topo := range []struct {
			name string
			spec interconnect.TopoSpec
		}{
			{"ring", interconnect.TopoSpec{}},
			{"torus", interconnect.TorusTopo(2, n/2, link)},
			{"switch", interconnect.SwitchTopo(n, link)},
			{"hier", interconnect.HierarchicalTopo(2, n/2, link, inter)},
		} {
			for _, arb := range []struct {
				name string
				arb  Arbitration
				th   int
			}{{"rr", ArbRoundRobin, 0}, {"mca", ArbMCA, 0}, {"mca@5", ArbMCA, 5}} {
				for _, db := range []bool{false, true} {
					o := fusedOpts(t, n)
					o.Grid = g
					o.Tracker.Ways = 64
					o.GEMMCUs = 20
					o.Topo = topo.spec
					o.Arbitration = arb.arb
					o.FixedMCAThreshold = arb.th
					o.DoubleBufferedGEMM = db
					fn(fmt.Sprintf("%s n=%d %s db=%t", topo.name, n, arb.name, db), o)
				}
			}
		}
	}
}

// TestMultiDeviceResultPins pins the exact result of the explicit runner for
// every configuration of multiPinConfigs, driven inline (ParWorkers 0) and
// by two cluster workers, which must agree line for line.
func TestMultiDeviceResultPins(t *testing.T) {
	if n := reflect.TypeOf(MultiDeviceResult{}).NumField(); n != 9 {
		t.Fatalf("MultiDeviceResult has %d fields; render the new ones in multiPinLine", n)
	}
	var b strings.Builder
	multiPinConfigs(t, func(label string, o FusedOptions) {
		line := multiPinLine(RunFusedGEMMRSMultiDevice(o))
		o.ParWorkers = 2
		if par := multiPinLine(RunFusedGEMMRSMultiDevice(o)); par != line {
			t.Errorf("%s: ParWorkers 2 differs from 0:\n got %s\nwant %s", label, par, line)
		}
		fmt.Fprintf(&b, "%s: %s\n", label, line)
	})
	comparePins(t, filepath.Join("testdata", "multi_pins.txt"), b.String())
}

// TestMultiPinConfigsCheckClean runs every pinned explicit configuration
// under the invariant checker and requires no violation.
func TestMultiPinConfigsCheckClean(t *testing.T) {
	multiPinConfigs(t, func(label string, o FusedOptions) {
		ck := check.New()
		o.Check = ck
		if _, err := RunFusedGEMMRSMultiDevice(o); err != nil {
			t.Errorf("%s: %v", label, err)
			return
		}
		for _, v := range ck.Violations() {
			t.Errorf("%s: %v", label, v)
		}
	})
}

// comparePins checks got against the pin file at path line by line, or
// rewrites the file under -update-fused-pins.
func comparePins(t *testing.T, path, got string) {
	t.Helper()
	if *updateFusedPins {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	gotLines := strings.Split(got, "\n")
	wantLines := strings.Split(string(want), "\n")
	if len(gotLines) != len(wantLines) {
		t.Fatalf("%d pinned lines, want %d", len(gotLines), len(wantLines))
	}
	for i := range gotLines {
		if gotLines[i] != wantLines[i] {
			t.Errorf("line %d:\n got %s\nwant %s", i+1, gotLines[i], wantLines[i])
		}
	}
}
