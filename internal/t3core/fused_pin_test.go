package t3core

import (
	"flag"
	"fmt"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"t3sim/internal/check"
	"t3sim/internal/gemm"
)

var updateFusedPins = flag.Bool("update-fused-pins", false,
	"rewrite testdata/fused_pins.txt and testdata/multi_pins.txt from the current runners")

// pinLine renders every field of a mirror result (or its error) as one line
// of exact integers.
func pinLine(res FusedResult, err error) string {
	if err != nil {
		return "error: " + err.Error()
	}
	var b strings.Builder
	fmt.Fprintf(&b, "gemm=%d coll=%d done=%d link=%d live=%d dma=%d mca=%d dram=",
		int64(res.GEMMDone), int64(res.CollectiveDone), int64(res.Done),
		int64(res.LinkBytes), res.TrackerMaxLive, res.DMATriggered, res.MCAThreshold)
	dramPins(&b, res.DRAM)
	b.WriteString(" reads=")
	for _, r := range res.StageReads {
		fmt.Fprintf(&b, "%d,", int64(r))
	}
	return b.String()
}

// pinConfigs calls fn with the label and options of every configuration
// TestFusedResultPins pins: every collective the mirror runner runs — ring
// and direct reduce-scatter, all-gather and all-to-all — across device
// counts, arbitration policies, DMA block sizes and split-K. The grid (9×11
// workgroups) leaves uneven phases at 8 devices and under split-K.
func pinConfigs(t *testing.T, fn func(label string, o FusedOptions)) {
	t.Helper()
	for _, coll := range []Collective{RingReduceScatter, DirectReduceScatter, RingAllGather, AllToAll} {
		splitKs := []int{1}
		if coll == RingReduceScatter || coll == DirectReduceScatter {
			splitKs = []int{1, 2}
		}
		for _, n := range []int{2, 3, 4, 8} {
			for _, arb := range []struct {
				name string
				arb  Arbitration
				th   int
			}{{"rr", ArbRoundRobin, 0}, {"mca", ArbMCA, 0}, {"mca@5", ArbMCA, 5}} {
				for _, dma := range []int{1, 4} {
					for _, sk := range splitKs {
						til := gemm.DefaultTiling()
						til.SplitK = sk
						g, err := gemm.NewGrid(gemm.Shape{M: 1152, N: 1408, K: 512, ElemBytes: 2}, til)
						if err != nil {
							t.Fatal(err)
						}
						o := fusedOpts(t, n)
						o.Grid = g
						o.Collective = coll
						o.Arbitration = arb.arb
						o.FixedMCAThreshold = arb.th
						o.DMATilesPerBlock = dma
						fn(fmt.Sprintf("%s n=%d %s dma=%d splitk=%d", coll, n, arb.name, dma, sk), o)
					}
				}
			}
		}
	}
}

// TestFusedResultPins pins the exact result of the mirror runner for every
// configuration of pinConfigs. The catalogue's goldens only reach ring
// reduce-scatter at SplitK=1, so this table is what holds the other
// datapaths byte-for-byte.
func TestFusedResultPins(t *testing.T) {
	if n := reflect.TypeOf(FusedResult{}).NumField(); n != 9 {
		t.Fatalf("FusedResult has %d fields; render the new ones in pinLine", n)
	}
	var b strings.Builder
	pinConfigs(t, func(label string, o FusedOptions) {
		res, err := RunFused(o)
		fmt.Fprintf(&b, "%s: %s\n", label, pinLine(res, err))
	})
	comparePins(t, filepath.Join("testdata", "fused_pins.txt"), b.String())
}

// TestFusedPinConfigsCheckClean runs every pinned configuration under the
// invariant checker and requires no violation: the tracker drains to zero
// live entries, fires once per tracked tile and stays in budget, and the
// spans nest — split-K included, where each phase's tiles must be
// programmed with the updates they actually receive.
func TestFusedPinConfigsCheckClean(t *testing.T) {
	clean := func(label string, o FusedOptions) {
		ck := check.New()
		o.Check = ck
		if _, err := RunFused(o); err != nil {
			t.Errorf("%s: %v", label, err)
			return
		}
		for _, v := range ck.Violations() {
			t.Errorf("%s: %v", label, v)
		}
	}
	pinConfigs(t, clean)
	// Deeper split-K than the pins reach, with a 64-way tracker.
	til := gemm.DefaultTiling()
	til.SplitK = 4
	g, err := gemm.NewGrid(gemm.Shape{M: 1152, N: 1408, K: 512, ElemBytes: 2}, til)
	if err != nil {
		t.Fatal(err)
	}
	o := fusedOpts(t, 4)
	o.Grid = g
	o.Tracker.Ways = 64
	clean("ring-reduce-scatter n=4 rr ways=64 splitk=4", o)
}
