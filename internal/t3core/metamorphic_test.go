package t3core

import (
	"fmt"
	"testing"

	"t3sim/internal/check"
	"t3sim/internal/gemm"
	"t3sim/internal/gpu"
	"t3sim/internal/memory"
	"t3sim/internal/sim"
	"t3sim/internal/units"
)

// Metamorphic tests for the fused runners: instead of pinning absolute
// timings, they assert relations that must hold between runs whose inputs
// stand in a known relation (bounds against isolated executions, monotonicity
// in problem size and link speed). Every run carries the invariant checker,
// so each metamorphic case doubles as a conservation/ordering/bound audit.

// runIsolatedGEMM times the same GEMM alone on an identical machine: private
// engine, full CU allocation, no collective sharing the memory system.
func runIsolatedGEMM(t *testing.T, o FusedOptions) units.Time {
	t.Helper()
	eng := sim.NewEngine()
	mc, err := memory.NewController(eng, o.Memory, memory.ComputeFirst{})
	if err != nil {
		t.Fatal(err)
	}
	k := &gpu.GEMMKernel{Eng: eng, Mem: mc, GPU: o.GPU, Grid: o.Grid}
	if err := k.Start(nil); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	return k.Finished()
}

// checkedOpts returns the options with a fresh recording checker attached.
func checkedOpts(o FusedOptions) (FusedOptions, *check.Checker) {
	c := check.New()
	o.Check = c
	return o, c
}

func assertClean(t *testing.T, c *check.Checker, label string) {
	t.Helper()
	for _, v := range c.Violations() {
		t.Errorf("%s: invariant violation: %s", label, v)
	}
}

// TestMetamorphicFusedBounds brackets every fused collective between its two
// isolated references: the run can finish no earlier than its own wire
// serialization allows (all link bytes cross the device's forward link), and
// no later than the fully serialized schedule — isolated GEMM followed by the
// whole collective at link speed — since overlap may only hide work, never
// invent it.
func TestMetamorphicFusedBounds(t *testing.T) {
	base := fusedOpts(t, 4)
	isolated := runIsolatedGEMM(t, base)
	for _, tc := range []struct {
		name string
		coll Collective
	}{
		{"rs", RingReduceScatter},
		{"direct-rs", DirectReduceScatter},
		{"ag", RingAllGather},
		{"a2a", AllToAll},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			o := base
			o.Collective = tc.coll
			o, c := checkedOpts(o)
			res, err := RunFused(o)
			if err != nil {
				t.Fatal(err)
			}
			assertClean(t, c, tc.name)

			// Lower bound: ring and all-to-all devices serialize their sends
			// through one forward link; direct-RS scatters over n-1 links.
			links := 1
			if tc.coll == DirectReduceScatter {
				links = o.Devices - 1
			}
			wireFloor := o.Link.LinkBandwidth.TransferTime(res.LinkBytes / units.Bytes(links))
			if res.Done < wireFloor {
				t.Errorf("done %v beats the wire serialization floor %v for %v over %d link(s)",
					res.Done, wireFloor, res.LinkBytes, links)
			}

			// Upper bound: the serialized schedule. The fused run also drains
			// its staged updates through DRAM, so charge the serial schedule
			// the same DRAM drain allowance (total traffic at full bandwidth).
			serialWire := o.Link.LinkBandwidth.TransferTime(res.LinkBytes/units.Bytes(links)) +
				units.Time(o.Devices)*o.Link.LinkLatency
			dramDrain := o.Memory.TotalBandwidth.TransferTime(res.DRAM.TotalBytes())
			ceiling := isolated + serialWire + dramDrain
			if res.Done > ceiling {
				t.Errorf("done %v exceeds the serialized ceiling %v (isolated GEMM %v + wire %v + drain %v)",
					res.Done, ceiling, isolated, serialWire, dramDrain)
			}
		})
	}
}

// TestMetamorphicFusedMonotoneInSize grows the GEMM's M dimension and checks
// that completion times and traffic only grow with it.
func TestMetamorphicFusedMonotoneInSize(t *testing.T) {
	var prev *FusedResult
	var prevM int
	for _, m := range []int{1024, 2048, 4096} {
		g, err := gemm.NewGrid(gemm.Shape{M: m, N: 2048, K: 512, ElemBytes: 2}, gemm.DefaultTiling())
		if err != nil {
			t.Fatal(err)
		}
		o := fusedOpts(t, 4)
		o.Grid = g
		o, c := checkedOpts(o)
		res, err := RunFused(o)
		if err != nil {
			t.Fatal(err)
		}
		assertClean(t, c, fmt.Sprintf("M=%d", m))
		if prev != nil {
			if res.Done < prev.Done {
				t.Errorf("M=%d done %v earlier than M=%d done %v", m, res.Done, prevM, prev.Done)
			}
			if res.GEMMDone < prev.GEMMDone {
				t.Errorf("M=%d GEMM done %v earlier than M=%d %v", m, res.GEMMDone, prevM, prev.GEMMDone)
			}
			if res.LinkBytes <= prev.LinkBytes {
				t.Errorf("M=%d link bytes %v not above M=%d %v", m, res.LinkBytes, prevM, prev.LinkBytes)
			}
			if res.DRAM.TotalBytes() <= prev.DRAM.TotalBytes() {
				t.Errorf("M=%d DRAM bytes %v not above M=%d %v", m, res.DRAM.TotalBytes(), prevM, prev.DRAM.TotalBytes())
			}
		}
		r := res
		prev, prevM = &r, m
	}
}

// TestMetamorphicFusedMonotoneInLink speeds the ring up and checks the fused
// run never slows down: with identical compute and memory, a faster link can
// only remove wire time from the critical path.
func TestMetamorphicFusedMonotoneInLink(t *testing.T) {
	var prev units.Time
	var prevBW units.Bandwidth
	for _, bw := range []units.Bandwidth{37*units.GBps + units.Bandwidth(500e6), 75 * units.GBps, 150 * units.GBps} {
		o := fusedOpts(t, 4)
		o.Link.LinkBandwidth = bw
		o, c := checkedOpts(o)
		res, err := RunFused(o)
		if err != nil {
			t.Fatal(err)
		}
		assertClean(t, c, bw.String())
		if prev != 0 && res.Done > prev {
			t.Errorf("link %v done %v slower than link %v done %v", bw, res.Done, prevBW, prev)
		}
		prev, prevBW = res.Done, bw
	}
}
