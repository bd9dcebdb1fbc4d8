// Quickstart: fuse a tensor-sliced GEMM with its ring reduce-scatter using
// T3 on a 4-GPU ring and compare against sequential execution.
//
// Run with:
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"t3sim"
)

func main() {
	// A [8192x4096] FP16 GEMM whose K dimension has already been sliced
	// across 4 tensor-parallel devices (K = 2048/4 per device would come
	// from SliceK; here we build the sliced shape directly).
	grid, err := t3sim.NewGrid(
		t3sim.GEMMShape{M: 8192, N: 4096, K: 512, ElemBytes: 2},
		t3sim.DefaultTiling(),
	)
	if err != nil {
		log.Fatal(err)
	}
	const devices = 4

	opts := t3sim.FusedOptions{
		GPU:         t3sim.DefaultGPUConfig(),
		Memory:      t3sim.DefaultMemoryConfig(),
		Link:        t3sim.DefaultLinkConfig(),
		Tracker:     t3sim.TrackerConfig{Sets: 256, Ways: 64, MaxWFsPerWG: 8},
		Devices:     devices,
		Grid:        grid,
		Collective:  t3sim.RingReduceScatterCollective,
		Arbitration: t3sim.ArbMCA, // the paper's T3-MCA configuration
	}
	fused, err := t3sim.RunFused(opts)
	if err != nil {
		log.Fatal(err)
	}

	// Sequential reference: the same GEMM followed by a standalone RS.
	rs, err := t3sim.AnalyticRingReduceScatterTime(t3sim.AnalyticCollectiveOptions{
		Devices:           devices,
		TotalBytes:        grid.Shape.OutputBytes(),
		Link:              opts.Link,
		MemBandwidth:      opts.Memory.TotalBandwidth,
		CUs:               opts.GPU.CUs,
		PerCUMemBandwidth: 16 * t3sim.GBps,
	})
	if err != nil {
		log.Fatal(err)
	}
	sequential := fused.GEMMDone + rs

	fmt.Printf("GEMM %v on %d devices, output %v, reduce-scatter fused by T3\n",
		grid.Shape, devices, grid.Shape.OutputBytes())
	fmt.Printf("  GEMM finished:           %v\n", fused.GEMMDone)
	fmt.Printf("  fused RS complete:       %v\n", fused.Done)
	fmt.Printf("  sequential GEMM->RS:     %v (estimate)\n", sequential)
	fmt.Printf("  speedup:                 %.2fx\n", float64(sequential)/float64(fused.Done))
	fmt.Printf("  exposed communication:   %v (vs %v serialized)\n", fused.Done-fused.GEMMDone, rs)
	fmt.Printf("  DRAM traffic:            %v (all NMC updates, no collective kernels)\n",
		fused.DRAM.TotalBytes())
	fmt.Printf("  ring link traffic:       %v\n", fused.LinkBytes)
	fmt.Printf("  tracker high-water mark: %d live tiles\n", fused.TrackerMaxLive)
	fmt.Printf("  MCA occupancy threshold: %d\n", fused.MCAThreshold)
}
