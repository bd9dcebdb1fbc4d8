// MoE: expert parallelism (§7.2) — a Mixture-of-Experts layer places one
// expert per device and exchanges tokens with an all-to-all before and
// after the expert FFN. T3 fuses the all-to-all with the producer GEMM:
// each output chunk is remote-written to its expert's device as it is
// produced, so the exchange rides on the GEMM's stores.
//
// Run with:
//
//	go run ./examples/moe
package main

import (
	"fmt"
	"log"

	"t3sim"
)

func main() {
	const (
		experts = 8    // one expert per device
		tokens  = 8192 // tokens routed this step
		hidden  = 4096
	)
	// The producer: the pre-exchange projection computing each token's
	// activation, whose output is scattered to the experts.
	grid, err := t3sim.NewGrid(
		t3sim.GEMMShape{M: tokens, N: hidden, K: hidden / experts, ElemBytes: 2},
		t3sim.DefaultTiling())
	if err != nil {
		log.Fatal(err)
	}

	res, err := t3sim.RunFused(t3sim.FusedOptions{
		GPU:         t3sim.DefaultGPUConfig(),
		Memory:      t3sim.DefaultMemoryConfig(),
		Link:        t3sim.DefaultLinkConfig(),
		Tracker:     t3sim.TrackerConfig{Sets: 256, Ways: 64, MaxWFsPerWG: 8},
		Devices:     experts,
		Grid:        grid,
		Collective:  t3sim.AllToAllCollective,
		Arbitration: t3sim.ArbMCA,
	})
	if err != nil {
		log.Fatal(err)
	}

	// Sequential reference: GEMM then a wire-bound all-to-all of (n-1)/n of
	// the output across the ring links.
	out := grid.Shape.OutputBytes()
	exchanged := out / experts * (experts - 1)
	wire := t3sim.DefaultLinkConfig().LinkBandwidth.TransferTime(exchanged)
	sequential := res.GEMMDone + wire

	fmt.Printf("MoE token exchange: %d experts, %v activations, %v crossing the network\n",
		experts, out, exchanged)
	fmt.Printf("  GEMM finished:        %v\n", res.GEMMDone)
	fmt.Printf("  fused exchange done:  %v\n", res.Done)
	fmt.Printf("  sequential estimate:  %v\n", sequential)
	fmt.Printf("  speedup:              %.2fx\n", float64(sequential)/float64(res.Done))
	fmt.Printf("  local DRAM writes:    %v (only the local expert's chunk, §7.1)\n",
		res.DRAM.Bytes[t3sim.MemoryWrite][0])
	fmt.Printf("  link traffic:         %v\n", res.LinkBytes)

	// The functional layer proves the exchange semantics on real data.
	data := make([][]float32, experts)
	for d := range data {
		arr := make([]float32, experts*16)
		for i := range arr {
			arr[i] = float32(d*1000 + i)
		}
		data[d] = arr
	}
	if err := t3sim.AllToAll(data); err != nil {
		log.Fatal(err)
	}
	// After the exchange, device d's chunk j holds device j's chunk d.
	bounds := t3sim.ChunkBounds(experts*16, experts)
	ok := true
	for d := 0; d < experts && ok; d++ {
		for j := 0; j < experts && ok; j++ {
			b := bounds[j]
			want := float32(j*1000 + bounds[d][0])
			if data[d][b[0]] != want {
				ok = false
			}
		}
	}
	fmt.Printf("  functional all-to-all verified: %v\n", ok)
}
