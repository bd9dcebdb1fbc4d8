// Timeline: visualize a fused GEMM→reduce-scatter as an ASCII timeline —
// per-interval event density (stage completions, remote writes, DMA
// triggers, owned-chunk completions), the paper's Figure 7/17 dynamics in
// one view. The events are the instants the run records on its "t3core"
// timeline track when given a metrics registry with the timeline enabled.
//
// Run with:
//
//	go run ./examples/timeline
package main

import (
	"fmt"
	"log"
	"strings"

	"t3sim"
)

func main() {
	grid, err := t3sim.NewGrid(
		t3sim.GEMMShape{M: 8192, N: 4096, K: 1024, ElemBytes: 2},
		t3sim.DefaultTiling())
	if err != nil {
		log.Fatal(err)
	}
	reg := t3sim.NewMetricsRegistry()
	reg.EnableTimeline()
	res, err := t3sim.RunFusedGEMMRS(t3sim.FusedOptions{
		GPU:         t3sim.DefaultGPUConfig(),
		Memory:      t3sim.DefaultMemoryConfig(),
		Link:        t3sim.DefaultLinkConfig(),
		Tracker:     t3sim.TrackerConfig{Sets: 256, Ways: 64, MaxWFsPerWG: 8},
		Devices:     8,
		Grid:        grid,
		Collective:  t3sim.RingReduceScatterCollective,
		Arbitration: t3sim.ArbMCA,
		Metrics:     reg,
	})
	if err != nil {
		log.Fatal(err)
	}

	const buckets = 48
	span := res.Done + 1
	bucket := span / buckets
	type lane struct {
		name string
		kind t3sim.FusedEventKind
		hist [buckets]int
	}
	lanes := []*lane{
		{name: "GEMM stages ", kind: t3sim.EventStageComputed},
		{name: "remote wr   ", kind: t3sim.EventRemoteWrite},
		{name: "DMA trigger ", kind: t3sim.EventDMATriggered},
		{name: "owned done  ", kind: t3sim.EventOwnedTileDone},
	}
	events := reg.Track("t3core")
	for _, l := range lanes {
		for _, at := range events.Instants(l.kind.String()) {
			idx := int(at / bucket)
			if idx >= buckets {
				idx = buckets - 1
			}
			l.hist[idx]++
		}
	}
	glyph := func(n, max int) byte {
		switch {
		case n == 0:
			return '.'
		case n <= max/8+1:
			return '-'
		case n <= max/2+1:
			return '+'
		default:
			return '#'
		}
	}

	fmt.Printf("fused GEMM-RS on 8 GPUs: %v output, done at %v (GEMM at %v)\n\n",
		grid.Shape.OutputBytes(), res.Done, res.GEMMDone)
	for _, l := range lanes {
		max := 0
		for _, n := range l.hist {
			if n > max {
				max = n
			}
		}
		var b strings.Builder
		for _, n := range l.hist {
			b.WriteByte(glyph(n, max))
		}
		fmt.Printf("%s |%s|\n", l.name, b.String())
	}
	fmt.Printf("%s 0%sdone\n", strings.Repeat(" ", 12), strings.Repeat(" ", buckets-3))
	fmt.Println("\nreading the lanes: remote writes track the first chunk's production;")
	fmt.Println("DMA triggers follow each phase as local + incoming updates complete;")
	fmt.Println("owned completions cluster at the end, closing the reduce-scatter.")
	g := events.Instants(t3sim.EventGEMMDone.String())[0]
	c := events.Instants(t3sim.EventCollectiveDone.String())[0]
	fmt.Printf("\nexposed communication after GEMM: %v (%.1f%% of the run)\n",
		c-g, 100*float64(c-g)/float64(res.Done))
}
