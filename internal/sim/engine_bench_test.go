package sim

import (
	"testing"

	"t3sim/internal/units"
)

// The engine benchmarks measure the two halves of the DES hot loop: pushing
// events into the calendar (BenchmarkEngineSchedule) and the full
// schedule+dispatch cycle (BenchmarkEngineRun). Run with
//
//	go test ./internal/sim -run='^$' -bench=BenchmarkEngine -benchmem
//
// EXPERIMENTS.md records the container/heap baseline and the value-based
// 4-ary heap numbers; the target is zero steady-state allocations per
// scheduled event.

// benchSpread de-correlates timestamps so the heap sees realistic sift work
// rather than append-only FIFO behaviour. It is a fixed LCG, not wall-clock
// randomness, so every run benchmarks the identical event sequence.
func benchSpread(i int) units.Time {
	return units.Time((uint64(i)*6364136223846793005 + 1442695040888963407) % 100000)
}

func BenchmarkEngineSchedule(b *testing.B) {
	e := NewEngine()
	fn := Handler(func() {})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.At(benchSpread(i), fn)
	}
	b.StopTimer()
	e.Run()
}

func BenchmarkEngineRun(b *testing.B) {
	// Steady-state schedule+drain cycles: after the first iteration the
	// queue's backing array is warm, so allocs/op is the per-event cost.
	const events = 4096
	e := NewEngine()
	fn := Handler(func() {})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		base := e.Now()
		for j := 0; j < events; j++ {
			e.At(base+benchSpread(j), fn)
		}
		e.Run()
	}
	b.StopTimer()
	if e.Processed() != uint64(b.N)*events {
		b.Fatalf("processed %d events, want %d", e.Processed(), uint64(b.N)*events)
	}
}

// BenchmarkEngineRunCascade models the self-rescheduling handler chains the
// timing models actually produce (a DRAM channel or link re-arming itself),
// keeping a small live calendar with constant churn.
func BenchmarkEngineRunCascade(b *testing.B) {
	const chains = 64
	e := NewEngine()
	remaining := b.N
	var tick func()
	tick = func() {
		if remaining > 0 {
			remaining--
			e.After(units.Time(1+remaining%97), tick)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for c := 0; c < chains; c++ {
		e.After(units.Time(c+1), tick)
	}
	e.Run()
}

// BenchmarkEngineRunLane is BenchmarkEngineRunCascade with the chains
// re-arming through one fixed-delay lane — the DRAM service-completion
// pattern — while every eighth hop takes a spread delay on the heap, so
// dispatch keeps merging the two. Steady state allocates nothing.
func BenchmarkEngineRunLane(b *testing.B) {
	const chains = 64
	e := NewEngine()
	lane := e.Lane(97)
	remaining := b.N
	var tick func()
	tick = func() {
		if remaining > 0 {
			remaining--
			if remaining%8 == 0 {
				e.After(benchSpread(remaining)%97, tick)
			} else {
				lane.After(tick)
			}
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for c := 0; c < chains; c++ {
		e.After(units.Time(c+1), tick)
	}
	e.Run()
}
