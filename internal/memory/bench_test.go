package memory

import (
	"testing"

	"t3sim/internal/sim"
	"t3sim/internal/units"
)

// burstController builds a small controller plus a burst function that
// enqueues one mixed read/write/update burst on both streams and services it
// to completion — the transaction hot path end to end.
func burstController() (*sim.Engine, *Controller, func(), error) {
	eng := sim.NewEngine()
	cfg := DefaultConfig()
	cfg.Channels = 4
	cfg.TotalBandwidth = 4 * units.GBps
	cfg.RequestGranularity = 1 * units.KiB
	cfg.QueueDepth = 8
	c, err := NewController(eng, cfg, &RoundRobin{})
	if err != nil {
		return nil, nil, nil, err
	}
	burst := func() {
		c.Transfer(Read, StreamCompute, 32*units.KiB, Tag{WG: 1}, nil)
		c.Transfer(Update, StreamComm, 32*units.KiB, Tag{WG: 2}, nil)
		c.Transfer(Write, StreamCompute, 16*units.KiB, Tag{WG: 3}, nil)
		eng.Run()
	}
	return eng, c, burst, nil
}

// BenchmarkChannelEnqueueService measures one serviced burst through the
// transfer pool and ring queues: enqueue, arbitrate, per-channel service,
// countdown completion. The interesting number is allocs/op, which must be
// zero in steady state.
func BenchmarkChannelEnqueueService(b *testing.B) {
	_, _, burst, err := burstController()
	if err != nil {
		b.Fatal(err)
	}
	burst() // warm the transfer pool and rings to the burst's high-water mark
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		burst()
	}
}

// TestTransferSteadyStateAllocFree pins the hot path's guarantee: once the
// transfer pool and rings have reached a burst's high-water mark, servicing
// further bursts allocates nothing — not per transfer, not per request, not
// per completion.
func TestTransferSteadyStateAllocFree(t *testing.T) {
	_, _, burst, err := burstController()
	if err != nil {
		t.Fatal(err)
	}
	burst() // reach steady state
	if avg := testing.AllocsPerRun(50, burst); avg != 0 {
		t.Fatalf("steady-state burst allocates %.1f objects, want 0", avg)
	}
}

// TestTransferCompletionSteadyStateAllocFree pins the same property for a
// pooled Completion receiver, the path the fused runner uses, including the
// deferred read-latency completion.
func TestTransferCompletionSteadyStateAllocFree(t *testing.T) {
	eng := sim.NewEngine()
	cfg := DefaultConfig()
	cfg.Channels = 2
	cfg.TotalBandwidth = 2 * units.GBps
	cfg.RequestGranularity = 1 * units.KiB
	cfg.QueueDepth = 8
	cfg.ReadLatency = 100 * units.Nanosecond
	c, err := NewController(eng, cfg, ComputeFirst{})
	if err != nil {
		t.Fatal(err)
	}
	done := &countCompletion{}
	burst := func() {
		c.Transfer(Read, StreamComm, 8*units.KiB, Tag{WG: 7, WF: 3}, done)
		eng.Run()
	}
	burst()
	if avg := testing.AllocsPerRun(50, burst); avg != 0 {
		t.Fatalf("steady-state completion burst allocates %.1f objects, want 0", avg)
	}
	if done.n != 52 {
		t.Fatalf("completions = %d, want 52", done.n)
	}
}

type countCompletion struct{ n int }

func (c *countCompletion) Complete(Tag) { c.n++ }

// coldTransferAllocs counts the objects one fresh controller allocates to
// build itself and serve a single read transfer of n full requests.
func coldTransferAllocs(t *testing.T, cfg Config, n int) float64 {
	t.Helper()
	return testing.AllocsPerRun(5, func() {
		eng := sim.NewEngine()
		c, err := NewController(eng, cfg, ComputeFirst{})
		if err != nil {
			t.Fatal(err)
		}
		c.Transfer(Read, StreamCompute, units.Bytes(n)*cfg.RequestGranularity, Tag{}, nil)
		eng.Run()
	})
}

// TestTransferColdStartAllocs pins what a transfer's size costs a cold
// controller: queued requests are slots in the channel rings, so serving
// 4,096 requests instead of 64 may add only the ring doublings — at most
// log2(4096/64) per channel — and never an object per request.
func TestTransferColdStartAllocs(t *testing.T) {
	cfg := DefaultConfig()
	small := coldTransferAllocs(t, cfg, 64)
	large := coldTransferAllocs(t, cfg, 4096)
	limit := float64(cfg.Channels * 6) // log2(4096/64) = 6
	if extra := large - small; extra > limit {
		t.Fatalf("4,096 requests allocate %.0f objects, 64 allocate %.0f: %.0f extra, want at most %.0f",
			large, small, extra, limit)
	}
	t.Logf("64 requests: %.0f allocs; 4,096 requests: %.0f allocs", small, large)
}
