package memory

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"t3sim/internal/sim"
	"t3sim/internal/units"
)

// TestPropertyByteConservation: any batch of transfers across random kinds,
// streams, and sizes is fully serviced — counters account every byte, every
// completion callback runs, and the engine drains.
func TestPropertyByteConservation(t *testing.T) {
	f := func(seed int64, nOpsRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		nOps := int(nOpsRaw)%40 + 1
		eng := sim.NewEngine()
		cfg := DefaultConfig()
		cfg.Channels = 4
		cfg.TotalBandwidth = 64 * units.GBps
		arbs := []Arbiter{&RoundRobin{}, ComputeFirst{}, NewMCA(DefaultMCAConfig())}
		c, err := NewController(eng, cfg, arbs[rng.Intn(len(arbs))])
		if err != nil {
			return false
		}
		var want units.Bytes
		completions := 0
		for i := 0; i < nOps; i++ {
			kind := AccessKind(rng.Intn(3))
			stream := Stream(rng.Intn(2))
			size := units.Bytes(rng.Intn(64*1024) + 1)
			want += size
			c.Transfer(kind, stream, size, Tag{}, CompletionFunc(func(Tag) { completions++ }))
		}
		eng.Run()
		return completions == nOps && c.Counters().TotalBytes() == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestPropertyIdleWaitersAlwaysFire: WhenIdle/WhenAllIdle callbacks fire for
// any traffic pattern.
func TestPropertyIdleWaitersAlwaysFire(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		eng := sim.NewEngine()
		cfg := DefaultConfig()
		cfg.Channels = 2
		cfg.TotalBandwidth = 8 * units.GBps
		c, err := NewController(eng, cfg, NewMCA(DefaultMCAConfig()))
		if err != nil {
			return false
		}
		for i := 0; i < rng.Intn(10)+1; i++ {
			c.Transfer(AccessKind(rng.Intn(3)), Stream(rng.Intn(2)),
				units.Bytes(rng.Intn(8192)+1), Tag{}, nil)
		}
		fired := 0
		c.WhenIdle(StreamCompute, func() { fired++ })
		c.WhenIdle(StreamComm, func() { fired++ })
		c.WhenAllIdle(func() { fired++ })
		eng.Run()
		return fired == 3
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestPropertyMCANeverStallsForever: with mixed pending traffic under any
// occupancy threshold, the system always drains (no arbitration deadlock).
func TestPropertyMCANeverStallsForever(t *testing.T) {
	for _, th := range []int{1, 5, 64, -1} {
		mca := NewMCA(DefaultMCAConfig())
		mca.SetThreshold(th)
		eng := sim.NewEngine()
		cfg := DefaultConfig()
		cfg.Channels = 1
		cfg.TotalBandwidth = 1 * units.GBps
		cfg.QueueDepth = 4
		c, err := NewController(eng, cfg, mca)
		if err != nil {
			t.Fatal(err)
		}
		done := 0
		for i := 0; i < 50; i++ {
			c.Transfer(Write, StreamComm, 2048, Tag{}, CompletionFunc(func(Tag) { done++ }))
		}
		for i := 0; i < 50; i++ {
			c.Transfer(Read, StreamCompute, 2048, Tag{}, CompletionFunc(func(Tag) { done++ }))
		}
		eng.Run()
		if done != 100 {
			t.Errorf("threshold %d: %d/100 completed", th, done)
		}
	}
}

// TestPropertyServiceOrderWithinStream: compute-stream requests on a single
// channel complete in submission order under every policy (FIFO per stream).
func TestPropertyServiceOrderWithinStream(t *testing.T) {
	for _, arb := range []Arbiter{&RoundRobin{}, ComputeFirst{}, NewMCA(DefaultMCAConfig())} {
		eng := sim.NewEngine()
		cfg := DefaultConfig()
		cfg.Channels = 1
		cfg.TotalBandwidth = 1 * units.GBps
		c, err := NewController(eng, cfg, arb)
		if err != nil {
			t.Fatal(err)
		}
		var order []int
		for i := 0; i < 20; i++ {
			i := i
			c.Transfer(Write, StreamCompute, 512, Tag{}, CompletionFunc(func(Tag) { order = append(order, i) }))
		}
		eng.Run()
		for i := 1; i < len(order); i++ {
			if order[i] < order[i-1] {
				t.Fatalf("%T: out-of-order completion %v", arb, order)
			}
		}
	}
}

// TestWaitStatistics: queueing delay is zero for an uncontended request and
// grows when a stream is stuck behind a burst.
func TestWaitStatistics(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Channels = 1
	cfg.TotalBandwidth = 1 * units.GBps
	eng := sim.NewEngine()
	c, err := NewController(eng, cfg, ComputeFirst{})
	if err != nil {
		t.Fatal(err)
	}
	// A lone request: no wait.
	c.Transfer(Read, StreamCompute, 1024, Tag{}, nil)
	eng.Run()
	if w := c.Counters().MeanWait(StreamCompute); w != 0 {
		t.Errorf("lone request waited %v, want 0", w)
	}

	// A comm burst behind a long compute queue must accumulate wait.
	eng2 := sim.NewEngine()
	c2, err := NewController(eng2, cfg, ComputeFirst{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 32; i++ {
		c2.Transfer(Read, StreamCompute, 2048, Tag{}, nil)
	}
	for i := 0; i < 4; i++ {
		c2.Transfer(Write, StreamComm, 2048, Tag{}, nil)
	}
	eng2.Run()
	commWait := c2.Counters().MeanWait(StreamComm)
	computeWait := c2.Counters().MeanWait(StreamCompute)
	if commWait <= computeWait {
		t.Errorf("comm wait %v not above compute wait %v under compute-first", commWait, computeWait)
	}
	if commWait <= 0 {
		t.Error("comm burst accumulated no wait")
	}
}

// completionTrace is one run's observable transfer completions: the order
// the callbacks ran in and the picosecond each transfer finished.
type completionTrace struct {
	order []int
	at    []units.Time
}

// xferSpec is one randomly drawn transfer and the time it is issued.
type xferSpec struct {
	issue  units.Time
	kind   AccessKind
	stream Stream
	bytes  units.Bytes
}

// runCompletions issues specs on a fresh controller and records every
// transfer's completion. whole issues each as one Transfer (one countdown
// per transfer, one ReadLatency event per read transfer); otherwise each
// request is a one-request Transfer of its own whose completion gets its
// own ReadLatency event — the per-request reference the collapse must
// reproduce exactly.
func runCompletions(t *testing.T, cfg Config, arb Arbiter, specs []xferSpec, whole bool) completionTrace {
	t.Helper()
	eng := sim.NewEngine()
	c, err := NewController(eng, cfg, arb)
	if err != nil {
		t.Fatal(err)
	}
	tr := completionTrace{at: make([]units.Time, len(specs))}
	for i, sp := range specs {
		i, sp := i, sp
		done := func() {
			tr.order = append(tr.order, i)
			tr.at[i] = eng.Now()
		}
		tag := Tag{WG: i}
		eng.At(sp.issue, func() {
			if whole {
				c.Transfer(sp.kind, sp.stream, sp.bytes, tag, CompletionFunc(func(Tag) { done() }))
				return
			}
			left := c.RequestsFor(sp.bytes)
			for rem := sp.bytes; rem > 0; rem -= cfg.RequestGranularity {
				c.Transfer(sp.kind, sp.stream, min(rem, cfg.RequestGranularity), tag, CompletionFunc(func(Tag) {
					if left--; left == 0 {
						done()
					}
				}))
			}
		})
	}
	eng.Run()
	return tr
}

// TestPropertyReadFenceCollapseExact pins the one-event-per-read-transfer
// completion: across random kinds, streams, partial last requests, 1–32
// channels, zero and positive ReadLatency, the flat and bank timing models
// and all three arbiters, whole transfers finish at the same picosecond and
// in the same callback order as a reference that delivers every request's
// read latency as its own event.
func TestPropertyReadFenceCollapseExact(t *testing.T) {
	arbs := []func() Arbiter{
		func() Arbiter { return &RoundRobin{} },
		func() Arbiter { return ComputeFirst{} },
		func() Arbiter { return NewMCA(DefaultMCAConfig()) },
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		cfg := DefaultConfig()
		cfg.Channels = rng.Intn(32) + 1
		cfg.TotalBandwidth = units.Bandwidth(rng.Intn(512)+16) * units.GBps
		cfg.QueueDepth = rng.Intn(16) + 1
		if rng.Intn(2) == 0 {
			cfg.ReadLatency = 0
		} else {
			cfg.ReadLatency = units.Time(rng.Intn(200)+1) * units.Nanosecond
		}
		if rng.Intn(2) == 0 {
			b := DefaultBankConfig()
			cfg.Banks = &b
		}
		mkArb := arbs[rng.Intn(len(arbs))]
		specs := make([]xferSpec, rng.Intn(24)+1)
		for i := range specs {
			specs[i] = xferSpec{
				issue:  units.Time(rng.Intn(2000)) * units.Nanosecond,
				kind:   AccessKind(rng.Intn(3)),
				stream: Stream(rng.Intn(2)),
				bytes:  units.Bytes(rng.Intn(int(8*cfg.RequestGranularity)) + 1),
			}
		}
		got := runCompletions(t, cfg, mkArb(), specs, true)
		want := runCompletions(t, cfg, mkArb(), specs, false)
		if !reflect.DeepEqual(got, want) {
			t.Logf("seed %d (%d channels, latency %v, banks %v, %T):\n got %+v\nwant %+v",
				seed, cfg.Channels, cfg.ReadLatency, cfg.Banks != nil, mkArb(), got, want)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestTransferEventCount pins the calendar cost of one transfer on an idle
// controller exactly. The channels serve in lockstep, so each round of
// full-granularity completions is one same-instant run (one event, see
// svcRun); a partial tail completes through its own heap event, and a read
// adds a single ReadLatency event when the latency is positive — never one
// per request.
func TestTransferEventCount(t *testing.T) {
	const g = 2 * units.KiB // DefaultConfig's granularity; 32 channels
	for _, tc := range []struct {
		total units.Bytes
		runs  uint64 // rounds of full requests: ceil(full / 32)
		tails uint64
	}{
		{1, 0, 1},
		{g, 1, 0},
		{g + 1, 1, 1},
		{32 * g, 1, 0},
		{32*g + 7, 1, 1},
		{33 * g, 2, 0},
		{128 * g, 4, 0},
		{128*g + 7, 4, 1},
	} {
		for _, lat := range []units.Time{0, 60 * units.Nanosecond} {
			for _, kind := range []AccessKind{Read, Write, Update} {
				eng := sim.NewEngine()
				cfg := DefaultConfig()
				cfg.ReadLatency = lat
				c, err := NewController(eng, cfg, &RoundRobin{})
				if err != nil {
					t.Fatal(err)
				}
				fired := 0
				c.Transfer(kind, StreamCompute, tc.total, Tag{}, CompletionFunc(func(Tag) { fired++ }))
				eng.Run()
				want := tc.runs + tc.tails
				if kind == Read && lat > 0 {
					want++
				}
				if got := eng.Processed(); got != want || fired != 1 {
					t.Errorf("%v of %v at latency %v: %d events, %d callbacks; want %d events, 1 callback",
						kind, tc.total, lat, got, fired, want)
				}
			}
		}
	}
}

// strictArbiter wraps a policy and fails the test if the channel consults it
// with nothing pending or with a full DRAM queue (the Arbiter contract).
type strictArbiter struct {
	Arbiter
	t     *testing.T
	calls int
}

func (a *strictArbiter) Next(v ChannelView) (Stream, bool) {
	a.calls++
	if v.ComputePending+v.CommPending == 0 || v.DRAMOccupancy >= v.QueueDepth {
		a.t.Fatalf("arbiter consulted outside its contract: %+v", v)
	}
	return a.Arbiter.Next(v)
}

// TestArbiterConsultedOnlyWithPendingWork: however traffic drains, the
// channel never asks the policy to choose between two empty streams.
func TestArbiterConsultedOnlyWithPendingWork(t *testing.T) {
	for _, inner := range []Arbiter{&RoundRobin{}, ComputeFirst{}, NewMCA(DefaultMCAConfig())} {
		eng := sim.NewEngine()
		cfg := DefaultConfig()
		cfg.Channels = 3
		cfg.QueueDepth = 4
		arb := &strictArbiter{Arbiter: inner, t: t}
		c, err := NewController(eng, cfg, arb)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 8; i++ {
			at := units.Time(i) * 500 * units.Nanosecond
			eng.At(at, func() {
				c.Transfer(Read, StreamCompute, 24*units.KiB, Tag{}, nil)
				c.Transfer(Update, StreamComm, 10*units.KiB, Tag{}, nil)
			})
		}
		eng.Run()
		if arb.calls == 0 {
			t.Errorf("%T: arbiter never consulted", inner)
		}
	}
}
