package memory

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"t3sim/internal/check"
	"t3sim/internal/sim"
	"t3sim/internal/units"
)

// runReplay drives one seeded random workload on one engine shared by two
// controllers. With solo set, every service completion is its own event, as
// before completions were merged into runs; the replays of one seed make
// the same calls in the same order, so equal logs mean equal behaviour.
type runReplay struct {
	eng    *sim.Engine
	ctrls  [2]*Controller
	chk    *check.Checker
	grid   units.Time // a full read's flat service time: lands events on run instants
	seed   int64
	budget int // actions handlers may still take
	nextID int
	log    []runEntry
}

// runEntry is one observable moment: a transfer's completion callback ('c'),
// a foreign event ('f') or an idle waiter ('i'), with its time and id.
type runEntry struct {
	at   units.Time
	what byte
	ctrl int
	id   int
}

// runParams is one point of the configuration space the test covers.
type runParams struct {
	arb     int // 0 round-robin, 1 compute-first, 2 MCA
	banks   bool
	latency units.Time
}

func (p runParams) String() string {
	return fmt.Sprintf("arb=%d banks=%v latency=%v", p.arb, p.banks, p.latency)
}

func newRunReplay(t *testing.T, seed int64, p runParams, solo bool) *runReplay {
	t.Helper()
	d := &runReplay{eng: sim.NewEngine(), chk: check.New(), seed: seed, budget: 300}
	d.eng.AttachChecker(d.chk)
	cfg := DefaultConfig()
	cfg.Channels = 4
	cfg.QueueDepth = 3
	cfg.ReadLatency = p.latency
	cfg.Check = d.chk
	if p.banks {
		b := DefaultBankConfig()
		cfg.Banks = &b
	}
	for i := range d.ctrls {
		var arb Arbiter
		switch p.arb {
		case 0:
			arb = &RoundRobin{}
		case 1:
			arb = ComputeFirst{}
		default:
			arb = NewMCA(DefaultMCAConfig())
		}
		c, err := NewController(d.eng, cfg, arb)
		if err != nil {
			t.Fatal(err)
		}
		c.solo = solo
		d.ctrls[i] = c
	}
	d.grid = d.ctrls[0].flatService(Read, cfg.RequestGranularity)
	return d
}

// rng returns the random source of action id, independent of every other
// action's draws.
func (d *runReplay) rng(id int) *rand.Rand {
	return rand.New(rand.NewSource(d.seed*1_000_003 + int64(id)))
}

// act takes one action drawn from r: a transfer, a foreign event at a
// grid-aligned time, an idle waiter, or an MCA monitor window edge.
func (d *runReplay) act(r *rand.Rand) {
	if d.budget == 0 {
		return
	}
	d.budget--
	id := d.nextID
	d.nextID++
	ci := r.Intn(2)
	c := d.ctrls[ci]
	g := c.cfg.RequestGranularity
	switch op := r.Intn(20); {
	case op < 10:
		var size units.Bytes
		switch r.Intn(4) {
		case 0:
			size = g
		case 1:
			size = units.Bytes(2+r.Intn(40)) * g
		case 2:
			size = units.Bytes(r.Intn(9))*g + units.Bytes(1+r.Intn(int(g)-1))
		default:
			size = units.Bytes(1 + r.Intn(int(g)-1))
		}
		c.Transfer(AccessKind(r.Intn(3)), Stream(r.Intn(2)), size, Tag{WG: id}, CompletionFunc(func(Tag) {
			d.log = append(d.log, runEntry{d.eng.Now(), 'c', ci, id})
			d.children(id)
		}))
	case op < 16:
		d.eng.At(d.eng.Now()+units.Time(r.Intn(5))*d.grid, func() {
			d.log = append(d.log, runEntry{d.eng.Now(), 'f', ci, id})
			d.children(id)
		})
	case op < 19:
		fn := func() {
			d.log = append(d.log, runEntry{d.eng.Now(), 'i', ci, id})
			d.children(id)
		}
		if s := r.Intn(3); s < 2 {
			c.WhenIdle(Stream(s), fn)
		} else {
			c.WhenAllIdle(fn)
		}
	default:
		if r.Intn(2) == 0 {
			c.BeginMonitor()
		} else {
			c.EndMonitor()
		}
	}
}

// children lets action id take up to three more actions.
func (d *runReplay) children(id int) {
	r := d.rng(id)
	for n := r.Intn(4); n > 0; n-- {
		d.act(r)
	}
}

// run seeds the workload with root events on the grid and drains the
// engine through conservative windows, as a cluster would, then to the end.
func (d *runReplay) run() {
	r := d.rng(-1)
	for i := 0; i < 12; i++ {
		d.eng.At(units.Time(r.Intn(8))*d.grid, func() { d.act(d.rng(-2 - i)) })
	}
	for w := units.Time(1); w <= 40; w++ {
		d.eng.RunBefore(w * 3 * d.grid / 2)
	}
	d.eng.Run()
}

// TestRunsMatchSoloCompletions is the exactness property of same-instant
// runs: over randomized traffic on two controllers sharing one engine —
// every arbiter, the flat and bank models, with and without ReadLatency,
// partial tails, foreign events at run instants, idle waiters and
// completions issuing transfers from inside a run, MCA monitor windows —
// merged completions produce exactly the completion callbacks (time and
// order), counters and checker witnesses of one event per completion.
func TestRunsMatchSoloCompletions(t *testing.T) {
	var merged, solo uint64
	for _, p := range []runParams{
		{arb: 0}, {arb: 1}, {arb: 2},
		{arb: 0, latency: 60 * units.Nanosecond},
		{arb: 1, latency: 60 * units.Nanosecond},
		{arb: 2, latency: 60 * units.Nanosecond},
		{arb: 0, banks: true}, {arb: 2, banks: true, latency: 60 * units.Nanosecond},
	} {
		for seed := int64(1); seed <= 30; seed++ {
			a, b := newRunReplay(t, seed, p, false), newRunReplay(t, seed, p, true)
			a.run()
			b.run()
			if i := firstDiff(a.log, b.log); i >= 0 {
				t.Fatalf("%v seed %d: logs differ from entry %d of %d/%d: runs %v, solo %v",
					p, seed, i, len(a.log), len(b.log), a.log[i:min(i+4, len(a.log))], b.log[i:min(i+4, len(b.log))])
			}
			for i := range a.ctrls {
				if *a.ctrls[i].Counters() != *b.ctrls[i].Counters() {
					t.Fatalf("%v seed %d: controller %d counters differ: %+v vs %+v",
						p, seed, i, *a.ctrls[i].Counters(), *b.ctrls[i].Counters())
				}
			}
			if va, vb := a.chk.Violations(), b.chk.Violations(); !reflect.DeepEqual(va, vb) || len(va) > 0 {
				t.Fatalf("%v seed %d: checker witnesses differ or fail: %v vs %v", p, seed, va, vb)
			}
			if a.eng.Now() != b.eng.Now() || a.eng.Pending() != 0 || b.eng.Pending() != 0 {
				t.Fatalf("%v seed %d: end states differ", p, seed)
			}
			if a.eng.Processed() > b.eng.Processed() {
				t.Fatalf("%v seed %d: runs dispatched %d events, solo %d", p, seed, a.eng.Processed(), b.eng.Processed())
			}
			merged += a.eng.Processed()
			solo += b.eng.Processed()
		}
	}
	if merged >= solo {
		t.Fatalf("runs never merged a completion: %d events vs %d solo", merged, solo)
	}
	t.Logf("%d events with runs, %d solo", merged, solo)
}

// firstDiff returns the index of the first entry where a and b differ, or
// -1 when they are equal.
func firstDiff(a, b []runEntry) int {
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return i
		}
	}
	if len(a) != len(b) {
		return min(len(a), len(b))
	}
	return -1
}
