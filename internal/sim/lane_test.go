package sim

import (
	"math/rand"
	"reflect"
	"testing"

	"t3sim/internal/units"
)

// laneDelays has more distinct delays than an engine has lane slots, so the
// property test also covers lanes that forward to the heap.
var laneDelays = []units.Time{0, 1, 3, 4, 7, 9, 16}

// calReplay replays one seeded random workload on an engine. With lanes
// false it is the heap-only reference: every Lane.After becomes the
// Engine.After it is defined to equal.
type calReplay struct {
	e      *Engine
	lanes  bool
	nextID int
	budget int // events handlers may still schedule
	log    []fired
}

// fired is one dispatch. Both replays issue the same scheduling calls in the
// same order, so an event's id is its insertion seq less a constant and an
// equal log means an equal dispatched (at, seq) sequence.
type fired struct {
	at units.Time
	id int
}

// schedule issues one scheduling call chosen by r.
func (d *calReplay) schedule(r *rand.Rand) {
	id := d.nextID
	d.nextID++
	fire := func() {
		d.log = append(d.log, fired{d.e.Now(), id})
		d.children(id)
	}
	delay := laneDelays[r.Intn(len(laneDelays))]
	switch op := r.Intn(5); {
	case op == 0:
		d.e.At(d.e.Now()+units.Time(r.Intn(20)), fire)
	case op == 1 || op == 3 && !d.lanes:
		d.e.After(delay, fire)
	case op == 2 || op == 4 && !d.lanes:
		d.e.After(delay, NewFence(1, fire).Done)
	case op == 3:
		d.e.Lane(delay).After(fire)
	default:
		d.e.Lane(delay).After(NewFence(1, fire).Done)
	}
}

// children lets event id schedule up to two more events, drawn from its own
// seed so both replays make identical calls.
func (d *calReplay) children(id int) {
	src := splitmix(id)
	r := rand.New(&src)
	for n := r.Intn(3); n > 0 && d.budget > 0; n-- {
		d.budget--
		d.schedule(r)
	}
}

// splitmix is SplitMix64: a one-word rand.Source that is cheap to seed per
// event, unlike rand.NewSource.
type splitmix uint64

func (s *splitmix) Uint64() uint64 {
	*s += 0x9e3779b97f4a7c15
	z := uint64(*s)
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

func (s *splitmix) Int63() int64 { return int64(s.Uint64() >> 1) }
func (s *splitmix) Seed(v int64) { *s = splitmix(v) }

// calState is everything the public API reports about a calendar.
type calState struct {
	now       units.Time
	processed uint64
	pending   int
	nextAt    units.Time
	nextOK    bool
}

func (d *calReplay) state() calState {
	at, ok := d.e.NextAt()
	return calState{d.e.Now(), d.e.Processed(), d.e.Pending(), at, ok}
}

// TestLanesMatchHeapOnly is the lanes' equivalence property: randomized
// mixes of At, After and Lane.After, with plain handlers and fence
// completions as handlers — with equal-time ties across heap and lanes, and
// more delays than lane slots — driven through RunUntil, RunBefore, NextAt,
// Pending and Run dispatch exactly the (at, seq) sequence, and report
// exactly the state, of a heap-only engine given the same calls.
func TestLanesMatchHeapOnly(t *testing.T) {
	for seed := int64(1); seed <= 200; seed++ {
		rep := [2]*calReplay{
			{e: NewEngine(), lanes: true, budget: 400},
			{e: NewEngine(), budget: 400},
		}
		var rs [2]*rand.Rand
		for i := range rs {
			rs[i] = rand.New(rand.NewSource(seed))
		}
		for round := 0; round < 30; round++ {
			var states [2]calState
			for i, d := range rep {
				r := rs[i]
				for n := r.Intn(6); n > 0; n-- {
					d.schedule(r)
				}
				deadline := d.e.Now() + units.Time(r.Intn(25))
				switch r.Intn(3) {
				case 0:
					d.e.RunUntil(deadline)
				case 1:
					d.e.RunBefore(deadline)
				}
				states[i] = d.state()
			}
			if states[0] != states[1] {
				t.Fatalf("seed %d round %d: lanes %+v, heap-only %+v", seed, round, states[0], states[1])
			}
		}
		for _, d := range rep {
			d.e.Run()
		}
		if !reflect.DeepEqual(rep[0].log, rep[1].log) {
			t.Fatalf("seed %d: dispatch order differs from the heap-only reference", seed)
		}
		if s0, s1 := rep[0].state(), rep[1].state(); s0 != s1 || s0.pending != 0 {
			t.Fatalf("seed %d: drained lanes %+v, heap-only %+v", seed, s0, s1)
		}
		if uint64(len(rep[0].log)) != rep[0].e.Processed() {
			t.Fatalf("seed %d: %d dispatches logged, Processed() = %d", seed, len(rep[0].log), rep[0].e.Processed())
		}
	}
}

// TestLaneSlotsAndForwarding pins the lane bookkeeping: a delay reuses its
// lane, delays beyond laneSlots forward to the heap, and Pending counts both.
func TestLaneSlotsAndForwarding(t *testing.T) {
	e := NewEngine()
	for i := 0; i < laneSlots+2; i++ {
		l := e.Lane(units.Time(10 + i))
		if again := e.Lane(units.Time(10 + i)); again != l {
			t.Fatalf("Lane(%d) returned %+v, then %+v", 10+i, l, again)
		}
		if want := i < laneSlots; (l.slot >= 0) != want {
			t.Fatalf("Lane(%d) slot %d, want a lane slot: %v", 10+i, l.slot, want)
		}
		l.After(func() {})
	}
	if e.Pending() != laneSlots+2 || len(e.queue) != 2 || e.laneLen != laneSlots {
		t.Fatalf("Pending %d (heap %d, lanes %d), want %d (2, %d)",
			e.Pending(), len(e.queue), e.laneLen, laneSlots+2, laneSlots)
	}
	if at, ok := e.NextAt(); !ok || at != 10 {
		t.Fatalf("NextAt = %v, %v; want 10, true", at, ok)
	}
	if end := e.Run(); end != units.Time(10+laneSlots+1) || e.Processed() != laneSlots+2 {
		t.Fatalf("Run ended at %v after %d events", end, e.Processed())
	}
	mustPanic(t, "negative lane delay", func() { e.Lane(-1) })
	mustPanic(t, "nil lane handler", func() { e.Lane(1).After(nil) })
	mustPanic(t, "nil slotted-lane handler", func() { e.Lane(10).After(nil) })
}

func mustPanic(t *testing.T, what string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s: expected a panic", what)
		}
	}()
	f()
}

// TestScheduledMarksConsecutiveEvents pins the primitive behind
// internal/memory's same-instant runs. Scheduled counts every scheduling
// call — At, After, a slotted Lane.After and a heap-forwarded one, from
// outside the engine and from handlers — and nothing else, through
// RunBefore windows and Run. And two events for one time whose calls leave
// Scheduled one apart dispatch back to back, whatever else is pending.
func TestScheduledMarksConsecutiveEvents(t *testing.T) {
	type sched struct {
		at   units.Time
		mark uint64 // Scheduled() right after the call
	}
	for seed := int64(1); seed <= 100; seed++ {
		r := rand.New(rand.NewSource(seed))
		e := NewEngine()
		lanes := make([]Lane, laneSlots+1) // the last one forwards to the heap
		for i := range lanes {
			lanes[i] = e.Lane(units.Time(i))
		}
		if lanes[laneSlots].slot >= 0 {
			t.Fatal("expected the last lane to forward to the heap")
		}
		var evs []sched // by id
		var order []int // ids in dispatch order
		budget := 400
		var schedule func()
		schedule = func() {
			id := len(evs)
			fn := func() {
				order = append(order, id)
				for n := r.Intn(3); n > 0 && budget > 0; n-- {
					budget--
					schedule()
				}
			}
			before := e.Scheduled()
			var at units.Time
			switch op := r.Intn(4); op {
			case 0:
				at = e.Now() + units.Time(r.Intn(4))
				e.At(at, fn)
			case 1:
				d := units.Time(r.Intn(4))
				at = e.Now() + d
				e.After(d, fn)
			default:
				l := lanes[r.Intn(len(lanes))]
				at = e.Now() + l.d
				l.After(fn)
			}
			if got := e.Scheduled(); got != before+1 {
				t.Fatalf("seed %d: a scheduling call moved Scheduled from %d to %d", seed, before, got)
			}
			evs = append(evs, sched{at, e.Scheduled()})
		}
		for round := 0; round < 20; round++ {
			for n := r.Intn(5); n > 0; n-- {
				schedule()
			}
			e.RunBefore(e.Now() + units.Time(r.Intn(6)))
			if e.Scheduled() != uint64(len(evs)) {
				t.Fatalf("seed %d: Scheduled = %d after a window of %d calls", seed, e.Scheduled(), len(evs))
			}
		}
		e.Run()
		if e.Scheduled() != uint64(len(evs)) || len(order) != len(evs) {
			t.Fatalf("seed %d: Scheduled = %d, %d events scheduled, %d dispatched",
				seed, e.Scheduled(), len(evs), len(order))
		}
		pos := make([]int, len(evs))
		byMark := make(map[uint64]int, len(evs))
		for i, id := range order {
			pos[id] = i
		}
		for id, s := range evs {
			byMark[s.mark] = id
		}
		pairs := 0
		for a, s := range evs {
			b, ok := byMark[s.mark+1]
			if !ok || evs[b].at != s.at {
				continue
			}
			pairs++
			if pos[b] != pos[a]+1 {
				t.Fatalf("seed %d: events %d and %d at %v were scheduled back to back but dispatched at %d and %d",
					seed, a, b, s.at, pos[a], pos[b])
			}
		}
		if pairs == 0 {
			t.Fatalf("seed %d: no back-to-back same-time pair to check", seed)
		}
	}
}
