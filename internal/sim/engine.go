// Package sim provides the discrete-event simulation kernel that every timed
// model in this repository (DRAM, interconnect, GPU pipelines, the T3
// tracker) runs on. It is a classic event-calendar design: callbacks are
// scheduled at absolute picosecond timestamps and executed in (time,
// insertion-order) order, which makes simulations fully deterministic.
//
// The calendar has two parts that together give exactly that order: a
// general min-heap, and a few fixed-delay lanes (Engine.Lane) — FIFOs for
// events scheduled a constant delay ahead, such as DRAM service
// completions, which are sorted by construction and so cost O(1) to
// schedule and dispatch.
//
// An Engine is strictly single-goroutine: all model code runs inside event
// handlers on the goroutine that calls Run/RunUntil, and an Engine must never
// be shared across goroutines. Concurrency lives one level up — independent
// simulations each own a private Engine and may run on separate goroutines
// (see internal/experiments.Evaluator.EvaluateAll).
package sim

import (
	"fmt"
	"math"
	"sync/atomic"

	"t3sim/internal/check"
	"t3sim/internal/units"
)

// Handler is a callback executed when its event fires. The engine's clock
// already equals the event time when the handler runs.
type Handler func()

type event struct {
	at  units.Time
	seq uint64 // insertion order; breaks ties deterministically
	fn  Handler
}

// before reports whether e fires ahead of o under the deterministic
// (time, insertion-seq) ordering contract.
func (e event) before(o event) bool {
	if e.at != o.at {
		return e.at < o.at
	}
	return e.seq < o.seq
}

// The event calendar's general part is a value-based quaternary (4-ary)
// min-heap stored directly in a slice: no per-event pointer allocation and
// no interface boxing on push/pop, so steady-state scheduling costs zero
// allocations (the backing array is reused across drain cycles). Events
// scheduled through a fixed-delay Lane bypass it entirely. The 4-ary layout
// (children of i at 4i+1..4i+4) halves tree depth versus a binary heap,
// trading a wider sibling scan — four 24-byte events {at, seq, fn}, 96
// bytes — for fewer cache-missing levels on sift-down, the pop-side cost
// that dominates a DES dispatch loop.
const heapArity = 4

// laneSlots is how many fixed-delay lanes an engine holds inline. A Lane
// asked for beyond it forwards to the heap, so no result depends on it.
const laneSlots = 4

// Sentinel head of an empty lane: it sorts after every real event, and an
// event at the largest time still sorts ahead of it on seq.
const (
	noAt  = units.Time(math.MaxInt64)
	noSeq = math.MaxUint64
)

// Engine is a single-threaded discrete-event simulator. The zero value is
// ready to use. Engines are not safe for concurrent use; all model code runs
// inside event handlers on one goroutine.
type Engine struct {
	now       units.Time
	seq       uint64
	queue     []event
	processed uint64
	mono      *check.Monotonic // event-time monotonicity witness (nil = off)

	// Fixed-delay lanes (see Lane). Each lane's earliest (at, seq) is
	// cached here, so choosing the next event reads only this struct —
	// never a lane's buffer.
	nLanes  int // slots claimed
	laneLen int // events pending across all lanes; 0 = heap-only dispatch
	headAt  [laneSlots]units.Time
	headSeq [laneSlots]uint64
	lanes   [laneSlots]fifo
}

// fifo is one lane's events in (at, seq) order: a ring buffer whose length
// is zero or a power of two, reused across drain cycles.
type fifo struct {
	delay units.Time
	buf   []event
	head  int
	n     int
}

// enginesBuilt counts NewEngine calls process-wide (see EnginesBuilt).
var enginesBuilt atomic.Int64

// eventsDispatched counts dispatched events process-wide (see
// EventsDispatched).
var eventsDispatched atomic.Uint64

// NewEngine returns an empty engine with the clock at zero.
func NewEngine() *Engine {
	enginesBuilt.Add(1)
	return &Engine{}
}

// EnginesBuilt returns how many engines NewEngine has built in this process,
// including the per-device engines of every NewCluster. The difference
// across a piece of work says whether it simulated at all: a result served
// entirely from a cache builds none. Zero-value Engines are not counted.
func EnginesBuilt() int64 { return enginesBuilt.Load() }

// EventsDispatched returns how many events every engine in this process
// has dispatched, counted when each Run, RunUntil or RunBefore returns. It
// is a deterministic work counter: a given piece of work dispatches the
// same number of events on every run, at any worker count. An event that
// stands for a batch of work, such as a same-instant run of DRAM service
// completions, counts once.
func EventsDispatched() uint64 { return eventsDispatched.Load() }

// AttachChecker registers an invariant checker that witnesses every
// dispatched event's timestamp: the event clock must never run backwards,
// regardless of how the calendar is mutated. A nil checker detaches (the
// dispatch loop then pays a single nil-handle branch per event).
func (e *Engine) AttachChecker(c *check.Checker) {
	e.mono = c.Monotonic("sim.engine")
}

// Now returns the current simulation time.
func (e *Engine) Now() units.Time { return e.now }

// Processed returns the number of events executed so far. The count is
// advanced before a handler runs, so inside a handler it includes the event
// currently executing; after Run or RunUntil returns it equals exactly the
// number of handlers that fired. A model that batches work into one event
// (internal/memory's same-instant run of service completions) counts once.
func (e *Engine) Processed() uint64 { return e.processed }

// Scheduled returns how many events have been scheduled on the engine so
// far, through At, After and every Lane alike. Two equal readings mean
// nothing was scheduled in between: an event scheduled at the first reading
// holds the latest insertion seq, so a second event for the same time would
// have taken the very next seq and dispatched right after it, with no event
// able to fall between them. internal/memory relies on exactly that to merge
// such same-instant completions into one event without changing any order.
func (e *Engine) Scheduled() uint64 { return e.seq }

// Pending returns the number of scheduled events not yet executed.
func (e *Engine) Pending() int { return len(e.queue) + e.laneLen }

// At schedules fn to run at absolute time t. Scheduling in the past panics:
// it always indicates a model bug.
func (e *Engine) At(t units.Time, fn Handler) {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling at %v before now %v", t, e.now))
	}
	if fn == nil {
		panic("sim: scheduling nil handler")
	}
	e.seq++
	e.push(event{at: t, seq: e.seq, fn: fn})
}

// After schedules fn to run d after the current time. Negative delays panic.
func (e *Engine) After(d units.Time, fn Handler) {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	e.At(e.now+d, fn)
}

// Lane is an engine's FIFO for one fixed delay. Lane.After(fn) is exactly
// Engine.After(d, fn): same time, same insertion seq, same place in the
// dispatch order. Because the clock never runs backwards and seq only
// grows, events appended to a lane are already in (at, seq) order, so a
// lane schedules and dispatches in O(1) where the heap pays O(log n).
// Models use lanes for their hottest constant delays.
type Lane struct {
	e    *Engine
	d    units.Time
	slot int // lane slot, or -1: no slot was free and events use the heap
}

// Lane returns the engine's lane for delay d, claiming a slot the first
// time d is asked for. When every slot holds another delay the returned
// lane forwards to the heap, which orders its events identically. Negative
// delays panic.
func (e *Engine) Lane(d units.Time) Lane {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	for i := 0; i < e.nLanes; i++ {
		if e.lanes[i].delay == d {
			return Lane{e: e, d: d, slot: i}
		}
	}
	if e.nLanes == laneSlots {
		return Lane{e: e, d: d, slot: -1}
	}
	i := e.nLanes
	e.nLanes++
	e.lanes[i].delay = d
	e.headAt[i], e.headSeq[i] = noAt, noSeq
	return Lane{e: e, d: d, slot: i}
}

// After schedules fn to run the lane's delay after the current time.
func (l Lane) After(fn Handler) {
	if fn == nil {
		panic("sim: scheduling nil handler")
	}
	l.e.lanePush(l.slot, event{at: l.e.now + l.d, fn: fn})
}

// lanePush stamps ev with the next seq and appends it to lane slot, or
// pushes it on the heap when slot < 0.
func (e *Engine) lanePush(slot int, ev event) {
	e.seq++
	ev.seq = e.seq
	if slot < 0 {
		e.push(ev)
		return
	}
	q := &e.lanes[slot]
	if q.n == 0 {
		e.headAt[slot], e.headSeq[slot] = ev.at, ev.seq
	}
	if q.n == len(q.buf) {
		q.grow()
	}
	q.buf[(q.head+q.n)&(len(q.buf)-1)] = ev
	q.n++
	e.laneLen++
}

// lanePop removes lane slot's head and refreshes its cached (at, seq).
func (e *Engine) lanePop(slot int) event {
	q := &e.lanes[slot]
	ev := q.buf[q.head]
	q.buf[q.head] = event{} // drop the Handler reference so the GC can reclaim it
	q.head = (q.head + 1) & (len(q.buf) - 1)
	q.n--
	e.laneLen--
	if q.n == 0 {
		e.headAt[slot], e.headSeq[slot] = noAt, noSeq
	} else {
		h := &q.buf[q.head]
		e.headAt[slot], e.headSeq[slot] = h.at, h.seq
	}
	return ev
}

// grow doubles the ring, unwrapping it so the head sits at index 0.
func (q *fifo) grow() {
	buf := make([]event, max(2*len(q.buf), 16))
	for i := 0; i < q.n; i++ {
		buf[i] = q.buf[(q.head+i)&(len(q.buf)-1)]
	}
	q.buf, q.head = buf, 0
}

// earliest locates the earliest pending event while lane events are
// pending: src is -1 for the heap top or a lane slot, at its time. Ties on
// time go to the lower seq, so heap and lanes together dispatch in exactly
// the order the heap alone would. Callers check laneLen first, so an engine
// with no lane events reads only the heap and pays nothing for lanes.
func (e *Engine) earliest() (src int, at units.Time) {
	src, at = -1, noAt
	var seq uint64 = noSeq
	if len(e.queue) > 0 {
		at, seq = e.queue[0].at, e.queue[0].seq
	}
	for i := 0; i < e.nLanes; i++ {
		if a := e.headAt[i]; a < at || a == at && e.headSeq[i] < seq {
			src, at, seq = i, a, e.headSeq[i]
		}
	}
	return src, at
}

// Run executes events until the queue is empty and returns the final clock
// value.
func (e *Engine) Run() units.Time {
	e.drain(noAt, true)
	return e.now
}

// RunUntil executes events with timestamps <= deadline, including events
// that handlers schedule at the deadline itself while draining.
//
// Postcondition: Now() == deadline exactly (even when the queue drains early
// or the last event fires exactly at the deadline), Processed() counts every
// handler that fired, and Pending() holds only events strictly after the
// deadline.
func (e *Engine) RunUntil(deadline units.Time) units.Time {
	if deadline < e.now {
		panic(fmt.Sprintf("sim: RunUntil(%v) before now %v", deadline, e.now))
	}
	e.drain(deadline, true)
	e.now = deadline
	return e.now
}

// RunBefore executes events with timestamps strictly before deadline,
// including events that handlers schedule inside the window while draining,
// then advances the clock to the deadline. It is the conservative-window
// primitive of Cluster: after RunBefore(D) returns, every remaining event —
// and every event this engine can ever schedule from here on — fires at or
// after D, so a coordinator may safely inject cross-engine deliveries
// timestamped >= D before the next window.
//
// Postcondition: Now() == deadline, and Pending() holds only events at or
// after the deadline.
func (e *Engine) RunBefore(deadline units.Time) units.Time {
	if deadline < e.now {
		panic(fmt.Sprintf("sim: RunBefore(%v) before now %v", deadline, e.now))
	}
	e.drain(deadline, false)
	e.now = deadline
	return e.now
}

// NextAt returns the earliest pending event's timestamp, or false when the
// queue is empty. Cluster uses it as the engine's base, the seed of its
// per-device bound.
func (e *Engine) NextAt() (units.Time, bool) {
	if e.laneLen > 0 {
		_, at := e.earliest()
		return at, true
	}
	if len(e.queue) == 0 {
		return 0, false
	}
	return e.queue[0].at, true
}

// drain dispatches events in order while the earliest fires before limit,
// or at it when incl, then adds the count to EventsDispatched.
func (e *Engine) drain(limit units.Time, incl bool) {
	p0 := e.processed
	for {
		var ev event
		if e.laneLen == 0 {
			if len(e.queue) == 0 {
				break
			}
			if at := e.queue[0].at; at > limit || at == limit && !incl {
				break
			}
			ev = e.pop()
		} else {
			src, at := e.earliest()
			if at > limit || at == limit && !incl {
				break
			}
			if src < 0 {
				ev = e.pop()
			} else {
				ev = e.lanePop(src)
			}
		}
		e.mono.Observe(ev.at)
		e.now = ev.at
		e.processed++
		ev.fn()
	}
	eventsDispatched.Add(e.processed - p0)
}

// push inserts ev, sifting it up toward the root.
func (e *Engine) push(ev event) {
	q := append(e.queue, ev)
	i := len(q) - 1
	for i > 0 {
		p := (i - 1) / heapArity
		if !ev.before(q[p]) {
			break
		}
		q[i] = q[p]
		i = p
	}
	q[i] = ev
	e.queue = q
}

// pop removes and returns the earliest event, sifting the displaced last
// element down through the hole it leaves at the root.
func (e *Engine) pop() event {
	q := e.queue
	top := q[0]
	n := len(q) - 1
	last := q[n]
	q[n] = event{} // drop the Handler reference so the GC can reclaim it
	if n > 0 {
		i := 0
		for {
			c := heapArity*i + 1
			if c >= n {
				break
			}
			// Pick the earliest of up to four siblings.
			min := c
			end := c + heapArity
			if end > n {
				end = n
			}
			for j := c + 1; j < end; j++ {
				if q[j].before(q[min]) {
					min = j
				}
			}
			if !q[min].before(last) {
				break
			}
			q[i] = q[min]
			i = min
		}
		q[i] = last
	}
	e.queue = q[:n]
	return top
}
