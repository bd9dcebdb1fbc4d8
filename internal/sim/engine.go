// Package sim provides the discrete-event simulation kernel that every timed
// model in this repository (DRAM, interconnect, GPU pipelines, the T3
// tracker) runs on. It is a classic event-calendar design: callbacks are
// scheduled at absolute picosecond timestamps and executed in (time,
// insertion-order) order, which makes simulations fully deterministic.
//
// An Engine is strictly single-goroutine: all model code runs inside event
// handlers on the goroutine that calls Run/RunUntil, and an Engine must never
// be shared across goroutines. Concurrency lives one level up — independent
// simulations each own a private Engine and may run on separate goroutines
// (see internal/experiments.Evaluator.EvaluateAll).
package sim

import (
	"fmt"
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
	// fence, when fn is nil, is completed (Done) instead of calling a
	// handler. Carrying the fence in the event lets hot paths schedule a
	// deferred completion without allocating a method-value closure for
	// fence.Done on every request (see Engine.AfterFence).
	fence *Fence
}

// before reports whether e fires ahead of o under the deterministic
// (time, insertion-seq) ordering contract.
func (e event) before(o event) bool {
	if e.at != o.at {
		return e.at < o.at
	}
	return e.seq < o.seq
}

// The event calendar is a value-based quaternary (4-ary) min-heap stored
// directly in a slice: no per-event pointer allocation and no interface
// boxing on push/pop, so steady-state scheduling costs zero allocations
// (the backing array is reused across drain cycles). The 4-ary layout
// (children of i at 4i+1..4i+4) halves tree depth versus a binary heap,
// trading a wider sibling scan — two cache lines for 32-byte events —
// for fewer cache-missing levels on sift-down, the pop-side cost
// that dominates a DES dispatch loop.
const heapArity = 4

// Engine is a single-threaded discrete-event simulator. The zero value is
// ready to use. Engines are not safe for concurrent use; all model code runs
// inside event handlers on one goroutine.
type Engine struct {
	now       units.Time
	seq       uint64
	queue     []event
	processed uint64
	mono      *check.Monotonic // event-time monotonicity witness (nil = off)
}

// enginesBuilt counts NewEngine calls process-wide (see EnginesBuilt).
var enginesBuilt atomic.Int64

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

// AttachChecker registers an invariant checker that witnesses every
// dispatched event's timestamp: the event clock must never run backwards,
// regardless of how the heap is mutated. A nil checker detaches (the dispatch
// loop then pays a single nil-handle branch per event).
func (e *Engine) AttachChecker(c *check.Checker) {
	e.mono = c.Monotonic("sim.engine")
}

// Now returns the current simulation time.
func (e *Engine) Now() units.Time { return e.now }

// Processed returns the number of events executed so far. The count is
// advanced before a handler runs, so inside a handler it includes the event
// currently executing; after Run or RunUntil returns it equals exactly the
// number of handlers that fired.
func (e *Engine) Processed() uint64 { return e.processed }

// Pending returns the number of scheduled events not yet executed.
func (e *Engine) Pending() int { return len(e.queue) }

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

// AfterFence schedules one completion (Done) on f at d after the current
// time. It is equivalent to After(d, f.Done) — same position in the
// deterministic (time, insertion-seq) event order — but stores the fence
// pointer in the event itself, so no method-value closure is allocated.
// Negative delays and nil fences panic.
func (e *Engine) AfterFence(d units.Time, f *Fence) {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	if f == nil {
		panic("sim: scheduling nil fence")
	}
	e.seq++
	e.push(event{at: e.now + d, seq: e.seq, fence: f})
}

// Run executes events until the queue is empty and returns the final clock
// value.
func (e *Engine) Run() units.Time {
	for len(e.queue) > 0 {
		e.step()
	}
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
	for len(e.queue) > 0 && e.queue[0].at <= deadline {
		e.step()
	}
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
	for len(e.queue) > 0 && e.queue[0].at < deadline {
		e.step()
	}
	e.now = deadline
	return e.now
}

// NextAt returns the earliest pending event's timestamp, or false when the
// queue is empty. Cluster uses it to compute the global window horizon.
func (e *Engine) NextAt() (units.Time, bool) {
	if len(e.queue) == 0 {
		return 0, false
	}
	return e.queue[0].at, true
}

func (e *Engine) step() {
	ev := e.pop()
	e.mono.Observe(ev.at)
	e.now = ev.at
	e.processed++
	if ev.fn != nil {
		ev.fn()
	} else {
		ev.fence.Done()
	}
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
