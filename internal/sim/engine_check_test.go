package sim

import (
	"strings"
	"testing"

	"t3sim/internal/check"
	"t3sim/internal/units"
)

// TestEngineCheckerCleanRun pins that a healthy dispatch sequence records no
// violations.
func TestEngineCheckerCleanRun(t *testing.T) {
	c := check.New()
	e := NewEngine()
	e.AttachChecker(c)
	for i := 0; i < 100; i++ {
		d := (i * 37) % 50
		e.At(units.Time(d), func() {})
	}
	e.Run()
	if err := c.Err(); err != nil {
		t.Fatalf("clean run reported violations: %v", err)
	}
}

// TestEngineCheckerCatchesHeapCorruption is the engine's ordering law made
// falsifiable: we corrupt the event calendar behind the heap's back (white
// box — this cannot happen through the public API, which panics on
// past-scheduling) and assert the monotonicity witness flags the backwards
// dispatch instead of letting the simulation silently reorder.
func TestEngineCheckerCatchesHeapCorruption(t *testing.T) {
	c := check.New()
	e := NewEngine()
	e.AttachChecker(c)
	e.At(10, func() {})
	e.At(20, func() {})
	// Swap the heap entries so the t=20 event dispatches first and the
	// clock then jumps back to t=10.
	e.queue[0], e.queue[1] = e.queue[1], e.queue[0]
	func() {
		defer func() { recover() }() // At() may panic once now has advanced past a pending event
		e.Run()
	}()
	if c.Ok() {
		t.Fatal("checker missed a time-reversed dispatch")
	}
	vs := c.Violations()
	if vs[0].Rule != "ordering/monotonic" {
		t.Fatalf("rule = %q, want ordering/monotonic", vs[0].Rule)
	}
	if vs[0].Path != "sim.engine" {
		t.Fatalf("path = %q, want sim.engine", vs[0].Path)
	}
	if !strings.Contains(vs[0].String(), "backwards") {
		t.Fatalf("violation message %q does not mention backwards time", vs[0])
	}
}

// TestEngineCheckerCatchesLaneCorruption is the same law for fixed-delay
// lanes, which dispatch without the heap: a lane whose FIFO order is broken
// behind the engine's back must trip the monotonicity witness too, so the
// witness covers every dispatch path.
func TestEngineCheckerCatchesLaneCorruption(t *testing.T) {
	c := check.New()
	e := NewEngine()
	e.AttachChecker(c)
	l := e.Lane(10)
	l.After(func() {}) // t=10
	e.RunUntil(5)
	l.After(func() {}) // t=15
	// Swap the lane's two entries and its cached head so the t=15 event
	// dispatches first and the clock then jumps back to t=10.
	q := &e.lanes[l.slot]
	q.buf[q.head], q.buf[q.head+1] = q.buf[q.head+1], q.buf[q.head]
	e.headAt[l.slot], e.headSeq[l.slot] = q.buf[q.head].at, q.buf[q.head].seq
	e.Run()
	if c.Ok() {
		t.Fatal("checker missed a time-reversed lane dispatch")
	}
	if vs := c.Violations(); vs[0].Rule != "ordering/monotonic" || vs[0].Path != "sim.engine" {
		t.Fatalf("violation %v, want ordering/monotonic at sim.engine", vs[0])
	}
}
