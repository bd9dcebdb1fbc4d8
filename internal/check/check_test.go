package check

import (
	"strings"
	"testing"

	"t3sim/internal/units"
)

func TestCleanRunHasNoViolations(t *testing.T) {
	c := New()
	m := c.Monotonic("engine")
	m.Observe(0)
	m.Observe(5)
	m.Observe(5) // equal times are fine (tie-broken by insertion order)
	l := c.Ledger("ring")
	l.Add(100)
	l.Sub(3, 60)
	l.Sub(7, 40)
	l.Close(9)
	o := c.Once("dma")
	o.Mark(1, 7)
	o.Mark(2, 8)
	w := c.NonOverlap("chan0")
	w.Window(0, 10)
	w.Window(10, 12)
	b := c.Bound("tracker", 4)
	b.Observe(5, 4)

	if !c.Ok() {
		t.Fatalf("clean run recorded violations: %v", c.Violations())
	}
	if err := c.Err(); err != nil {
		t.Fatalf("Err = %v, want nil", err)
	}
	if o.Count() != 2 {
		t.Errorf("Once.Count = %d, want 2", o.Count())
	}
	if l.Outstanding() != 0 {
		t.Errorf("Ledger.Outstanding = %d, want 0", l.Outstanding())
	}
}

func TestViolationsCarryTimePathRule(t *testing.T) {
	c := New()
	c.Monotonic("eng").Observe(9)
	m := c.Monotonic("eng2")
	m.Observe(9)
	m.Observe(4)

	l := c.Ledger("ring")
	l.Sub(2, 10) // over-delivery: nothing injected
	l.Add(5)
	l.Close(20) // imbalance: 5 in, 10 out... already over; Close flags too

	o := c.Once("dma")
	o.Mark(1, 3)
	o.Mark(6, 3)

	w := c.NonOverlap("chan")
	w.Window(0, 10)
	w.Window(5, 8)  // overlap
	w.Window(12, 4) // inverted

	b := c.Bound("trk", 2)
	b.Observe(15, 3)

	vs := c.Violations()
	wantRules := map[string]bool{
		"ordering/monotonic":         false,
		"conservation/over-delivery": false,
		"conservation/balance":       false,
		"conservation/duplicate":     false,
		"ordering/overlap":           false,
		"ordering/inverted-window":   false,
		"bound/exceeded":             false,
	}
	for _, v := range vs {
		if v.Path == "" {
			t.Errorf("violation with empty path: %v", v)
		}
		if _, ok := wantRules[v.Rule]; ok {
			wantRules[v.Rule] = true
		}
	}
	for rule, seen := range wantRules {
		if !seen {
			t.Errorf("no violation recorded for rule %q; have %v", rule, vs)
		}
	}
	// Sorted by detection time.
	for i := 1; i < len(vs); i++ {
		if vs[i].At < vs[i-1].At {
			t.Fatalf("violations not time-sorted: %v", vs)
		}
	}
	if err := c.Err(); err == nil || !strings.Contains(err.Error(), "violation") {
		t.Errorf("Err = %v, want violation summary", err)
	}
	// The violation string carries all four fields.
	s := vs[0].String()
	for _, part := range []string{"t=", vs[0].Path, vs[0].Rule} {
		if !strings.Contains(s, part) {
			t.Errorf("String() = %q missing %q", s, part)
		}
	}
}

// TestStrictCheckerFailsFast pins the fail-fast mode: the first violation
// panics at the breaking event instead of being collected.
func TestStrictCheckerFailsFast(t *testing.T) {
	c := NewStrict()
	m := c.Monotonic("eng")
	m.Observe(10)
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("strict checker did not panic on violation")
		}
		if s, ok := r.(string); !ok || !strings.Contains(s, "ordering/monotonic") {
			t.Fatalf("panic = %v, want ordering/monotonic violation", r)
		}
	}()
	m.Observe(3)
}

// TestNilCheckerAllocatesNothing is the zero-cost contract: every handle
// obtained from a nil checker is nil, and every method on a nil handle (or
// the nil checker itself) performs zero allocations. This is what lets the
// hot paths of the engine, the memory channels and the fused runners call
// the checker unconditionally.
func TestNilCheckerAllocatesNothing(t *testing.T) {
	var c *Checker
	if c.Enabled() {
		t.Fatal("nil checker reports enabled")
	}
	m := c.Monotonic("x")
	l := c.Ledger("x")
	o := c.Once("x")
	w := c.NonOverlap("x")
	b := c.Bound("x", 1)
	la := c.Lookahead("x")
	if m != nil || l != nil || o != nil || w != nil || b != nil || la != nil {
		t.Fatal("nil checker returned non-nil handles")
	}
	allocs := testing.AllocsPerRun(1000, func() {
		m.Observe(1)
		l.Add(1)
		l.Sub(1, 1)
		l.Close(2)
		o.Mark(1, 1)
		w.Window(1, 2)
		b.Observe(1, 2)
		la.ObserveLink(10, 5, 20)
		c.Violationf(1, "x", "y", "%d", 1)
		_ = c.Ok()
		_ = c.Err()
		_ = c.Violations()
		_ = l.Outstanding()
		_ = o.Count()
	})
	if allocs != 0 {
		t.Fatalf("nil checker allocated %v times per run, want 0", allocs)
	}
}

// TestLookaheadLinkLawPerEdge exercises the graph form of the lookahead law:
// on an arbitrary topology each edge carries its own minimum latency, so the
// same handle must accept a delivery that respects one edge's latency and
// reject one that undercuts another's.
func TestLookaheadLinkLawPerEdge(t *testing.T) {
	c := New()
	la := c.Lookahead("cluster")
	la.ObserveLink(100, 5, 105)  // fast intra-node edge, exactly at the bound
	la.ObserveLink(100, 50, 200) // slow inter-node edge, comfortably beyond
	if !c.Ok() {
		t.Fatalf("legal per-edge deliveries flagged: %v", c.Violations())
	}
	la.ObserveLink(100, 50, 149) // arrives faster than the edge's registered latency
	vs := c.Violations()
	if len(vs) != 1 || vs[0].Rule != "ordering/link-lookahead" || vs[0].At != 149 {
		t.Fatalf("violations = %v, want one ordering/link-lookahead at t=149", vs)
	}
}

// TestEnabledHandlesAllocateNothingOnCleanPath pins that an enabled checker
// stays allocation-free as long as no violation occurs (violation formatting
// is allowed to allocate).
func TestEnabledHandlesAllocateNothingOnCleanPath(t *testing.T) {
	c := New()
	m := c.Monotonic("x")
	l := c.Ledger("x")
	w := c.NonOverlap("x")
	b := c.Bound("x", 1<<40)
	var at units.Time
	allocs := testing.AllocsPerRun(1000, func() {
		at++
		m.Observe(at)
		l.Add(1)
		l.Sub(at, 1)
		w.Window(at, at)
		b.Observe(at, 1)
	})
	if allocs != 0 {
		t.Fatalf("clean enabled path allocated %v times per run, want 0", allocs)
	}
	if !c.Ok() {
		t.Fatalf("unexpected violations: %v", c.Violations())
	}
}
