// Package check is the simulator's invariant checker: a second, independent
// witness of the laws every timing model must uphold — conservation (bytes
// injected into the ring equal bytes delivered, the tracker drains to zero
// live entries, each DMA fires exactly once per tile), ordering (engine event
// times are monotone, a memory channel's service windows never overlap,
// fused-runner spans nest), and bounds (tracker occupancy stays within
// sets×ways, link busy time never exceeds wall time).
//
// It is threaded through the model configs exactly like metrics.Sink: a nil
// *Checker costs nothing. Handle constructors on a nil checker return nil
// handles, and every method on a nil handle is a single branch with zero
// allocations, so unchecked simulations keep their exact timing behaviour
// and allocation profile (guarded by TestNilCheckerAllocatesNothing and the
// fused-runner integration tests in internal/t3core).
//
// A violation records the simulation time it was detected at, the model path
// that raised it ("t3core.tracker", "memory.chan7.service"), a rule
// identifier ("conservation/drain"), and a message. The default checker
// collects violations for end-of-run reporting (Err, Violations); a strict
// checker panics on the first violation so a failing invariant stops the
// simulation at the exact event that broke it.
//
// Concurrency: one Checker may be shared by concurrent simulations (the
// evaluator's worker pool threads a single checker through every run under
// -j). Recording a violation is mutex-guarded; handles are single-writer —
// each belongs to one model instance inside one single-goroutine simulation.
package check

import (
	"fmt"
	"sort"
	"sync"

	"t3sim/internal/units"
)

// Rule categories. Concrete rules are "<category>/<name>", e.g.
// "conservation/ring-delivery" — Violation.Rule keeps the full string.
const (
	RuleConservation = "conservation"
	RuleOrdering     = "ordering"
	RuleBound        = "bound"
)

// Violation is one detected invariant breach.
type Violation struct {
	// At is the simulation time the breach was detected at.
	At units.Time
	// Path names the model instance that raised it, e.g. "t3core.tracker".
	Path string
	// Rule identifies the broken law, e.g. "conservation/drain".
	Rule string
	// Msg is the human-readable detail.
	Msg string
}

// String implements fmt.Stringer.
func (v Violation) String() string {
	return fmt.Sprintf("t=%v %s: %s: %s", v.At, v.Path, v.Rule, v.Msg)
}

// Checker collects invariant violations. A nil *Checker is the disabled
// checker: every method no-ops and every handle constructor returns a nil
// (inert) handle.
type Checker struct {
	strict bool

	mu         sync.Mutex
	violations []Violation
}

// New returns a checker that records violations for end-of-run inspection
// via Err and Violations.
func New() *Checker { return &Checker{} }

// NewStrict returns a fail-fast checker: the first violation panics with the
// violation's String, stopping the simulation at the breaking event.
func NewStrict() *Checker { return &Checker{strict: true} }

// Enabled reports whether the checker records anything. Model code uses it
// to skip end-of-run bookkeeping whose inputs are not free to compute.
func (c *Checker) Enabled() bool { return c != nil }

// Violationf records a violation at sim-time at against the model path and
// rule. No-op on a nil checker; a strict checker panics instead of recording.
func (c *Checker) Violationf(at units.Time, path, rule, format string, args ...any) {
	if c == nil {
		return
	}
	v := Violation{At: at, Path: path, Rule: rule, Msg: fmt.Sprintf(format, args...)}
	if c.strict {
		panic("check: " + v.String())
	}
	c.mu.Lock()
	c.violations = append(c.violations, v)
	c.mu.Unlock()
}

// Ok reports whether no violations have been recorded (true for nil).
func (c *Checker) Ok() bool {
	if c == nil {
		return true
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.violations) == 0
}

// Violations returns every recorded violation, sorted by (time, path, rule,
// message) so reports are deterministic even when concurrent simulations
// shared the checker. Nil checkers return nil.
func (c *Checker) Violations() []Violation {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	out := make([]Violation, len(c.violations))
	copy(out, c.violations)
	c.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.At != b.At {
			return a.At < b.At
		}
		if a.Path != b.Path {
			return a.Path < b.Path
		}
		if a.Rule != b.Rule {
			return a.Rule < b.Rule
		}
		return a.Msg < b.Msg
	})
	return out
}

// Err returns nil when no violations were recorded, else an error quoting
// the first (earliest) violation and the total count.
func (c *Checker) Err() error {
	vs := c.Violations()
	if len(vs) == 0 {
		return nil
	}
	if len(vs) == 1 {
		return fmt.Errorf("check: 1 violation: %s", vs[0])
	}
	return fmt.Errorf("check: %d violations, first: %s", len(vs), vs[0])
}

// Monotonic verifies a time sequence never decreases — the engine's event
// clock, a link serializer's busy horizon. A nil *Monotonic discards
// observations.
type Monotonic struct {
	c    *Checker
	path string
	last units.Time
	any  bool
}

// Monotonic returns a handle for the model path (nil on a nil checker).
func (c *Checker) Monotonic(path string) *Monotonic {
	if c == nil {
		return nil
	}
	return &Monotonic{c: c, path: path}
}

// Observe checks at against the previous observation.
func (m *Monotonic) Observe(at units.Time) {
	if m == nil {
		return
	}
	if m.any && at < m.last {
		m.c.Violationf(at, m.path, RuleOrdering+"/monotonic",
			"time went backwards: %v after %v", at, m.last)
		return
	}
	m.last = at
	m.any = true
}

// Ledger verifies a conservation law: everything injected (Add) is
// eventually delivered (Sub), deliveries never outrun injections, and the
// books balance at Close. A nil *Ledger discards updates.
type Ledger struct {
	c       *Checker
	path    string
	in, out int64
}

// Ledger returns a handle for the model path (nil on a nil checker).
func (c *Checker) Ledger(path string) *Ledger {
	if c == nil {
		return nil
	}
	return &Ledger{c: c, path: path}
}

// Add records n units injected.
func (l *Ledger) Add(n int64) {
	if l == nil {
		return
	}
	l.in += n
}

// Sub records n units delivered at sim-time at; delivering more than was
// injected is a violation.
func (l *Ledger) Sub(at units.Time, n int64) {
	if l == nil {
		return
	}
	l.out += n
	if l.out > l.in {
		l.c.Violationf(at, l.path, RuleConservation+"/over-delivery",
			"delivered %d of %d injected", l.out, l.in)
	}
}

// Close asserts the books balance at end of run.
func (l *Ledger) Close(at units.Time) {
	if l == nil {
		return
	}
	if l.in != l.out {
		l.c.Violationf(at, l.path, RuleConservation+"/balance",
			"injected %d but delivered %d (%d outstanding)", l.in, l.out, l.in-l.out)
	}
}

// Outstanding returns injected minus delivered (0 for nil).
func (l *Ledger) Outstanding() int64 {
	if l == nil {
		return 0
	}
	return l.in - l.out
}

// Lookahead verifies the conservative parallel-DES link guarantee: a
// cross-engine message drained at a round barrier must never be timestamped
// earlier than its link's latency after the round its sender posted it in
// began. A message arriving earlier means the receiving engine may already
// have executed events the message should have interleaved with, i.e. the
// synchronization layer lost determinism. A nil *Lookahead discards
// observations.
type Lookahead struct {
	c    *Checker
	path string
}

// Lookahead returns a handle for the model path (nil on a nil checker).
func (c *Checker) Lookahead(path string) *Lookahead {
	if c == nil {
		return nil
	}
	return &Lookahead{c: c, path: path}
}

// ObserveLink checks one drained message against its link's law — the
// per-link refinement of the window guarantee that dynamic per-device
// lookahead rests on. The message was posted no earlier than windowStart (the
// sending engine's clock when the round it posted in began) and must travel
// at least minLatency (the latency the link registered with the cluster), so
// a delivery timestamped before windowStart+minLatency proves the model lied
// about the link's latency: the per-device horizons derived from that
// latency could have let the receiver run past the delivery.
func (la *Lookahead) ObserveLink(windowStart, minLatency, deliverAt units.Time) {
	if la == nil {
		return
	}
	if deliverAt < windowStart+minLatency {
		la.c.Violationf(deliverAt, la.path, RuleOrdering+"/link-lookahead",
			"message delivered at %v but the link admits nothing before %v (window start %v + link latency %v)",
			deliverAt, windowStart+minLatency, windowStart, minLatency)
	}
}

// Once verifies an exactly-once law per integer key — one triggered DMA per
// tile. A nil *Once discards marks.
type Once struct {
	c    *Checker
	path string
	seen map[int]struct{}
}

// Once returns a handle for the model path (nil on a nil checker).
func (c *Checker) Once(path string) *Once {
	if c == nil {
		return nil
	}
	return &Once{c: c, path: path}
}

// Mark records key's occurrence at sim-time at; a repeat is a violation.
func (o *Once) Mark(at units.Time, key int) {
	if o == nil {
		return
	}
	if o.seen == nil {
		o.seen = make(map[int]struct{})
	}
	if _, dup := o.seen[key]; dup {
		o.c.Violationf(at, o.path, RuleConservation+"/duplicate",
			"key %d occurred twice", key)
		return
	}
	o.seen[key] = struct{}{}
}

// Count returns how many distinct keys were marked (0 for nil).
func (o *Once) Count() int {
	if o == nil {
		return 0
	}
	return len(o.seen)
}

// NonOverlap verifies a serially-reused resource's busy windows never
// overlap and never run backwards — one memory channel's service stage, one
// link's serializer. A nil *NonOverlap discards windows.
type NonOverlap struct {
	c    *Checker
	path string
	busy units.Time
}

// NonOverlap returns a handle for the model path (nil on a nil checker).
func (c *Checker) NonOverlap(path string) *NonOverlap {
	if c == nil {
		return nil
	}
	return &NonOverlap{c: c, path: path}
}

// Window records one busy window [start, end]. Inverted windows and windows
// starting before the previous one ended are violations.
func (w *NonOverlap) Window(start, end units.Time) {
	if w == nil {
		return
	}
	if end < start {
		w.c.Violationf(start, w.path, RuleOrdering+"/inverted-window",
			"window ends %v before it starts %v", end, start)
		return
	}
	if start < w.busy {
		w.c.Violationf(start, w.path, RuleOrdering+"/overlap",
			"window starts %v while busy until %v", start, w.busy)
	}
	if end > w.busy {
		w.busy = end
	}
}

// Bound verifies an occupancy never exceeds a fixed limit — tracker live
// entries against sets×ways, a DRAM queue against its depth. A nil *Bound
// discards observations.
type Bound struct {
	c     *Checker
	path  string
	limit int64
}

// Bound returns a handle enforcing limit for the model path (nil on a nil
// checker).
func (c *Checker) Bound(path string, limit int64) *Bound {
	if c == nil {
		return nil
	}
	return &Bound{c: c, path: path, limit: limit}
}

// Observe checks v against the limit at sim-time at.
func (b *Bound) Observe(at units.Time, v int64) {
	if b == nil {
		return
	}
	if v > b.limit {
		b.c.Violationf(at, b.path, RuleBound+"/exceeded",
			"occupancy %d exceeds limit %d", v, b.limit)
	}
}
