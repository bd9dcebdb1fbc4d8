// Package metrics is the simulator's unified observability subsystem: a
// typed counter/gauge registry with hierarchical names
// ("memory.chan0.comm.read_bytes", "t3core.tracker.triggers") and a
// span/event timeline recorder driven by sim.Engine time, exportable as
// Chrome trace-event JSON that ui.perfetto.dev loads directly.
//
// Every timing model (memory, gpu, interconnect, collective, t3core)
// registers its instruments through the shared Sink interface threaded
// through the model configs. A nil sink costs nothing: registration is
// skipped entirely, and all instrument handles (*Counter, *Gauge,
// *TimeSeries, *Track) are nil-safe — every method on a nil handle is a
// single branch and zero allocations, so uninstrumented simulations keep
// their exact timing behaviour and allocation profile (guarded by
// TestNilHandlesAllocateNothing and BenchmarkNilHandles).
//
// Concurrency: a Registry may be shared by concurrent simulations (the
// evaluator's worker pool records into one registry under -j). Instrument
// creation is mutex-guarded and Counter/Gauge updates are atomic. A Track
// and a TimeSeries are single-writer: each belongs to one simulation
// goroutine — scope per run (Sink.Scope) to keep writers disjoint. Exports
// must happen after the recording simulations finish.
package metrics

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"t3sim/internal/units"
)

// Sink is the registration surface models see. It is implemented by
// *Registry (the root) and by the scopes it derives. Model code must accept
// a nil Sink and skip registration; the handles it would have obtained are
// nil-safe, so hot paths never need the nil-sink distinction.
type Sink interface {
	// Counter returns (creating if needed) the counter with this name.
	Counter(name string) *Counter
	// Gauge returns (creating if needed) the gauge with this name.
	Gauge(name string) *Gauge
	// Series returns (creating if needed) the time-bucketed accumulator
	// with this name. The width of an existing series is not changed.
	Series(name string, width units.Time) *TimeSeries
	// Track returns a timeline track (a Perfetto "thread") for span and
	// instant events. It returns nil — a valid, inert track — when the
	// registry's timeline is disabled.
	Track(name string) *Track
	// Scope derives a sink whose instrument names are prefixed with
	// "name/" and whose tracks live in their own timeline process. Use one
	// scope per simulation run so concurrent runs stay disjoint and the
	// exported trace groups each run's tracks together.
	Scope(name string) Sink
}

// Counter is a monotonically adjusted int64 instrument. The zero value is
// ready to use; a nil *Counter discards updates. Updates are atomic, so a
// counter may be shared across goroutines.
type Counter struct {
	v atomic.Int64
}

// Add adds n to the counter. No-op on a nil counter.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Inc adds 1. No-op on a nil counter.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 for nil).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a last-value int64 instrument with a high-water helper. A nil
// *Gauge discards updates.
type Gauge struct {
	v atomic.Int64
}

// Set stores v. No-op on a nil gauge.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
}

// Add adds n (which may be negative) to the gauge — occupancy instruments
// track deltas this way, +1 on enqueue and -1 on dequeue. No-op on a nil
// gauge.
func (g *Gauge) Add(n int64) {
	if g == nil {
		return
	}
	g.v.Add(n)
}

// SetMax raises the gauge to v if v is larger (high-water mark). No-op on a
// nil gauge.
func (g *Gauge) SetMax(v int64) {
	if g == nil {
		return
	}
	for {
		cur := g.v.Load()
		if v <= cur || g.v.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Value returns the current value (0 for nil).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// TimeSeries accumulates int64 samples into fixed-width time buckets —
// the primitive behind DRAM-traffic timelines (Figure 17). It is
// single-writer: one recording goroutine per series. A nil *TimeSeries
// discards samples.
type TimeSeries struct {
	width   units.Time
	buckets []int64
}

// NewTimeSeries returns a standalone series (not attached to a registry)
// with the given bucket width.
func NewTimeSeries(width units.Time) (*TimeSeries, error) {
	if width <= 0 {
		return nil, fmt.Errorf("metrics: series bucket width = %v, must be positive", width)
	}
	return &TimeSeries{width: width}, nil
}

// Add accumulates n into the bucket containing time at, zero-filling any
// gap. No-op on a nil series; negative times panic (model bug).
func (s *TimeSeries) Add(at units.Time, n int64) {
	if s == nil {
		return
	}
	if at < 0 {
		panic(fmt.Sprintf("metrics: series sample at negative time %v", at))
	}
	idx := int(at / s.width)
	for len(s.buckets) <= idx {
		s.buckets = append(s.buckets, 0)
	}
	s.buckets[idx] += n
}

// Width returns the bucket width (0 for nil).
func (s *TimeSeries) Width() units.Time {
	if s == nil {
		return 0
	}
	return s.width
}

// Len returns the number of buckets recorded so far (0 for nil).
func (s *TimeSeries) Len() int {
	if s == nil {
		return 0
	}
	return len(s.buckets)
}

// BucketValue returns bucket i's accumulated value; out-of-range buckets
// (including any index on a nil series) are 0.
func (s *TimeSeries) BucketValue(i int) int64 {
	if s == nil || i < 0 || i >= len(s.buckets) {
		return 0
	}
	return s.buckets[i]
}

// timeline event phases (Chrome trace-event "ph" values).
const (
	phaseSpan    = 'X'
	phaseInstant = 'i'
)

// tevent is one recorded timeline event.
type tevent struct {
	name  string
	start units.Time
	dur   units.Time // spans only
	phase byte
}

// Track is one timeline lane (a Perfetto thread): an ordered sequence of
// spans and instant events recorded by a single goroutine. A nil *Track
// discards events, so models record unconditionally.
type Track struct {
	name   string
	events []tevent
}

// Span records a complete event covering [start, end]. Inverted spans
// panic (model bug). No-op on a nil track.
func (t *Track) Span(name string, start, end units.Time) {
	if t == nil {
		return
	}
	if end < start {
		panic(fmt.Sprintf("metrics: span %q ends %v before start %v", name, end, start))
	}
	t.events = append(t.events, tevent{name: name, start: start, dur: end - start, phase: phaseSpan})
}

// Instant records a point event at time at. No-op on a nil track.
func (t *Track) Instant(name string, at units.Time) {
	if t == nil {
		return
	}
	t.events = append(t.events, tevent{name: name, start: at, phase: phaseInstant})
}

// Events returns how many events the track holds (0 for nil).
func (t *Track) Events() int {
	if t == nil {
		return 0
	}
	return len(t.events)
}

// Instants returns the times of the track's instant events with this name,
// in recording order (nil for a nil track). Read it after the recording
// simulation finishes.
func (t *Track) Instants(name string) []units.Time {
	if t == nil {
		return nil
	}
	var at []units.Time
	for _, e := range t.events {
		if e.phase == phaseInstant && e.name == name {
			at = append(at, e.start)
		}
	}
	return at
}

// process groups the tracks of one scope — one Perfetto process.
type process struct {
	name   string
	tracks []*Track
	byName map[string]*Track
}

// Registry is the root Sink: it owns every registered instrument and the
// timeline, and renders both exports. Create one per CLI invocation (or
// per test) and thread it — or scopes derived from it — into model
// configs.
type Registry struct {
	mu       sync.Mutex
	timeline bool
	counters map[string]*Counter
	gauges   map[string]*Gauge
	series   map[string]*TimeSeries
	procs    map[string]*process
	procList []*process
}

// NewRegistry returns an empty registry with the timeline disabled (Track
// returns nil tracks until EnableTimeline is called).
func NewRegistry() *Registry {
	return &Registry{
		counters: map[string]*Counter{},
		gauges:   map[string]*Gauge{},
		series:   map[string]*TimeSeries{},
		procs:    map[string]*process{},
	}
}

// EnableTimeline turns on span/instant recording. Call it before handing
// the registry to models; tracks requested while disabled stay nil.
func (r *Registry) EnableTimeline() {
	r.mu.Lock()
	r.timeline = true
	r.mu.Unlock()
}

// TimelineEnabled reports whether the timeline records events.
func (r *Registry) TimelineEnabled() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.timeline
}

// Counter implements Sink.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge implements Sink.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Series implements Sink. The first registration fixes the bucket width;
// later calls with a different width return the existing series unchanged.
func (r *Registry) Series(name string, width units.Time) *TimeSeries {
	if width <= 0 {
		panic(fmt.Sprintf("metrics: series %q bucket width = %v, must be positive", name, width))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	s, ok := r.series[name]
	if !ok {
		s = &TimeSeries{width: width}
		r.series[name] = s
	}
	return s
}

// Track implements Sink: a track in the root ("" / "t3sim") process.
func (r *Registry) Track(name string) *Track { return r.trackIn("", name) }

// Scope implements Sink.
func (r *Registry) Scope(name string) Sink { return &scope{r: r, name: name} }

// trackIn returns (creating if needed) the named track of the named
// process. Returns nil while the timeline is disabled.
func (r *Registry) trackIn(proc, name string) *Track {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.timeline {
		return nil
	}
	p, ok := r.procs[proc]
	if !ok {
		p = &process{name: proc, byName: map[string]*Track{}}
		r.procs[proc] = p
		r.procList = append(r.procList, p)
	}
	t, ok := p.byName[name]
	if !ok {
		t = &Track{name: name}
		p.byName[name] = t
		p.tracks = append(p.tracks, t)
	}
	return t
}

// CounterValue returns a registered counter's value (0 if absent) — a
// test/report convenience.
func (r *Registry) CounterValue(name string) int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.counters[name].Value()
}

// GaugeValue returns a registered gauge's value (0 if absent).
func (r *Registry) GaugeValue(name string) int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.gauges[name].Value()
}

// CounterNames returns every registered counter name, sorted.
func (r *Registry) CounterNames() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	names := make([]string, 0, len(r.counters))
	for n := range r.counters {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// TrackNames returns "process/track" identifiers of every timeline track,
// sorted.
func (r *Registry) TrackNames() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	var names []string
	for _, p := range r.procList {
		for _, t := range p.tracks {
			if p.name == "" {
				names = append(names, t.name)
				continue
			}
			names = append(names, p.name+"/"+t.name)
		}
	}
	sort.Strings(names)
	return names
}

// scope is a name-prefixed view of a registry whose tracks live in a
// dedicated timeline process.
type scope struct {
	r    *Registry
	name string
}

func (s *scope) Counter(name string) *Counter { return s.r.Counter(s.name + "/" + name) }
func (s *scope) Gauge(name string) *Gauge     { return s.r.Gauge(s.name + "/" + name) }
func (s *scope) Series(name string, width units.Time) *TimeSeries {
	return s.r.Series(s.name+"/"+name, width)
}
func (s *scope) Track(name string) *Track { return s.r.trackIn(s.name, name) }
func (s *scope) Scope(name string) Sink   { return &scope{r: s.r, name: s.name + "/" + name} }
