package serving

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"t3sim/internal/check"
	"t3sim/internal/metrics"
	"t3sim/internal/rng"
	"t3sim/internal/units"
)

// outcome is everything observable about one run: the result, every
// request record, the engine's end state, the checker's violations and the
// sink's exported counters, gauges and timeline.
type outcome struct {
	res        *Result
	records    []Request
	end        units.Time
	violations []string
	exported   string
	events     uint64
}

// runOutcome simulates cfg with fresh observers, one event per step when
// stepwise is set.
func runOutcome(t *testing.T, cfg Config, withCheck, withSink, stepwise bool) outcome {
	t.Helper()
	var ck *check.Checker
	var reg *metrics.Registry
	if withCheck {
		ck = check.New()
		cfg.Checker = ck
	}
	if withSink {
		reg = metrics.NewRegistry()
		reg.EnableTimeline()
		cfg.Metrics = reg
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.stepwise = stepwise
	res := s.Run()
	o := outcome{res: res, end: s.eng.Now(), events: s.eng.Processed()}
	for _, r := range s.completed {
		o.records = append(o.records, *r)
	}
	for _, r := range s.active {
		o.records = append(o.records, *r)
	}
	for _, v := range ck.Violations() {
		o.violations = append(o.violations, v.String())
	}
	if reg != nil {
		var b bytes.Buffer
		if err := reg.WriteMetrics(&b); err != nil {
			t.Fatal(err)
		}
		if err := reg.WriteTrace(&b); err != nil {
			t.Fatal(err)
		}
		o.exported = b.String()
	}
	return o
}

// randomDiffConfig draws one configuration for the collapsed-vs-stepwise
// differential. mode picks the arrival process: 0 Poisson with NumRequests,
// 1 Horizon without Drain, 2 Horizon with Drain, 3 a trace whose arrivals
// sit exactly on step boundaries, 4 a trace at arbitrary instants.
func randomDiffConfig(r *rng.Rand, mode int) Config {
	cfg := Config{
		MaxBatch:           1 + r.Intn(32),
		MaxPrefillsPerStep: r.Intn(5),
		Seed:               r.Uint64(),
	}
	outMax := 1 + r.Intn(64)
	for i := 0; i < 1+r.Intn(3); i++ {
		lo := 1 + r.Intn(outMax)
		cfg.Tenants = append(cfg.Tenants, Tenant{
			Name:      fmt.Sprintf("t%d", i),
			PromptMin: 8, PromptMax: 8 + r.Intn(512),
			OutputMin: lo, OutputMax: lo + r.Intn(outMax),
			Weight: 0.5 + r.Float64(),
		})
	}
	cost := linCost{
		perPromptTok: units.Time(1+r.Intn(2000)) * units.Nanosecond,
		decodeBase:   units.Time(1+r.Intn(200)) * units.Microsecond,
		perSeq:       units.Time(r.Intn(20)) * units.Microsecond,
	}
	if mode == 3 {
		// Every step costs a multiple of the decode step and the first
		// arrival is at 0, so every boundary lies on the grid the trace's
		// arrivals are drawn from.
		cost.perSeq = 0
		cost.perPromptTok = cost.decodeBase
	}
	cfg.Cost = cost
	// Offered load from deep underload to far past capacity.
	cfg.QPS = float64(1 + r.Intn(20000))
	switch mode {
	case 0:
		cfg.NumRequests = 1 + r.Intn(150)
	case 1, 2:
		cfg.Horizon = units.Time(1+r.Intn(200)) * units.Millisecond
		cfg.Drain = mode == 2
	case 3, 4:
		n := 1 + r.Intn(60)
		var at units.Time
		for i := 0; i < n; i++ {
			if mode == 3 {
				if i > 0 && r.Intn(4) > 0 { // some arrivals share an instant
					at += units.Time(r.Intn(40)) * cost.decodeBase
				}
			} else {
				at += units.Time(r.Intn(3000)) * units.Microsecond
			}
			tn := r.Intn(len(cfg.Tenants))
			ten := cfg.Tenants[tn]
			cfg.Trace = append(cfg.Trace, Request{
				Tenant: tn,
				Prompt: ten.PromptMin + r.Intn(ten.PromptMax-ten.PromptMin+1),
				Output: ten.OutputMin + r.Intn(ten.OutputMax-ten.OutputMin+1),
				Arrive: at,
			})
		}
	}
	return cfg
}

// TestCollapsedMatchesStepwise is the randomized differential behind the
// collapsed decode runs: for every arrival mode, batch and prefill cap,
// with and without a checker and a metrics sink, one event per run of
// identical decode steps must reproduce one event per step exactly — the
// result, every request record, the end time, the violations and every
// exported counter, gauge and timeline span.
func TestCollapsedMatchesStepwise(t *testing.T) {
	r := rng.New(2024)
	var collapsed, stepwise uint64
	for i := 0; i < 600; i++ {
		mode := i % 5
		cfg := randomDiffConfig(&r, mode)
		withCheck, withSink := r.Intn(2) == 0, r.Intn(2) == 0
		got := runOutcome(t, cfg, withCheck, withSink, false)
		want := runOutcome(t, cfg, withCheck, withSink, true)
		collapsed += got.events
		stepwise += want.events
		got.events, want.events = 0, 0
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("config %d (mode %d, batch %d, prefills %d, check %v, sink %v): collapsed run differs\n got %+v\nwant %+v",
				i, mode, cfg.MaxBatch, cfg.MaxPrefillsPerStep, withCheck, withSink, *got.res, *want.res)
		}
	}
	if collapsed*4 > stepwise*3 {
		t.Errorf("collapsed runs dispatched %d events against %d stepwise; the runs did not collapse", collapsed, stepwise)
	}
}

// TestDecodeRunCaps pins the three caps on a collapsed run directly: the
// fewest tokens owed, a pending arrival (strictly after every inner
// boundary) and the horizon (every step starting before it).
func TestDecodeRunCaps(t *testing.T) {
	step := 10 * units.Microsecond
	s := &Sim{cfg: Config{NumRequests: 1}}
	s.active = []*Request{{Output: 9, tokensOut: 2}, {Output: 12}}
	if k := s.decodeRun(0, step); k != 7 {
		t.Errorf("owed-token cap: K = %d, want 7", k)
	}
	s.nextIdx, s.arrived = 1, 0 // one arrival pending
	for _, tc := range []struct {
		arrive units.Time
		want   int64
	}{
		{0, 1},        // arriving now: a single step
		{step, 1},     // on the first boundary: that boundary admits it
		{step + 1, 2}, // just past it: one inner boundary at step
		{3 * step, 3}, // inner boundaries step, 2·step; the run ends on it
		{1000 * step, 7},
	} {
		s.staged.Arrive = tc.arrive
		if k := s.decodeRun(0, step); k != tc.want {
			t.Errorf("arrival at %v: K = %d, want %d", tc.arrive, k, tc.want)
		}
	}
	s.nextIdx = 0
	s.cfg = Config{Horizon: 25 * units.Microsecond}
	if k := s.decodeRun(0, step); k != 3 {
		t.Errorf("horizon cap: K = %d, want 3 (steps start at 0, 10, 20 µs)", k)
	}
	s.cfg.Drain = true
	if k := s.decodeRun(0, step); k != 7 {
		t.Errorf("drain ignores the horizon: K = %d, want 7", k)
	}
	s.active = []*Request{{Output: 1 << 40}}
	if k, limit := s.decodeRun(units.Second, units.Second), int64(1<<63-1)/int64(units.Second)-1; k != limit {
		t.Errorf("overflow cap: K = %d, want %d", k, limit)
	}
}
