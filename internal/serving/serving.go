// Package serving is the open-loop request-level inference-serving simulator:
// the deployment layer above the iteration-level models, answering the
// question the paper never asks — how much serving capacity does fine-grained
// compute/collective overlap buy at a fixed latency SLO?
//
// Requests arrive via a deterministic Poisson process at a configured
// aggregate QPS (or from an explicit trace), each drawn from one of several
// tenant streams with its own prompt/output-length distribution. A
// continuous-batching scheduler admits them FIFO into a shared decode batch
// with prefill/decode interleave; a CostModel — typically built from
// internal/transformer iteration costs with or without T3's fused overlap —
// prices each step. Per-request TTFT, TPOT and end-to-end latency feed
// percentile summaries (internal/stats) and per-tenant timeline tracks
// (internal/metrics); internal/check witnesses request conservation,
// milestone ordering and the batch-occupancy bound.
//
// Determinism: every stochastic draw for request i comes from a private
// rng.Rand seeded by Mix(Seed, i), so the sampled workload is byte-identical
// at any worker count, and changing the offered QPS only rescales arrival
// times — tenant choice and lengths never resample, which is what makes TTFT
// comparisons across a QPS ladder meaningful (and monotone, see the property
// tests). The simulation itself runs on one private sim.Engine.
//
// Work: a step that admits no prefill is a pure decode step, and the steps
// after it repeat it exactly until a request completes, a request arrives or
// the horizon passes. Such a run of identical steps is one calendar event,
// priced K·DecodeStep(n); the run stops strictly before the boundary where
// anything could change, so every result is what one event per step gives
// (TestCollapsedMatchesStepwise). Summaries take their percentiles by
// selection, not by sorting.
//
// Allocation: the arrival/admission hot path is allocation-free in steady
// state — request records come from a freelist backed by 64-record slabs,
// the waiting queue is a growable ring, the batch is compacted in place, and
// the arrival/step handlers are prebound closures (guarded by
// TestSteadyStateAllocFree).
package serving

import (
	"fmt"
	"math"

	"t3sim/internal/check"
	"t3sim/internal/metrics"
	"t3sim/internal/rng"
	"t3sim/internal/sim"
	"t3sim/internal/stats"
	"t3sim/internal/units"
)

// CostModel prices the two step types of continuous batching. Durations must
// be positive, and both methods must be pure functions of their argument:
// the simulator prices a run of K identical decode steps with one
// DecodeStep call, so a model whose answer depends on how often or when it
// is asked would be priced differently.
type CostModel interface {
	// Prefill returns the time to process one request's full prompt.
	Prefill(promptTokens int) units.Time
	// DecodeStep returns the time for one decode iteration generating one
	// token for each of batch sequences.
	DecodeStep(batch int) units.Time
}

// Tenant is one request stream: a workload class with its own length
// distributions and a relative share of the aggregate arrival rate.
type Tenant struct {
	Name string
	// Prompt lengths are log-uniform in [PromptMin, PromptMax].
	PromptMin, PromptMax int
	// Output lengths are log-uniform in [OutputMin, OutputMax].
	OutputMin, OutputMax int
	// Weight is the tenant's relative share of arrivals (need not sum to 1).
	Weight float64
}

// Request is one inference request's full lifecycle record.
type Request struct {
	ID     int
	Tenant int // index into Config.Tenants
	Prompt int // prompt tokens
	Output int // output tokens to generate (>= 1; the first comes from prefill)

	Arrive       units.Time
	PrefillStart units.Time
	FirstToken   units.Time
	Done         units.Time

	tokensOut int // generation progress
}

// TTFT returns the time-to-first-token: admission wait plus prefill.
func (r *Request) TTFT() units.Time { return r.FirstToken - r.Arrive }

// E2E returns the end-to-end latency.
func (r *Request) E2E() units.Time { return r.Done - r.Arrive }

// TPOT returns the time-per-output-token over the decode phase, and false
// for single-token requests (which have no decode phase).
func (r *Request) TPOT() (units.Time, bool) {
	if r.Output <= 1 {
		return 0, false
	}
	return (r.Done - r.FirstToken) / units.Time(r.Output-1), true
}

// Config parameterizes one serving run.
type Config struct {
	Tenants []Tenant
	// QPS is the aggregate offered load in requests per second (all tenants
	// combined). Ignored when Trace is set.
	QPS float64
	// NumRequests, when positive, samples exactly this many arrivals and
	// drains them all: the same request population is replayed at every QPS,
	// which is the mode the sweep experiments and the monotonicity property
	// tests use. When zero, arrivals are generated while they fall inside
	// [0, Horizon) — the truncated open-loop mode.
	NumRequests int
	// Horizon bounds arrival times in the NumRequests==0 mode. Unless Drain
	// is set, no new step starts at or after Horizon either (requests still
	// waiting then are reported as queued).
	Horizon units.Time
	// Drain keeps the scheduler stepping past Horizon until every admitted
	// and queued request completes. NumRequests and Trace modes always drain.
	Drain bool
	// MaxBatch caps the decode-batch occupancy (prefilling and decoding
	// sequences combined).
	MaxBatch int
	// MaxPrefillsPerStep caps how many waiting requests one step may admit
	// (bounding step-time inflation from prefill bursts). 0 means MaxBatch.
	MaxPrefillsPerStep int
	// Seed selects the sampled workload; request i draws from
	// rng.New(rng.Mix(Seed, i)).
	Seed uint64
	// Trace, when non-nil, replaces sampling: requests arrive exactly as
	// listed (ID is reassigned from position; Arrive must be non-decreasing).
	Trace []Request

	Cost    CostModel
	Metrics metrics.Sink   // optional
	Checker *check.Checker // optional
}

// Validate reports the first configuration error.
func (c *Config) Validate() error {
	if c.Cost == nil {
		return fmt.Errorf("serving: nil CostModel")
	}
	if c.MaxBatch < 1 {
		return fmt.Errorf("serving: MaxBatch = %d, must be >= 1", c.MaxBatch)
	}
	if c.MaxPrefillsPerStep < 0 {
		return fmt.Errorf("serving: negative MaxPrefillsPerStep")
	}
	if c.Trace != nil {
		for i := range c.Trace {
			r := &c.Trace[i]
			if r.Tenant < 0 || r.Tenant >= len(c.Tenants) {
				return fmt.Errorf("serving: trace[%d] tenant %d out of range", i, r.Tenant)
			}
			if r.Prompt < 1 || r.Output < 1 {
				return fmt.Errorf("serving: trace[%d] needs positive prompt/output lengths", i)
			}
			if i > 0 && r.Arrive < c.Trace[i-1].Arrive {
				return fmt.Errorf("serving: trace arrivals not sorted at [%d]", i)
			}
		}
		if len(c.Tenants) == 0 {
			return fmt.Errorf("serving: no tenants")
		}
		return nil
	}
	if len(c.Tenants) == 0 {
		return fmt.Errorf("serving: no tenants")
	}
	for i, t := range c.Tenants {
		if t.PromptMin < 1 || t.PromptMax < t.PromptMin {
			return fmt.Errorf("serving: tenant %d (%s) prompt range [%d,%d] invalid", i, t.Name, t.PromptMin, t.PromptMax)
		}
		if t.OutputMin < 1 || t.OutputMax < t.OutputMin {
			return fmt.Errorf("serving: tenant %d (%s) output range [%d,%d] invalid", i, t.Name, t.OutputMin, t.OutputMax)
		}
		if t.Weight <= 0 {
			return fmt.Errorf("serving: tenant %d (%s) weight %v, must be positive", i, t.Name, t.Weight)
		}
	}
	if c.QPS <= 0 {
		return fmt.Errorf("serving: QPS = %v, must be positive", c.QPS)
	}
	if c.NumRequests == 0 && c.Horizon <= 0 {
		return fmt.Errorf("serving: need NumRequests or a positive Horizon")
	}
	return nil
}

// reqQueue is a growable ring buffer of waiting requests: FIFO, amortized
// allocation-free.
type reqQueue struct {
	buf  []*Request
	head int
	n    int
}

func (q *reqQueue) push(r *Request) {
	if q.n == len(q.buf) {
		grown := make([]*Request, maxInt(4, 2*len(q.buf)))
		for i := 0; i < q.n; i++ {
			grown[i] = q.buf[(q.head+i)%len(q.buf)]
		}
		q.buf, q.head = grown, 0
	}
	q.buf[(q.head+q.n)%len(q.buf)] = r
	q.n++
}

func (q *reqQueue) pop() *Request {
	r := q.buf[q.head]
	q.buf[q.head] = nil
	q.head = (q.head + 1) % len(q.buf)
	q.n--
	return r
}

// Sim is one serving simulation instance. Build with New, execute with Run.
type Sim struct {
	cfg         Config
	eng         *sim.Engine
	cumW        []float64 // normalized cumulative tenant weights
	lens        []tenantLens
	maxPrefills int

	queue     reqQueue
	active    []*Request
	free      []*Request
	slab      []Request // uncarved records (see alloc)
	completed []*Request

	stepBusy bool
	nDecode  int   // decode participants of the running step
	runK     int64 // identical steps the running step event stands for

	// stepwise, when set, schedules one event per step: the reference the
	// collapsed runs are tested against. Never set outside tests.
	stepwise bool

	// Arrival generation: the next request is fully sampled into staged
	// before its arrival event is scheduled.
	staged     Request
	nextIdx    int
	lastArrive units.Time
	arrived    int

	steps, prefills, decodeTokens int64

	onArrive  sim.Handler
	onStepEnd sim.Handler

	// instruments (nil-safe)
	queueDepth                   *metrics.Gauge
	batchMax                     *metrics.Gauge
	arrivedC, completedC, stepsC *metrics.Counter
	prefillsC, decodeTokC        *metrics.Counter
	tenantTracks                 []*metrics.Track

	// invariant witnesses (nil-safe)
	ckReq   *check.Requests
	ckMile  *check.Milestones
	ckBound *check.Bound
}

// tenantLens is one tenant's length ranges with their logarithms taken
// once.
type tenantLens struct{ prompt, output rng.LogRange }

// New validates cfg and builds a simulation.
func New(cfg Config) (*Sim, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	s := &Sim{cfg: cfg, eng: sim.NewEngine(), maxPrefills: cfg.MaxPrefillsPerStep}
	if s.maxPrefills == 0 {
		s.maxPrefills = cfg.MaxBatch
	}
	total := 0.0
	for _, t := range cfg.Tenants {
		total += t.Weight
	}
	acc := 0.0
	s.cumW = make([]float64, len(cfg.Tenants))
	for i, t := range cfg.Tenants {
		acc += t.Weight / total
		s.cumW[i] = acc
	}
	s.cumW[len(s.cumW)-1] = 1 // close the top bucket against rounding
	if cfg.Trace == nil {
		s.lens = make([]tenantLens, len(cfg.Tenants))
		for i, t := range cfg.Tenants {
			s.lens[i] = tenantLens{rng.NewLogRange(t.PromptMin, t.PromptMax), rng.NewLogRange(t.OutputMin, t.OutputMax)}
		}
	}
	s.active = make([]*Request, 0, cfg.MaxBatch)
	s.onArrive = s.arrive
	s.onStepEnd = s.stepEnd

	if m := cfg.Metrics; m != nil {
		sc := m.Scope("serve")
		s.queueDepth = sc.Gauge("queue_depth")
		s.batchMax = sc.Gauge("batch_max")
		s.arrivedC = sc.Counter("arrived")
		s.completedC = sc.Counter("completed")
		s.stepsC = sc.Counter("steps")
		s.prefillsC = sc.Counter("prefills")
		s.decodeTokC = sc.Counter("decode_tokens")
		s.tenantTracks = make([]*metrics.Track, len(cfg.Tenants))
		for i, t := range cfg.Tenants {
			s.tenantTracks[i] = sc.Track(t.Name)
		}
	}
	s.eng.AttachChecker(cfg.Checker)
	s.ckReq = cfg.Checker.Requests("serving.requests")
	s.ckMile = cfg.Checker.Milestones("serving.milestones")
	s.ckBound = cfg.Checker.Bound("serving.batch", int64(cfg.MaxBatch))
	return s, nil
}

// Run executes the simulation to completion and aggregates the result.
func Run(cfg Config) (*Result, error) {
	s, err := New(cfg)
	if err != nil {
		return nil, err
	}
	return s.Run(), nil
}

// Run executes the simulation and aggregates the result. Call once.
func (s *Sim) Run() *Result {
	s.scheduleNextArrival()
	end := s.eng.Run()
	s.ckReq.Close(end, int64(s.queue.n), int64(len(s.active)))
	return s.buildResult(end)
}

// scheduleNextArrival samples request nextIdx into staged and schedules its
// arrival event, unless the arrival process is exhausted.
func (s *Sim) scheduleNextArrival() {
	i := s.nextIdx
	if s.cfg.Trace != nil {
		if i >= len(s.cfg.Trace) {
			return
		}
		s.staged = s.cfg.Trace[i]
		s.staged.ID = i
		s.staged.tokensOut = 0
		s.nextIdx++
		s.eng.At(s.staged.Arrive, s.onArrive)
		return
	}
	if s.cfg.NumRequests > 0 && i >= s.cfg.NumRequests {
		return
	}
	// Draw order is frozen (goldens pin it): gap, tenant, prompt, output.
	r := rng.New(rng.Mix(s.cfg.Seed, uint64(i)))
	at := s.lastArrive + units.FromSeconds(r.Exp()/s.cfg.QPS)
	if s.cfg.NumRequests == 0 && at >= s.cfg.Horizon {
		return
	}
	tenant := s.pickTenant(r.Float64())
	l := &s.lens[tenant]
	s.staged = Request{
		ID:     i,
		Tenant: tenant,
		Prompt: r.LogInt(l.prompt),
		Output: r.LogInt(l.output),
		Arrive: at,
	}
	s.lastArrive = at
	s.nextIdx++
	s.eng.At(at, s.onArrive)
}

// pickTenant maps a uniform draw to a tenant index via the cumulative
// weights.
func (s *Sim) pickTenant(u float64) int {
	for i, c := range s.cumW {
		if u < c {
			return i
		}
	}
	return len(s.cumW) - 1
}

// arrive materializes the staged request, enqueues it, schedules the next
// arrival, and kicks the scheduler if it is idle.
func (s *Sim) arrive() {
	req := s.alloc()
	*req = s.staged
	s.arrived++
	s.ckReq.Arrive()
	s.arrivedC.Inc()
	s.queue.push(req)
	s.queueDepth.Add(1)
	s.scheduleNextArrival()
	if !s.stepBusy {
		s.startStep()
	}
}

// startStep admits waiting requests FIFO up to the batch and prefill caps and
// schedules the step's completion — or, when it admits nothing, the
// completion of the whole run of identical decode steps from here (see
// decodeRun). No-op when there is nothing to run or the horizon has passed
// in non-drain mode.
func (s *Sim) startStep() {
	now := s.eng.Now()
	if s.stopsAtHorizon() && now >= s.cfg.Horizon {
		return
	}
	s.nDecode = len(s.active)
	var cost units.Time
	admitted := 0
	for len(s.active) < s.cfg.MaxBatch && admitted < s.maxPrefills && s.queue.n > 0 {
		req := s.queue.pop()
		s.queueDepth.Add(-1)
		req.PrefillStart = now
		s.active = append(s.active, req)
		cost += s.cfg.Cost.Prefill(req.Prompt)
		admitted++
	}
	if len(s.active) == 0 {
		return // idle until the next arrival
	}
	s.runK = 1
	if s.nDecode > 0 {
		step := s.cfg.Cost.DecodeStep(s.nDecode)
		if admitted == 0 && !s.stepwise {
			s.runK = s.decodeRun(now, step)
		}
		cost += units.Time(s.runK) * step
	}
	s.prefills += int64(admitted)
	s.prefillsC.Add(int64(admitted))
	s.steps += s.runK
	s.stepsC.Add(s.runK)
	s.ckBound.Observe(now, int64(len(s.active)))
	s.batchMax.SetMax(int64(len(s.active)))
	s.stepBusy = true
	s.eng.After(cost, s.onStepEnd)
}

// stopsAtHorizon reports whether no step may start at or after Horizon:
// the truncated open-loop mode without Drain.
func (s *Sim) stopsAtHorizon() bool {
	return s.cfg.Trace == nil && s.cfg.NumRequests == 0 && !s.cfg.Drain
}

// decodeRun returns K, how many identical pure decode steps of cost step,
// starting now, one event can stand for. Every boundary inside the run is a
// startStep that would admit nothing and retire nothing, so K is capped by:
//   - the fewest tokens any member still owes (a completion ends the run);
//   - a pending arrival at a: every inner boundary now+j·step (0 < j < K)
//     falls strictly before a, so an arrival inside the run only queues,
//     as it would at a busy step, and the run's end event, scheduled before
//     that arrival was, keeps its same-instant order against it;
//   - in the truncated mode, Horizon: every step of the run starts before it;
//   - the clock: now + K·step must not overflow.
//
// A non-positive step (outside the CostModel contract) is never collapsed.
func (s *Sim) decodeRun(now, step units.Time) int64 {
	if step <= 0 {
		return 1
	}
	k := int64(math.MaxInt64)
	for _, req := range s.active {
		k = min(k, int64(req.Output-req.tokensOut))
	}
	if s.nextIdx > s.arrived {
		k = min(k, stepsBefore(s.staged.Arrive-now, step))
	}
	if s.stopsAtHorizon() {
		k = min(k, stepsBefore(s.cfg.Horizon-now, step))
	}
	return max(1, min(k, int64(math.MaxInt64-now)/int64(step)))
}

// stepsBefore returns how many steps of cost step start strictly before d
// from now: ceil(d/step), and 0 when d <= 0.
func stepsBefore(d, step units.Time) int64 {
	if d <= 0 {
		return 0
	}
	return int64((d-1)/step) + 1
}

// stepEnd advances every batch member by one token — prefilled requests emit
// their first token, decode participants their next, or the run's K of them
// — retires finished requests in place, and starts the next step.
func (s *Sim) stepEnd() {
	now := s.eng.Now()
	s.stepBusy = false
	k := s.runK
	if s.nDecode > 0 {
		s.decodeTokens += k * int64(s.nDecode)
		s.decodeTokC.Add(k * int64(s.nDecode))
	}
	w := 0
	for i, req := range s.active {
		if i < s.nDecode {
			req.tokensOut += int(k)
		} else {
			req.FirstToken = now
			req.tokensOut = 1
		}
		if req.tokensOut >= req.Output {
			req.Done = now
			s.complete(req)
		} else {
			s.active[w] = req
			w++
		}
	}
	for i := w; i < len(s.active); i++ {
		s.active[i] = nil
	}
	s.active = s.active[:w]
	s.startStep()
}

// complete retires one finished request.
func (s *Sim) complete(req *Request) {
	s.ckReq.Complete(req.Done)
	s.ckMile.Observe(req.ID, req.Arrive, req.PrefillStart, req.FirstToken, req.Done)
	s.completedC.Inc()
	if s.tenantTracks != nil {
		tr := s.tenantTracks[req.Tenant]
		tr.Span("wait", req.Arrive, req.PrefillStart)
		tr.Span("generate", req.PrefillStart, req.Done)
	}
	s.completed = append(s.completed, req)
}

// reqSlab is how many request records one slab allocation holds.
const reqSlab = 64

// alloc takes a request record from the freelist, or carves it from the
// current slab.
func (s *Sim) alloc() *Request {
	if n := len(s.free); n > 0 {
		r := s.free[n-1]
		s.free[n-1] = nil
		s.free = s.free[:n-1]
		return r
	}
	if len(s.slab) == 0 {
		s.slab = make([]Request, reqSlab)
	}
	r := &s.slab[0]
	s.slab = s.slab[1:]
	return r
}

// recycle returns completed records to the freelist and truncates the
// completed list — the steady-state reuse hook the allocation tests drive.
func (s *Sim) recycle() {
	s.free = append(s.free, s.completed...)
	for i := range s.completed {
		s.completed[i] = nil
	}
	s.completed = s.completed[:0]
}

// Latency is one population's latency summary. Times are reported with
// nearest-rank percentiles (see stats.NearestRank); TPOT quantiles cover
// only multi-token requests.
type Latency struct {
	N                          int
	TTFTMean, TTFTp50, TTFTp99 units.Time
	TPOTp50, TPOTp99           units.Time
	E2Ep50, E2Ep99             units.Time
}

// Result is one run's aggregate outcome.
type Result struct {
	Arrived      int
	Completed    int
	QueuedAtEnd  int // still waiting when the run stopped (non-drain mode)
	ActiveAtEnd  int // still in the batch when the run stopped
	Steps        int64
	Prefills     int64
	DecodeTokens int64
	// End is the simulation end time: the last event's timestamp (at least
	// Horizon in non-drain mode).
	End units.Time
	// Throughput is completed requests per simulated second.
	Throughput float64
	// Overall summarizes every completed request; PerTenant[i] summarizes
	// tenant i's.
	Overall   Latency
	PerTenant []Latency
}

// buildResult aggregates the completed population.
func (s *Sim) buildResult(end units.Time) *Result {
	res := &Result{
		Arrived:      s.arrived,
		Completed:    len(s.completed),
		QueuedAtEnd:  s.queue.n,
		ActiveAtEnd:  len(s.active),
		Steps:        s.steps,
		Prefills:     s.prefills,
		DecodeTokens: s.decodeTokens,
		End:          end,
		PerTenant:    make([]Latency, len(s.cfg.Tenants)),
	}
	if end > 0 {
		res.Throughput = float64(res.Completed) / end.Seconds()
	}
	var sm summary
	res.Overall = sm.summarize(s.completed, -1)
	for i := range s.cfg.Tenants {
		res.PerTenant[i] = sm.summarize(s.completed, i)
	}
	return res
}

// summary holds the sample buffers of one result's latency summaries,
// reused across the overall and per-tenant populations.
type summary struct{ ttft, tpot, e2e []units.Time }

// summarize computes the latency summary of completed requests belonging to
// tenant (or all of them when tenant < 0).
func (sm *summary) summarize(completed []*Request, tenant int) Latency {
	ttft, tpot, e2e := sm.ttft[:0], sm.tpot[:0], sm.e2e[:0]
	var ttftSum units.Time
	for _, r := range completed {
		if tenant >= 0 && r.Tenant != tenant {
			continue
		}
		ttft = append(ttft, r.TTFT())
		ttftSum += r.TTFT()
		e2e = append(e2e, r.E2E())
		if t, ok := r.TPOT(); ok {
			tpot = append(tpot, t)
		}
	}
	sm.ttft, sm.tpot, sm.e2e = ttft, tpot, e2e
	l := Latency{N: len(ttft)}
	if l.N == 0 {
		return l
	}
	l.TTFTMean = ttftSum / units.Time(l.N)
	l.TTFTp50, l.TTFTp99 = p50p99(ttft)
	l.E2Ep50, l.E2Ep99 = p50p99(e2e)
	if len(tpot) > 0 {
		l.TPOTp50, l.TPOTp99 = p50p99(tpot)
	}
	return l
}

// p50p99 returns the nearest-rank p50 and p99 of a non-empty sample,
// reordering it: p99 is selected first, which leaves every smaller rank in
// the prefix p50 is then selected from.
func p50p99(xs []units.Time) (p50, p99 units.Time) {
	k99 := stats.NearestRank(len(xs), 99) - 1
	p99 = stats.Select(xs, k99)
	p50 = stats.Select(xs[:k99+1], stats.NearestRank(len(xs), 50)-1)
	return p50, p99
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
