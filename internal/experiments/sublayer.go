package experiments

import (
	"fmt"
	"runtime"
	"sync"

	"t3sim/internal/collective"
	"t3sim/internal/gpu"
	"t3sim/internal/memory"
	"t3sim/internal/metrics"
	"t3sim/internal/sim"
	"t3sim/internal/t3core"
	"t3sim/internal/transformer"
	"t3sim/internal/units"
)

// DRAMBreakdown itemizes a configuration's per-device DRAM traffic the way
// Figure 18 stacks it.
type DRAMBreakdown struct {
	GEMMReads  units.Bytes
	GEMMWrites units.Bytes // plain writes or NMC updates
	RSReads    units.Bytes
	RSWrites   units.Bytes // staging writes or NMC updates
	AGReads    units.Bytes
	AGWrites   units.Bytes
}

// Total sums the breakdown.
func (b DRAMBreakdown) Total() units.Bytes {
	return b.GEMMReads + b.GEMMWrites + b.RSReads + b.RSWrites + b.AGReads + b.AGWrites
}

// SublayerResult is everything the sub-layer figures need for one case.
type SublayerResult struct {
	Case SubCase

	// Baseline isolated times.
	GEMM  units.Time
	RS    units.Time
	RSNMC units.Time
	AG    units.Time

	// Scheme completion times for GEMM→RS→AG (§5.3 configurations).
	Sequential   units.Time
	T3           units.Time
	T3MCA        units.Time
	IdealOverlap units.Time
	IdealRSNMC   units.Time

	// Figure 18 traffic.
	BaselineDRAM DRAMBreakdown
	T3DRAM       DRAMBreakdown

	// Fused-run diagnostics.
	TrackerMaxLive int
	MCAThreshold   int
}

// SpeedupT3 returns Sequential/T3.
func (r SublayerResult) SpeedupT3() float64 { return float64(r.Sequential) / float64(r.T3) }

// SpeedupT3MCA returns Sequential/T3MCA.
func (r SublayerResult) SpeedupT3MCA() float64 { return float64(r.Sequential) / float64(r.T3MCA) }

// SpeedupIdeal returns Sequential/IdealOverlap.
func (r SublayerResult) SpeedupIdeal() float64 {
	return float64(r.Sequential) / float64(r.IdealOverlap)
}

// SpeedupIdealNMC returns Sequential/IdealRSNMC.
func (r SublayerResult) SpeedupIdealNMC() float64 {
	return float64(r.Sequential) / float64(r.IdealRSNMC)
}

// DataMovementReduction returns 1 − T3bytes/baselineBytes.
func (r SublayerResult) DataMovementReduction() float64 {
	return 1 - float64(r.T3DRAM.Total())/float64(r.BaselineDRAM.Total())
}

// Evaluator runs and memoizes sub-layer evaluations so Figures 15–19 share
// one set of simulations. It is safe for concurrent use: the memo cache is
// mutex-guarded and concurrent Evaluate calls for the same case are
// deduplicated (singleflight), so each case is simulated exactly once no
// matter how many experiments race for it. Every simulation owns a private
// sim.Engine, so results are bit-identical regardless of scheduling.
type Evaluator struct {
	Setup Setup

	// Parallelism bounds the worker goroutines EvaluateAll spawns and, when
	// set to 1, also forces the per-case scheme simulations to run
	// back-to-back on one goroutine (the fully serial baseline that -j 1
	// exposes for profiling). Zero means GOMAXPROCS. Mutating it while
	// evaluations are in flight is not supported.
	Parallelism int

	mu       sync.Mutex
	cache    map[string]SublayerResult
	inflight map[string]*evalCall

	// onEvaluate, when non-nil, runs at the start of every actual (neither
	// memoized nor deduplicated) evaluation. Tests use it to count how many
	// times a case really simulates.
	onEvaluate func(SubCase)
}

// evalCall is one in-flight evaluation waiters block on.
type evalCall struct {
	done chan struct{}
	res  SublayerResult
	err  error
}

// NewEvaluator returns an evaluator for the setup.
func NewEvaluator(s Setup) (*Evaluator, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &Evaluator{
		Setup:    s,
		cache:    map[string]SublayerResult{},
		inflight: map[string]*evalCall{},
	}, nil
}

// derive returns a private evaluator for s, a variant of e's setup: it keeps
// e's Parallelism, so a fully serial parent gets fully serial children, and
// records under its own metrics scope, so its instruments never share a
// writer with e's.
func (e *Evaluator) derive(s Setup, scope string) (*Evaluator, error) {
	if m := s.Metrics; m != nil {
		s.Metrics = m.Scope(scope)
	}
	d, err := NewEvaluator(s)
	if err != nil {
		return nil, err
	}
	d.Parallelism = e.Parallelism
	return d, nil
}

// workers resolves the effective worker count.
func (e *Evaluator) workers() int {
	if e.Parallelism > 0 {
		return e.Parallelism
	}
	return runtime.GOMAXPROCS(0)
}

// Evaluate runs (or returns the cached) full scheme comparison for one case.
// If another goroutine is already evaluating the same case, Evaluate waits
// for that run instead of duplicating it.
func (e *Evaluator) Evaluate(c SubCase) (SublayerResult, error) {
	key := c.String()
	e.mu.Lock()
	if r, ok := e.cache[key]; ok {
		e.mu.Unlock()
		return r, nil
	}
	if call, ok := e.inflight[key]; ok {
		e.mu.Unlock()
		<-call.done
		return call.res, call.err
	}
	call := &evalCall{done: make(chan struct{})}
	e.inflight[key] = call
	e.mu.Unlock()

	r, err := e.evaluate(c)
	if err != nil {
		err = fmt.Errorf("%s: %w", key, err)
	}
	call.res, call.err = r, err

	e.mu.Lock()
	if err == nil {
		e.cache[key] = r
	}
	// Errors are not cached: later callers retry rather than inherit a
	// stale failure.
	delete(e.inflight, key)
	e.mu.Unlock()
	close(call.done)
	return r, err
}

// EvaluateAll evaluates every case on a bounded worker pool and returns the
// results in input order. Memoization and singleflight are shared with
// Evaluate, so cases already simulated are free and duplicate entries in
// cases are simulated once. On failure the error of the lowest-index failing
// case is returned, so sequential and parallel runs report identically.
func (e *Evaluator) EvaluateAll(cases []SubCase) ([]SublayerResult, error) {
	results := make([]SublayerResult, len(cases))
	errs := make([]error, len(cases))
	workers := e.workers()
	if workers > len(cases) {
		workers = len(cases)
	}
	if workers <= 1 {
		for i, c := range cases {
			r, err := e.Evaluate(c)
			if err != nil {
				return nil, err
			}
			results[i] = r
		}
		return results, nil
	}
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				results[i], errs[i] = e.Evaluate(cases[i])
			}
		}()
	}
	for i := range cases {
		idx <- i
	}
	close(idx)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return results, nil
}

func (e *Evaluator) evaluate(c SubCase) (SublayerResult, error) {
	s := e.Setup
	sl, err := transformer.SubLayerGEMM(c.Model, c.Kind, c.TP)
	if err != nil {
		return SublayerResult{}, err
	}
	fusedOpts := t3core.FusedOptions{
		GPU:         s.GPU,
		Memory:      s.Memory,
		Link:        s.Link,
		Tracker:     s.Tracker,
		Devices:     c.TP,
		Grid:        sl.Grid,
		Collective:  t3core.RingReduceScatter,
		Arbitration: t3core.ArbRoundRobin,
		Check:       s.Check,
	}
	// Content-addressed memoization across evaluators: two cases whose
	// timing-relevant options hash identically (e.g. the ablation link
	// sweep's derived evaluator at the default bandwidth) share one set of
	// simulations. Metrics runs are never served from cache — their whole
	// value is the recording.
	if m := s.Memo; m != nil && s.Metrics == nil {
		if key, ok, diskOK := sublayerKey(fusedOpts, sl.ARBytes, s.CollectiveCUs, s.PerCUMemBandwidth); ok {
			r, err := m.memoSublayer(key, diskOK, func() (SublayerResult, error) {
				return e.simulate(c, sl, fusedOpts)
			})
			if err == nil {
				r.Case = c // a hit may come from an identical twin case
			}
			return r, err
		}
	}
	return e.simulate(c, sl, fusedOpts)
}

// simulate runs the full scheme comparison for one case, unconditionally.
func (e *Evaluator) simulate(c SubCase, sl transformer.SubLayer, fusedOpts t3core.FusedOptions) (SublayerResult, error) {
	if e.onEvaluate != nil {
		e.onEvaluate(c)
	}
	s := e.Setup
	res := SublayerResult{Case: c}

	// The three discrete-event simulations of one case — isolated baseline
	// GEMM, fused T3 (round-robin arbitration), fused T3-MCA — are fully
	// independent: each owns a private sim.Engine, so they can run on
	// separate goroutines with bit-identical results. With Parallelism == 1
	// they run back-to-back on this goroutine instead.
	mcaOpts := fusedOpts
	mcaOpts.Arbitration = t3core.ArbMCA

	// Each simulation gets its own scope named only by case and scheme;
	// combined with the memo cache (each case simulated exactly once) this
	// keeps the registry's process set independent of worker scheduling.
	var gemmSink metrics.Sink
	if m := s.Metrics; m != nil {
		key := c.String()
		gemmSink = m.Scope("gemm/" + key)
		fusedOpts.Metrics = m.Scope("fused-t3/" + key)
		mcaOpts.Metrics = m.Scope("fused-t3-mca/" + key)
	}

	var (
		gemmTime  units.Time
		gemmReads units.Bytes
		gemmErr   error
		t3res     t3core.FusedResult
		t3err     error
		mcaRes    t3core.FusedResult
		mcaErr    error
	)
	// The fused runs go through the fused-level memo so ablations replaying
	// an identical configuration (or vice versa) reuse them; with metrics
	// attached the scoped sinks make the options uncacheable automatically.
	runGEMM := func() { gemmTime, gemmReads, gemmErr = e.isolatedGEMM(sl, false, gemmSink) }
	runT3 := func() { t3res, t3err = memoFusedRS(s.Memo, fusedOpts) }
	runMCA := func() { mcaRes, mcaErr = memoFusedRS(s.Memo, mcaOpts) }
	if e.workers() == 1 {
		runGEMM()
		runT3()
		runMCA()
	} else {
		var wg sync.WaitGroup
		wg.Add(2)
		go func() { defer wg.Done(); runT3() }()
		go func() { defer wg.Done(); runMCA() }()
		runGEMM()
		wg.Wait()
	}
	// Fixed error precedence keeps parallel and serial failures identical.
	for _, err := range []error{gemmErr, t3err, mcaErr} {
		if err != nil {
			return SublayerResult{}, err
		}
	}
	res.GEMM = gemmTime

	// Baseline collectives from the validated analytic model (Figure 14).
	var err error
	colOpts := collective.AnalyticOptions{
		Devices:           c.TP,
		TotalBytes:        sl.ARBytes,
		Link:              s.Link,
		MemBandwidth:      s.Memory.TotalBandwidth,
		CUs:               s.CollectiveCUs,
		PerCUMemBandwidth: s.PerCUMemBandwidth,
	}
	if res.RS, err = collective.AnalyticRingReduceScatterTime(colOpts); err != nil {
		return SublayerResult{}, err
	}
	nmcOpts := colOpts
	nmcOpts.NMC = true
	if res.RSNMC, err = collective.AnalyticRingReduceScatterTime(nmcOpts); err != nil {
		return SublayerResult{}, err
	}
	if res.AG, err = collective.AnalyticRingAllGatherTime(colOpts); err != nil {
		return SublayerResult{}, err
	}

	res.Sequential = res.GEMM + res.RS + res.AG
	res.IdealOverlap = maxTime(res.GEMM, res.RS) + res.AG
	res.IdealRSNMC = maxTime(res.GEMM, res.RSNMC) + res.AG

	res.T3 = t3res.Done + res.AG
	res.TrackerMaxLive = t3res.TrackerMaxLive
	res.T3MCA = mcaRes.Done + res.AG
	res.MCAThreshold = mcaRes.MCAThreshold

	// Figure 18 traffic accounting.
	out := sl.ARBytes
	chunk := units.Bytes(int64(out) / int64(c.TP))
	n := units.Bytes(int64(c.TP))
	res.BaselineDRAM = DRAMBreakdown{
		GEMMReads:  gemmReads,
		GEMMWrites: out,
		// Ring-RS per device (Figure 10a): 2(N−1)−1 rotation reads plus the
		// final reduction's 2 reads; N−1 staging writes plus the final write.
		RSReads:  chunk * (2*(n-1) - 1 + 2),
		RSWrites: chunk * n,
		AGReads:  chunk * (n - 1),
		AGWrites: chunk * (n - 1),
	}
	res.T3DRAM = DRAMBreakdown{
		GEMMReads:  mcaRes.DRAM.Bytes[memory.Read][memory.StreamCompute],
		GEMMWrites: mcaRes.DRAM.Bytes[memory.Update][memory.StreamCompute],
		RSReads:    mcaRes.DRAM.Bytes[memory.Read][memory.StreamComm],
		RSWrites:   mcaRes.DRAM.Bytes[memory.Update][memory.StreamComm],
		AGReads:    chunk * (n - 1),
		AGWrites:   chunk * (n - 1),
	}
	return res, nil
}

// isolatedGEMM runs the baseline GEMM alone and returns its duration and
// DRAM read bytes. m (may be nil) collects the run's instruments.
func (e *Evaluator) isolatedGEMM(sl transformer.SubLayer, bypassLLC bool, m metrics.Sink) (units.Time, units.Bytes, error) {
	return e.isolatedGEMMOnCUs(sl, bypassLLC, 0, m)
}

// isolatedGEMMOnCUs is isolatedGEMM confined to cus CUs (0 = the whole
// GPU). Runs with equal inputs share one simulation through the setup's
// memo, whichever evaluator asks: the link sweep's derived evaluators and
// the serving experiments repeat GEMMs that never read the link.
func (e *Evaluator) isolatedGEMMOnCUs(sl transformer.SubLayer, bypassLLC bool, cus int, m metrics.Sink) (units.Time, units.Bytes, error) {
	s := e.Setup
	memCfg := s.Memory
	memCfg.Metrics = m
	memCfg.Check = s.Check
	r, err := s.Memo.isolatedGEMM(gemmInputs{
		GPU:       s.GPU,
		Memory:    memCfg,
		Grid:      sl.Grid,
		BypassLLC: bypassLLC,
		CUs:       cus,
	})
	return r.Time, r.Reads, err
}

// runIsolatedGEMM simulates the GEMM of in alone, on a compute-first
// controller.
func runIsolatedGEMM(in gemmInputs) (gemmResult, error) {
	eng := sim.NewEngine()
	eng.AttachChecker(in.Memory.Check)
	mc, err := memory.NewController(eng, in.Memory, memory.ComputeFirst{})
	if err != nil {
		return gemmResult{}, err
	}
	k := &gpu.GEMMKernel{
		Eng:               eng,
		Mem:               mc,
		GPU:               in.GPU,
		Grid:              in.Grid,
		CUs:               in.CUs,
		OutputBypassesLLC: in.BypassLLC,
		Metrics:           in.Memory.Metrics,
	}
	if err := k.Start(nil); err != nil {
		return gemmResult{}, err
	}
	eng.Run()
	return gemmResult{Time: k.Finished(), Reads: mc.Counters().KindBytes(memory.Read)}, nil
}

func maxTime(ts ...units.Time) units.Time {
	m := ts[0]
	for _, t := range ts[1:] {
		if t > m {
			m = t
		}
	}
	return m
}
