package experiments

import (
	"fmt"

	"t3sim/internal/collective"
	"t3sim/internal/metrics"
	"t3sim/internal/serving"
	"t3sim/internal/t3core"
	"t3sim/internal/transformer"
	"t3sim/internal/units"
)

// The serving experiments answer the deployment question the paper stops
// short of: how much request-serving capacity does T3's fused overlap buy at
// a fixed tail-latency SLO? They drive internal/serving's continuous-batching
// simulator with step costs priced from the iteration model, where each AR
// sub-layer's GEMM+RS portion is scaled by the fused-over-sequential ratio
// the DES fused runners measure — the same methodology Figure 19 and the
// generation study use, here applied per prompt-length and batch-size bucket.

// Serving workload defaults. The golden snapshots pin every value; the
// ServeQPS/ServeSLO setup fields (CLI -qps/-slo) override the sweep ladder
// and the SLO without touching the workload shape.
const (
	serveModel       = "Mega-GPT-2"
	serveTP          = 8
	serveNumRequests = 200
	serveMaxBatch    = 16
	serveMaxPrefills = 4
	serveSeed        = 42
	serveTenantsQPS  = 12 // fixed operating point of the per-tenant study
)

// serveDefaultQPS is the sweep ladder (requests/s) when Setup.ServeQPS is
// unset, bracketing the TP-8 Mega-GPT-2 capacity knee.
var serveDefaultQPS = []float64{4, 8, 12, 16, 20, 24}

// serveDefaultSLO is the p99 TTFT service-level objective when
// Setup.ServeSLO is unset. 400ms sits right at the TP-8 Mega-GPT-2 capacity
// knee, where the schemes separate: the baseline's p99 TTFT blows through it
// one QPS rung before T3's does.
const serveDefaultSLO = 400 * units.Millisecond

// serveTenantMix is the two-tenant workload: an interactive chat stream
// (short prompts, short outputs, 3x the traffic) and a batch-analytics
// stream (long prompts, long outputs).
func serveTenantMix() []serving.Tenant {
	return []serving.Tenant{
		{Name: "chat", PromptMin: 128, PromptMax: 512, OutputMin: 16, OutputMax: 64, Weight: 3},
		{Name: "batch", PromptMin: 256, PromptMax: 1024, OutputMin: 32, OutputMax: 128, Weight: 1},
	}
}

// servePromptBuckets are the power-of-two prompt-length quantization points
// covering the tenant mix; serveBatchBuckets cover batch sizes up to
// serveMaxBatch. Costs are looked up at the next bucket at or above the
// actual value (rounding work up, never down).
var (
	servePromptBuckets = []int{128, 256, 512, 1024}
	serveBatchBuckets  = []int{1, 2, 4, 8, 16}
)

// ServeCost is a bucketed serving.CostModel: step times precomputed per
// prompt-length/batch-size bucket, so the serving hot loop prices steps with
// two slice scans and zero allocations.
type ServeCost struct {
	promptBuckets []int
	prefill       []units.Time
	batchBuckets  []int
	decode        []units.Time
}

// Prefill implements serving.CostModel.
func (c *ServeCost) Prefill(promptTokens int) units.Time {
	return lookupBucket(c.promptBuckets, c.prefill, promptTokens)
}

// DecodeStep implements serving.CostModel.
func (c *ServeCost) DecodeStep(batch int) units.Time {
	return lookupBucket(c.batchBuckets, c.decode, batch)
}

// lookupBucket returns the cost of the first bucket at or above v (the last
// bucket for anything larger).
func lookupBucket(buckets []int, costs []units.Time, v int) units.Time {
	for i, b := range buckets {
		if v <= b {
			return costs[i]
		}
	}
	return costs[len(costs)-1]
}

// BuildServeCost prices every bucket for one model/TP, with (t3 = true) or
// without T3's fused GEMM→RS overlap. T3 pricing runs one DES fused run per
// (sub-layer, bucket) through the memo cache, so repeated builds across QPS
// points, schemes and catalogue entries simulate each shape once.
func BuildServeCost(ev *Evaluator, m transformer.Model, tp int, t3 bool) (*ServeCost, error) {
	cost := &ServeCost{promptBuckets: servePromptBuckets, batchBuckets: serveBatchBuckets}
	for _, p := range servePromptBuckets {
		t, err := serveStepTime(ev, m, tp, transformer.PromptInference, p, t3)
		if err != nil {
			return nil, err
		}
		cost.prefill = append(cost.prefill, t)
	}
	for _, b := range serveBatchBuckets {
		t, err := serveStepTime(ev, m, tp, transformer.TokenGeneration, b, t3)
		if err != nil {
			return nil, err
		}
		cost.decode = append(cost.decode, t)
	}
	return cost, nil
}

// serveStepTime prices one step processing `tokens` tokens in the phase:
// baseline is the analytic iteration total; T3 replaces each AR sub-layer's
// GEMM+RS with the DES-measured fused time (scaled through the
// fused/sequential ratio, exactly like Figure 19 and §7.3).
func serveStepTime(ev *Evaluator, m transformer.Model, tp int, phase transformer.Phase, tokens int, t3 bool) (units.Time, error) {
	it, err := transformer.NewIterationModelTokens(m, tp, phase, ev.Setup.HW(), tokens)
	if err != nil {
		return 0, err
	}
	if !t3 {
		return it.Total(), nil
	}
	fused := map[transformer.SubLayerKind]units.Time{}
	for kind, sub := range it.Sub {
		ratio, err := serveFusedRatio(ev, m, kind, tp, tokens)
		if err != nil {
			return 0, err
		}
		fused[kind] = units.Time(float64(sub.GEMM+sub.RS) * ratio)
	}
	return it.WithSubLayerTimes(fused), nil
}

// serveFusedRatio measures fused/(GEMM+RS) for one sub-layer shape via the
// DES: the isolated producer GEMM, the analytic ring reduce-scatter, and the
// T3-MCA fused run (memoized).
func serveFusedRatio(ev *Evaluator, m transformer.Model, kind transformer.SubLayerKind, tp, tokens int) (float64, error) {
	s := ev.Setup
	sl, err := transformer.SubLayerGEMMTokens(m, kind, tp, tokens)
	if err != nil {
		return 0, err
	}
	gemm, _, err := ev.isolatedGEMM(sl, false, nil)
	if err != nil {
		return 0, err
	}
	rs, err := collective.AnalyticRingReduceScatterTime(collective.AnalyticOptions{
		Devices:           tp,
		TotalBytes:        sl.ARBytes,
		Link:              s.Link,
		MemBandwidth:      s.Memory.TotalBandwidth,
		CUs:               s.CollectiveCUs,
		PerCUMemBandwidth: s.PerCUMemBandwidth,
	})
	if err != nil {
		return 0, err
	}
	fusedRun, err := memoFusedRS(s.Memo, t3core.FusedOptions{
		GPU:         s.GPU,
		Memory:      s.Memory,
		Link:        s.Link,
		Tracker:     s.Tracker,
		Devices:     tp,
		Grid:        sl.Grid,
		Collective:  t3core.RingReduceScatter,
		Arbitration: t3core.ArbMCA,
		Check:       s.Check,
	})
	if err != nil {
		return 0, err
	}
	return float64(fusedRun.Done) / float64(gemm+rs), nil
}

// serveConfig assembles the serving.Config shared by both experiments.
func serveConfig(s Setup, qps float64, cost *ServeCost, scopeName string) serving.Config {
	var sink metrics.Sink
	if s.Metrics != nil {
		sink = s.Metrics.Scope(scopeName)
	}
	return serving.Config{
		Tenants:            serveTenantMix(),
		QPS:                qps,
		NumRequests:        serveNumRequests,
		MaxBatch:           serveMaxBatch,
		MaxPrefillsPerStep: serveMaxPrefills,
		Seed:               serveSeed,
		Cost:               cost,
		Metrics:            sink,
		Checker:            s.Check,
	}
}

// serveQPSLadder resolves the sweep ladder (Setup override or default).
func serveQPSLadder(s Setup) []float64 {
	if len(s.ServeQPS) > 0 {
		return s.ServeQPS
	}
	return serveDefaultQPS
}

// serveSLO resolves the p99 TTFT objective (Setup override or default).
func serveSLO(s Setup) units.Time {
	if s.ServeSLO > 0 {
		return s.ServeSLO
	}
	return serveDefaultSLO
}

// ServeSweepRow is one (scheme, offered QPS) operating point.
type ServeSweepRow struct {
	Scheme     string
	QPS        float64
	Throughput float64 // completed requests per simulated second
	TTFTp50    units.Time
	TTFTp99    units.Time
	TPOTp50    units.Time
	TPOTp99    units.Time
	E2Ep99     units.Time
	SLOMet     bool
}

// ServeSweepResult is the serving capacity study: throughput and latency
// percentiles across the QPS ladder, T3 overlap off vs on, and the maximum
// QPS each scheme sustains under the p99 TTFT SLO.
type ServeSweepResult struct {
	Model string
	TP    int
	SLO   units.Time
	Rows  []ServeSweepRow
	// BaselineCapacity / T3Capacity are the highest swept QPS meeting the
	// SLO (0 = none).
	BaselineCapacity float64
	T3Capacity       float64
}

// ServeSweep runs the serving capacity sweep.
func ServeSweep(ev *Evaluator) (*ServeSweepResult, error) {
	var tab *memoTable[ServeSweepResult]
	if ev.Setup.Memo != nil {
		tab = &ev.Setup.Memo.sweep
	}
	return memoExperiment(tab, ev.Setup, func() (*ServeSweepResult, error) {
		return serveSweep(ev)
	})
}

func serveSweep(ev *Evaluator) (*ServeSweepResult, error) {
	m, err := transformer.ModelByName(serveModel)
	if err != nil {
		return nil, err
	}
	s := ev.Setup
	res := &ServeSweepResult{Model: m.Name, TP: serveTP, SLO: serveSLO(s)}
	for _, scheme := range []struct {
		name string
		t3   bool
	}{{"baseline", false}, {"T3-MCA", true}} {
		cost, err := BuildServeCost(ev, m, serveTP, scheme.t3)
		if err != nil {
			return nil, err
		}
		for _, qps := range serveQPSLadder(s) {
			scope := fmt.Sprintf("serve-sweep/%s/qps-%g", scheme.name, qps)
			out, err := serving.Run(serveConfig(s, qps, cost, scope))
			if err != nil {
				return nil, err
			}
			row := ServeSweepRow{
				Scheme:     scheme.name,
				QPS:        qps,
				Throughput: out.Throughput,
				TTFTp50:    out.Overall.TTFTp50,
				TTFTp99:    out.Overall.TTFTp99,
				TPOTp50:    out.Overall.TPOTp50,
				TPOTp99:    out.Overall.TPOTp99,
				E2Ep99:     out.Overall.E2Ep99,
				SLOMet:     out.Overall.TTFTp99 <= res.SLO,
			}
			res.Rows = append(res.Rows, row)
			if row.SLOMet {
				if scheme.t3 {
					if qps > res.T3Capacity {
						res.T3Capacity = qps
					}
				} else if qps > res.BaselineCapacity {
					res.BaselineCapacity = qps
				}
			}
		}
	}
	return res, nil
}

// Render formats the sweep.
func (r *ServeSweepResult) Render() string {
	t := &Table{
		Title:  fmt.Sprintf("Serving capacity sweep: %s TP-%d, continuous batching, p99 TTFT SLO %v", r.Model, r.TP, r.SLO),
		Header: []string{"scheme", "QPS", "tput/s", "TTFT p50", "TTFT p99", "TPOT p50", "TPOT p99", "E2E p99", "SLO"},
	}
	for _, row := range r.Rows {
		slo := "miss"
		if row.SLOMet {
			slo = "ok"
		}
		t.AddRow(row.Scheme, fmt.Sprintf("%g", row.QPS), fmt.Sprintf("%.2f", row.Throughput),
			row.TTFTp50.String(), row.TTFTp99.String(),
			row.TPOTp50.String(), row.TPOTp99.String(), row.E2Ep99.String(), slo)
	}
	t.AddFooter("max QPS under SLO: baseline %g, T3-MCA %g", r.BaselineCapacity, r.T3Capacity)
	if r.BaselineCapacity > 0 && r.T3Capacity > r.BaselineCapacity {
		t.AddFooter("T3 overlap serves %.0f%% more offered load at the same p99 TTFT objective",
			100*(r.T3Capacity-r.BaselineCapacity)/r.BaselineCapacity)
	}
	return t.String()
}

// ServeTenantRow is one (scheme, tenant) latency summary at the fixed
// operating point.
type ServeTenantRow struct {
	Scheme  string
	Tenant  string
	N       int
	TTFTp50 units.Time
	TTFTp99 units.Time
	TPOTp50 units.Time
	TPOTp99 units.Time
	E2Ep50  units.Time
	E2Ep99  units.Time
}

// ServeTenantsResult is the per-tenant fairness study at one operating
// point: the same multi-tenant mix with and without T3 overlap.
type ServeTenantsResult struct {
	Model string
	TP    int
	QPS   float64
	Rows  []ServeTenantRow
}

// ServeTenants runs the per-tenant study.
func ServeTenants(ev *Evaluator) (*ServeTenantsResult, error) {
	var tab *memoTable[ServeTenantsResult]
	if ev.Setup.Memo != nil {
		tab = &ev.Setup.Memo.tenants
	}
	return memoExperiment(tab, ev.Setup, func() (*ServeTenantsResult, error) {
		return serveTenants(ev)
	})
}

func serveTenants(ev *Evaluator) (*ServeTenantsResult, error) {
	m, err := transformer.ModelByName(serveModel)
	if err != nil {
		return nil, err
	}
	s := ev.Setup
	res := &ServeTenantsResult{Model: m.Name, TP: serveTP, QPS: serveTenantsQPS}
	tenants := serveTenantMix()
	for _, scheme := range []struct {
		name string
		t3   bool
	}{{"baseline", false}, {"T3-MCA", true}} {
		cost, err := BuildServeCost(ev, m, serveTP, scheme.t3)
		if err != nil {
			return nil, err
		}
		scope := fmt.Sprintf("serve-tenants/%s", scheme.name)
		out, err := serving.Run(serveConfig(s, res.QPS, cost, scope))
		if err != nil {
			return nil, err
		}
		for i, lat := range out.PerTenant {
			res.Rows = append(res.Rows, ServeTenantRow{
				Scheme: scheme.name, Tenant: tenants[i].Name, N: lat.N,
				TTFTp50: lat.TTFTp50, TTFTp99: lat.TTFTp99,
				TPOTp50: lat.TPOTp50, TPOTp99: lat.TPOTp99,
				E2Ep50: lat.E2Ep50, E2Ep99: lat.E2Ep99,
			})
		}
	}
	return res, nil
}

// Render formats the per-tenant study.
func (r *ServeTenantsResult) Render() string {
	t := &Table{
		Title:  fmt.Sprintf("Per-tenant serving latency: %s TP-%d at %g QPS", r.Model, r.TP, r.QPS),
		Header: []string{"scheme", "tenant", "N", "TTFT p50", "TTFT p99", "TPOT p50", "TPOT p99", "E2E p50", "E2E p99"},
	}
	for _, row := range r.Rows {
		t.AddRow(row.Scheme, row.Tenant, fmt.Sprintf("%d", row.N),
			row.TTFTp50.String(), row.TTFTp99.String(),
			row.TPOTp50.String(), row.TPOTp99.String(),
			row.E2Ep50.String(), row.E2Ep99.String())
	}
	t.AddFooter("FIFO continuous batching shares one decode batch across tenants; the batch")
	t.AddFooter("tenant's longer prompts and outputs dominate its own latency, not its neighbors'")
	return t.String()
}
