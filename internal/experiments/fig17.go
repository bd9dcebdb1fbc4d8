package experiments

import (
	"fmt"

	"t3sim/internal/gpu"
	"t3sim/internal/memory"
	"t3sim/internal/metrics"
	"t3sim/internal/sim"
	"t3sim/internal/t3core"
	"t3sim/internal/trace"
	"t3sim/internal/transformer"
	"t3sim/internal/units"
)

// Fig17Result is the Figure 17 reproduction: DRAM traffic timelines of the
// isolated baseline GEMM versus the fused T3 run, for T-NLG FC-2 at TP=8.
type Fig17Result struct {
	Case     SubCase
	Bucket   units.Time
	Baseline []trace.Sample
	T3       []trace.Sample
	// PeakBaseline/PeakT3 are the busiest buckets (the write bursts).
	PeakBaseline trace.Sample
	PeakT3       trace.Sample
}

// Fig17 captures the two timelines.
func Fig17(setup Setup) (*Fig17Result, error) {
	if err := setup.Validate(); err != nil {
		return nil, err
	}
	var tab *memoTable[Fig17Result]
	if setup.Memo != nil {
		tab = &setup.Memo.fig17
	}
	return memoExperiment(tab, setup, func() (*Fig17Result, error) {
		return fig17(setup)
	})
}

func fig17(setup Setup) (*Fig17Result, error) {
	m, err := transformer.ModelByName("T-NLG")
	if err != nil {
		return nil, err
	}
	c := SubCase{Model: m, Kind: transformer.FC2, TP: 8}
	sl, err := transformer.SubLayerGEMM(c.Model, c.Kind, c.TP)
	if err != nil {
		return nil, err
	}
	bucket := 20 * units.Microsecond
	res := &Fig17Result{Case: c, Bucket: bucket}

	// Both runs get their own metrics scope (nil sinks pass through), so the
	// Figure 17 trace series ride along in a -metrics export and the runs
	// appear as separate Perfetto processes.
	var baseSink, t3Sink metrics.Sink
	if m := setup.Metrics; m != nil {
		baseSink = m.Scope("fig17/baseline")
		t3Sink = m.Scope("fig17/t3")
	}

	// Baseline: isolated GEMM with plain local writes.
	baseTrace, err := trace.NewRegistered(baseSink, bucket)
	if err != nil {
		return nil, err
	}
	eng := sim.NewEngine()
	memCfg := setup.Memory
	memCfg.Metrics = baseSink
	mc, err := memory.NewController(eng, memCfg, memory.ComputeFirst{})
	if err != nil {
		return nil, err
	}
	mc.SetObserver(baseTrace)
	k := &gpu.GEMMKernel{Eng: eng, Mem: mc, GPU: setup.GPU, Grid: sl.Grid, Metrics: baseSink}
	if err := k.Start(nil); err != nil {
		return nil, err
	}
	eng.Run()
	res.Baseline = baseTrace.Samples()
	res.PeakBaseline = baseTrace.PeakBucket()

	// T3: fused GEMM-RS with the overlapped communication traffic.
	t3Trace, err := trace.NewRegistered(t3Sink, bucket)
	if err != nil {
		return nil, err
	}
	_, err = t3core.RunFusedGEMMRS(t3core.FusedOptions{
		GPU:         setup.GPU,
		Memory:      setup.Memory,
		Link:        setup.Link,
		Tracker:     setup.Tracker,
		Devices:     c.TP,
		Grid:        sl.Grid,
		Collective:  t3core.RingReduceScatter,
		Arbitration: t3core.ArbRoundRobin,
		Observer:    t3Trace,
		Metrics:     t3Sink,
		Check:       setup.Check,
	})
	if err != nil {
		return nil, err
	}
	res.T3 = t3Trace.Samples()
	res.PeakT3 = t3Trace.PeakBucket()
	return res, nil
}

// Render prints the two timelines side by side (bytes per bucket).
func (r *Fig17Result) Render() string {
	t := &Table{
		Title: fmt.Sprintf("Figure 17: DRAM traffic over time, %s (bucket %v)", r.Case, r.Bucket),
		Header: []string{"t", "base rd", "base wr", "t3 rd", "t3 wr/upd",
			"t3 comm rd", "t3 comm upd"},
	}
	n := len(r.Baseline)
	if len(r.T3) > n {
		n = len(r.T3)
	}
	step := 1
	if n > 40 {
		step = n / 40 // keep the rendering compact
	}
	for i := 0; i < n; i += step {
		var b, x trace.Sample
		if i < len(r.Baseline) {
			b = r.Baseline[i]
		}
		if i < len(r.T3) {
			x = r.T3[i]
		}
		t.AddRow(
			(units.Time(i) * r.Bucket).String(),
			b.ComputeRead.String(), b.ComputeWrite.String(),
			x.ComputeRead.String(), x.ComputeWrite.String(),
			x.CommRead.String(), x.CommWrite.String(),
		)
	}
	t.AddFooter("baseline shape: per-stage read phases followed by bursty write phases")
	t.AddFooter("T3 shape: the same stage pattern plus overlapped RS reads and NMC updates")
	return t.String()
}
