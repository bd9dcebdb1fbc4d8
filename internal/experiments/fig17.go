package experiments

import (
	"fmt"

	"t3sim/internal/gpu"
	"t3sim/internal/memory"
	"t3sim/internal/metrics"
	"t3sim/internal/sim"
	"t3sim/internal/t3core"
	"t3sim/internal/transformer"
	"t3sim/internal/units"
)

// Sample is one time bucket of DRAM traffic, split the way Figure 17 plots
// it: producer (compute-stream) reads and writes versus communication
// (comm-stream) reads and updates.
type Sample struct {
	Start units.Time
	// ComputeRead/ComputeWrite are the producer kernel's bytes (GEMM reads,
	// GEMM writes or NMC updates).
	ComputeRead  units.Bytes
	ComputeWrite units.Bytes
	// CommRead is collective/DMA read traffic; CommWrite is incoming
	// staging/update traffic.
	CommRead  units.Bytes
	CommWrite units.Bytes
}

// Total returns all bytes in the bucket.
func (s Sample) Total() units.Bytes {
	return s.ComputeRead + s.ComputeWrite + s.CommRead + s.CommWrite
}

// Fig17Result is the Figure 17 reproduction: DRAM traffic timelines of the
// isolated baseline GEMM versus the fused T3 run, for T-NLG FC-2 at TP=8.
type Fig17Result struct {
	Case     SubCase
	Bucket   units.Time
	Baseline []Sample
	T3       []Sample
	// PeakBaseline/PeakT3 are the busiest buckets (the write bursts).
	PeakBaseline Sample
	PeakT3       Sample
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
	res := &Fig17Result{Case: c, Bucket: memory.TraceBucket}

	// The timelines are the memory controllers' issue-time traffic series,
	// so both runs record into a sink: the caller's, where the series ride
	// along in a -metrics export and the runs appear as separate Perfetto
	// processes, or else a private one with the timeline off.
	sink := setup.Metrics
	if sink == nil {
		sink = metrics.NewRegistry()
	}
	baseSink := sink.Scope("fig17/baseline")
	t3Sink := sink.Scope("fig17/t3")

	// Baseline: isolated GEMM with plain local writes.
	eng := sim.NewEngine()
	memCfg := setup.Memory
	memCfg.Metrics = baseSink
	mc, err := memory.NewController(eng, memCfg, memory.ComputeFirst{})
	if err != nil {
		return nil, err
	}
	k := &gpu.GEMMKernel{Eng: eng, Mem: mc, GPU: setup.GPU, Grid: sl.Grid, Metrics: baseSink}
	if err := k.Start(nil); err != nil {
		return nil, err
	}
	eng.Run()
	res.Baseline, res.PeakBaseline = samples(baseSink)

	// T3: fused GEMM-RS with the overlapped communication traffic.
	memCfg = setup.Memory
	memCfg.Metrics = t3Sink
	_, err = t3core.RunFusedGEMMRS(t3core.FusedOptions{
		GPU:         setup.GPU,
		Memory:      memCfg,
		Link:        setup.Link,
		Tracker:     setup.Tracker,
		Devices:     c.TP,
		Grid:        sl.Grid,
		Collective:  t3core.RingReduceScatter,
		Arbitration: t3core.ArbRoundRobin,
		Metrics:     t3Sink,
		Check:       setup.Check,
	})
	if err != nil {
		return nil, err
	}
	res.T3, res.PeakT3 = samples(t3Sink)
	return res, nil
}

// samples reads one run's timeline back from the four issue-time series its
// memory controller kept on sink, zero-filled to the longest series, and
// returns it with its busiest bucket (the zero Sample if the run issued
// nothing).
func samples(sink metrics.Sink) ([]Sample, Sample) {
	series := func(k memory.AccessKind, s memory.Stream) *metrics.TimeSeries {
		return sink.Series(memory.TraceSeriesName(k, s), memory.TraceBucket)
	}
	cRead := series(memory.Read, memory.StreamCompute)
	cWrite := series(memory.Write, memory.StreamCompute)
	xRead := series(memory.Read, memory.StreamComm)
	xWrite := series(memory.Write, memory.StreamComm)
	n := max(cRead.Len(), cWrite.Len(), xRead.Len(), xWrite.Len())
	if n == 0 {
		return nil, Sample{}
	}
	out := make([]Sample, n)
	var peak Sample
	for i := range out {
		out[i] = Sample{
			Start:        units.Time(i) * memory.TraceBucket,
			ComputeRead:  units.Bytes(cRead.BucketValue(i)),
			ComputeWrite: units.Bytes(cWrite.BucketValue(i)),
			CommRead:     units.Bytes(xRead.BucketValue(i)),
			CommWrite:    units.Bytes(xWrite.BucketValue(i)),
		}
		if out[i].Total() > peak.Total() {
			peak = out[i]
		}
	}
	return out, peak
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
		var b, x Sample
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
