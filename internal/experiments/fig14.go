package experiments

import (
	"fmt"

	"t3sim/internal/collective"
	"t3sim/internal/interconnect"
	"t3sim/internal/memory"
	"t3sim/internal/metrics"
	"t3sim/internal/sim"
	"t3sim/internal/stats"
	"t3sim/internal/units"
)

// Fig14Row is one point of the reduce-scatter validation sweep.
type Fig14Row struct {
	Bytes units.Bytes
	// Simulated is the discrete-event multi-GPU simulation.
	Simulated units.Time
	// Reference is the independent analytic cost model, standing in for the
	// paper's 4×MI210 hardware measurements.
	Reference units.Time
	RelError  float64
}

// Fig14Result is the Figure 13/14 reproduction: the multi-GPU reduce-scatter
// simulation validated against an independent reference across 6–192 MB.
type Fig14Result struct {
	Devices    int
	Rows       []Fig14Row
	GeomeanErr float64
}

// Fig14 validates the timed ring reduce-scatter on 4 devices against the
// analytic reference across the paper's 6–192 MB range.
func Fig14(setup Setup) (*Fig14Result, error) {
	if err := setup.Validate(); err != nil {
		return nil, err
	}
	var tab *memoTable[Fig14Result]
	if setup.Memo != nil {
		tab = &setup.Memo.fig14
	}
	return memoExperiment(tab, setup, func() (*Fig14Result, error) {
		return fig14(setup)
	})
}

func fig14(setup Setup) (*Fig14Result, error) {
	const devices = 4
	res := &Fig14Result{Devices: devices}
	var sims, refs []float64
	for _, mib := range []int64{6, 12, 24, 48, 96, 192} {
		size := units.Bytes(mib) * units.MiB
		simT, err := runTimedRS(setup, devices, size)
		if err != nil {
			return nil, err
		}
		ref, err := collective.AnalyticRingReduceScatterTime(collective.AnalyticOptions{
			Devices:           devices,
			TotalBytes:        size,
			Link:              setup.Link,
			MemBandwidth:      setup.Memory.TotalBandwidth,
			CUs:               setup.CollectiveCUs,
			PerCUMemBandwidth: setup.PerCUMemBandwidth,
		})
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, Fig14Row{
			Bytes:     size,
			Simulated: simT,
			Reference: ref,
			RelError:  stats.RelError(float64(simT), float64(ref)),
		})
		sims = append(sims, float64(simT))
		refs = append(refs, float64(ref))
	}
	g, err := stats.GeomeanRelError(sims, refs)
	if err != nil {
		return nil, err
	}
	res.GeomeanErr = g
	return res, nil
}

// runTimedRS runs one timed multi-GPU reduce-scatter to completion.
func runTimedRS(setup Setup, devices int, size units.Bytes) (units.Time, error) {
	eng := sim.NewEngine()
	eng.AttachChecker(setup.Check)
	// One scope per sweep point keeps the N memory systems' counters and the
	// collective track distinct across sizes.
	var sink metrics.Sink
	if m := setup.Metrics; m != nil {
		sink = m.Scope(fmt.Sprintf("fig14/rs-%s", size))
	}
	topo, err := interconnect.RingTopo(devices, setup.Link).Build(eng)
	if err != nil {
		return 0, err
	}
	if sink != nil {
		topo.AttachMetrics(sink)
	}
	devs := make([]*collective.Device, devices)
	for i := range devs {
		memCfg := setup.Memory
		if sink != nil {
			memCfg.Metrics = sink.Scope(fmt.Sprintf("dev%d", i))
		}
		memCfg.Check = setup.Check
		mc, err := memory.NewController(eng, memCfg, memory.ComputeFirst{})
		if err != nil {
			return 0, err
		}
		devs[i] = &collective.Device{ID: i, Mem: mc}
	}
	var done units.Time
	err = collective.StartTopoCollective(eng, collective.AlgoRing, collective.ReduceScatterOp, collective.TopoOptions{
		Topo:              topo,
		Devices:           devs,
		TotalBytes:        size,
		BlockBytes:        setup.BlockBytes,
		CUs:               setup.CollectiveCUs,
		PerCUMemBandwidth: setup.PerCUMemBandwidth,
		Stream:            memory.StreamComm,
		Metrics:           sink,
		Check:             setup.Check,
	}, func() { done = eng.Now() })
	if err != nil {
		return 0, err
	}
	eng.Run()
	if done == 0 {
		return 0, fmt.Errorf("experiments: reduce-scatter never completed")
	}
	return done, nil
}

// Render formats the validation like the paper's scatter plot.
func (r *Fig14Result) Render() string {
	t := &Table{
		Title:  fmt.Sprintf("Figure 14: %d-GPU reduce-scatter simulation validation", r.Devices),
		Header: []string{"size", "simulated", "reference", "error"},
	}
	for _, row := range r.Rows {
		t.AddRow(row.Bytes.String(), row.Simulated.String(), row.Reference.String(),
			fmt.Sprintf("%.1f%%", 100*row.RelError))
	}
	t.AddFooter("geomean error = %.1f%% (paper: 6%% vs 4xMI210 hardware)", 100*r.GeomeanErr)
	return t.String()
}
