package experiments

import (
	"fmt"

	"t3sim/internal/collective"
	"t3sim/internal/gemm"
	"t3sim/internal/interconnect"
	"t3sim/internal/memory"
	"t3sim/internal/metrics"
	"t3sim/internal/sim"
	"t3sim/internal/t3core"
	"t3sim/internal/units"
)

// The topology sweep (ROADMAP item 1): the same collective schedules and the
// same tracker-triggered fused datapath, run over interconnect graphs other
// than the Table 1 ring. Three questions, three sections:
//
//  1. which collective algorithm does the size/topology policy (Tessera
//     §3.1 style, realized as an analytic argmin) pick where;
//  2. does the timed graph DES agree with the analytic envelope on every
//     (topology × algorithm) all-reduce cell;
//  3. does tracker-triggered overlap still win when the fused
//     GEMM→reduce-scatter's neighbor sends are routed over a torus, a
//     switch, or a two-level hierarchy instead of the ring.

// interNodeLink derives the hierarchy's inter-node link from the intra-node
// base: a third of the bandwidth, four times the latency.
func interNodeLink(link interconnect.Config) interconnect.Config {
	inter := link
	inter.LinkBandwidth = link.LinkBandwidth / 3
	inter.LinkLatency = 4 * link.LinkLatency
	if inter.LinkLatency == 0 {
		inter.LinkLatency = link.LinkLatency
	}
	return inter
}

// TopoSpecFor builds the named topology family over n devices from the base
// link: ring | torus | switch | hier. The torus uses the squarest
// factorization of n; the hierarchy splits the devices into two nodes with
// interNodeLink leader links.
func TopoSpecFor(kind string, n int, link interconnect.Config) (interconnect.TopoSpec, error) {
	switch kind {
	case "ring":
		return interconnect.RingTopo(n, link), nil
	case "torus":
		rows := 0
		for r := 2; r*r <= n; r++ {
			if n%r == 0 {
				rows = r
			}
		}
		if rows == 0 {
			return interconnect.TopoSpec{}, fmt.Errorf("experiments: no 2D torus over %d devices (need a composite count)", n)
		}
		return interconnect.TorusTopo(rows, n/rows, link), nil
	case "switch":
		return interconnect.SwitchTopo(n, link), nil
	case "hier":
		if n < 4 || n%2 != 0 {
			return interconnect.TopoSpec{}, fmt.Errorf("experiments: hierarchical topology needs an even device count >= 4, got %d", n)
		}
		return interconnect.HierarchicalTopo(2, n/2, link, interNodeLink(link)), nil
	default:
		return interconnect.TopoSpec{}, fmt.Errorf("experiments: unknown topology %q (ring|torus|switch|hier)", kind)
	}
}

// DefaultTopoSpecs is the sweep's topology ladder at the Table 1 TP degree:
// an 8-ring, a 2x4 torus, an 8-way switch, and a 2x4 hierarchy.
func DefaultTopoSpecs(link interconnect.Config) []interconnect.TopoSpec {
	var out []interconnect.TopoSpec
	for _, kind := range []string{"ring", "torus", "switch", "hier"} {
		spec, err := TopoSpecFor(kind, 8, link)
		if err != nil {
			panic(err) // unreachable: 8 devices fit every family
		}
		out = append(out, spec)
	}
	return out
}

// topoName renders a spec as the sweep labels it, e.g. "torus-2x4".
func topoName(spec interconnect.TopoSpec) string {
	switch spec.Kind {
	case interconnect.TopoTorus:
		return fmt.Sprintf("%v-%dx%d", spec.Kind, spec.Rows, spec.Cols)
	case interconnect.TopoHierarchical:
		return fmt.Sprintf("%v-%dx%d", spec.Kind, spec.Nodes, spec.PerNode)
	default:
		return fmt.Sprintf("%v-%d", spec.Kind, spec.Devices)
	}
}

// TopoSelectRow is one (topology, message size, candidate algorithm) cell of
// the auto-selection table.
type TopoSelectRow struct {
	Topo string
	Size units.Bytes
	Algo string
	// Predicted is the analytic all-reduce time (the selection metric).
	Predicted units.Time
	// Selected marks the argmin row SelectAlgorithm picks.
	Selected bool
}

// TopoTimedRow is one (topology, algorithm) all-reduce cell of the DES
// cross-check.
type TopoTimedRow struct {
	Topo string
	Algo string
	// DES is the timed graph engine's completion.
	DES units.Time
	// AnalyticLo / AnalyticHi bracket the DES (work-conserving lower bound,
	// store-and-forward upper bound).
	AnalyticLo, AnalyticHi units.Time
	// Selected marks the algorithm the policy picks at this size.
	Selected bool
}

// TopoFusedRow is one topology's explicit multi-device fused
// GEMM→reduce-scatter run.
type TopoFusedRow struct {
	Topo string
	// GEMMDone is the latest producer completion; Done the latest device's
	// collective completion.
	GEMMDone, Done units.Time
	// Serial is the unoverlapped reference: the GEMM followed by a
	// standalone timed ring reduce-scatter on the same topology.
	Serial units.Time
	// Speedup is Serial / Done — > 1 means the fused overlap still wins.
	Speedup float64
	// Skew is the cross-device completion spread.
	Skew units.Time
	// LinkBytes counts every traversed link once (transit hops included).
	LinkBytes units.Bytes
	// TrackerMaxLive is the largest per-device tracker high-water mark.
	TrackerMaxLive int
}

// TopoSweepResult bundles the three sections.
type TopoSweepResult struct {
	Selection []TopoSelectRow
	Timed     []TopoTimedRow
	Fused     []TopoFusedRow
}

// topoSweepSizes is the auto-selection ladder: latency-bound to
// bandwidth-bound.
var topoSweepSizes = []units.Bytes{64 * units.KiB, 1 * units.MiB, 16 * units.MiB, 256 * units.MiB}

// topoTimedSize is the DES cross-check's all-reduce size.
const topoTimedSize = 8 * units.MiB

// topoAnalytic builds the analytic options for one message size on the
// sweep's machine.
func topoAnalytic(setup Setup, size units.Bytes, nmc bool) collective.AnalyticOptions {
	return collective.AnalyticOptions{
		TotalBytes:        size,
		MemBandwidth:      setup.Memory.TotalBandwidth,
		CUs:               setup.CollectiveCUs,
		PerCUMemBandwidth: setup.PerCUMemBandwidth,
		NMC:               nmc,
	}
}

// timedTopoCollective runs one timed graph collective to completion on a
// single shared engine.
func timedTopoCollective(setup Setup, spec interconnect.TopoSpec, algo collective.Algorithm,
	op collective.Op, size units.Bytes, nmc bool, sink metrics.Sink) (units.Time, error) {
	eng := sim.NewEngine()
	eng.AttachChecker(setup.Check)
	topo, err := spec.Build(eng)
	if err != nil {
		return 0, err
	}
	topo.AttachChecker(setup.Check)
	memCfg := setup.Memory
	if setup.Check != nil && memCfg.Check == nil {
		memCfg.Check = setup.Check
	}
	devs := make([]*collective.Device, spec.Devices)
	for i := range devs {
		mc, err := memory.NewController(eng, memCfg, memory.ComputeFirst{})
		if err != nil {
			return 0, err
		}
		devs[i] = &collective.Device{ID: i, Mem: mc}
	}
	opts := collective.TopoOptions{
		Topo:              topo,
		Devices:           devs,
		TotalBytes:        size,
		BlockBytes:        setup.BlockBytes,
		CUs:               setup.CollectiveCUs,
		PerCUMemBandwidth: setup.PerCUMemBandwidth,
		NMC:               nmc,
		Stream:            memory.StreamComm,
		Metrics:           sink,
		Check:             setup.Check,
	}
	var done units.Time
	if err := collective.StartTopoCollective(eng, algo, op, opts, func() { done = eng.Now() }); err != nil {
		return 0, err
	}
	eng.Run()
	return done, nil
}

// TopoSweep runs the topology sweep. A non-zero setup.Topo restricts every
// section to that single graph; the default sweeps DefaultTopoSpecs.
func TopoSweep(setup Setup) (*TopoSweepResult, error) {
	if err := setup.Validate(); err != nil {
		return nil, err
	}
	var tab *memoTable[TopoSweepResult]
	if setup.Memo != nil {
		tab = &setup.Memo.topo
	}
	return memoExperiment(tab, setup, func() (*TopoSweepResult, error) {
		return topoSweep(setup)
	})
}

func topoSweep(setup Setup) (*TopoSweepResult, error) {
	specs := DefaultTopoSpecs(setup.Link)
	if !setup.Topo.IsZero() {
		specs = []interconnect.TopoSpec{setup.Topo}
	}
	res := &TopoSweepResult{}

	// Section 1: algorithm auto-selection across the size ladder.
	for _, spec := range specs {
		for _, size := range topoSweepSizes {
			o := topoAnalytic(setup, size, false)
			chosen, err := collective.SelectAlgorithmWith(collective.AllReduceOp, spec, o)
			if err != nil {
				return nil, err
			}
			for _, algo := range collective.CandidateAlgorithms(spec) {
				t, err := collective.AnalyticTopoAllReduceTime(algo, spec, o)
				if err != nil {
					return nil, err
				}
				res.Selection = append(res.Selection, TopoSelectRow{
					Topo: topoName(spec), Size: size, Algo: algo.String(),
					Predicted: t, Selected: algo == chosen,
				})
			}
		}
	}

	// Section 2: timed DES vs the analytic envelope at one mid size.
	for _, spec := range specs {
		o := topoAnalytic(setup, topoTimedSize, false)
		chosen, err := collective.SelectAlgorithmWith(collective.AllReduceOp, spec, o)
		if err != nil {
			return nil, err
		}
		for _, algo := range collective.CandidateAlgorithms(spec) {
			var sink metrics.Sink
			if setup.Metrics != nil {
				sink = setup.Metrics.Scope(fmt.Sprintf("topo-sweep/%s-%s", topoName(spec), algo))
			}
			des, err := timedTopoCollective(setup, spec, algo, collective.AllReduceOp,
				topoTimedSize, false, sink)
			if err != nil {
				return nil, err
			}
			lo, hi, err := collective.AnalyticTopoTimeBounds(algo, collective.AllReduceOp, spec, o)
			if err != nil {
				return nil, err
			}
			res.Timed = append(res.Timed, TopoTimedRow{
				Topo: topoName(spec), Algo: algo.String(),
				DES: des, AnalyticLo: lo, AnalyticHi: hi, Selected: algo == chosen,
			})
		}
	}

	// Section 3: the fused GEMM→reduce-scatter, explicitly multi-device,
	// with its neighbor sends routed over each graph.
	grid, err := topoSweepGrid()
	if err != nil {
		return nil, err
	}
	for _, spec := range specs {
		opts := t3core.FusedOptions{
			GPU:         setup.GPU,
			Memory:      setup.Memory,
			Link:        spec.Link,
			Topo:        spec,
			Tracker:     setup.Tracker,
			Devices:     spec.Devices,
			Grid:        grid,
			Collective:  t3core.RingReduceScatter,
			Arbitration: t3core.ArbMCA,
			Check:       setup.Check,
			ParWorkers:  setup.MultiDeviceWorkers,
		}
		if setup.Metrics != nil {
			opts.Metrics = setup.Metrics.Scope("topo-sweep/fused-" + topoName(spec))
		}
		multi, err := t3core.RunFusedGEMMRSMultiDevice(opts)
		if err != nil {
			return nil, err
		}
		gemmDone := maxTimes(multi.GEMMDone)
		// Unoverlapped reference: the producer, then a standalone timed ring
		// reduce-scatter of the whole output over the same graph (NMC
		// updates, like the fused datapath applies).
		rs, err := timedTopoCollective(setup, spec, collective.AlgoRing, collective.ReduceScatterOp,
			grid.Shape.OutputBytes(), true, nil)
		if err != nil {
			return nil, err
		}
		serial := gemmDone + rs
		res.Fused = append(res.Fused, TopoFusedRow{
			Topo:           topoName(spec),
			GEMMDone:       gemmDone,
			Done:           multi.Done,
			Serial:         serial,
			Speedup:        float64(serial) / float64(multi.Done),
			Skew:           multi.Skew(),
			LinkBytes:      multi.LinkBytes,
			TrackerMaxLive: multi.TrackerMaxLive,
		})
	}
	return res, nil
}

// topoSweepGrid is the fused section's producer: a 2048x2048 FP16 output
// with the sliced K of a TP-8 sub-layer, small enough that four explicit
// 8-device runs stay quick.
func topoSweepGrid() (gemm.Grid, error) {
	return gemm.NewGrid(gemm.Shape{M: 2048, N: 2048, K: 512, ElemBytes: 2}, gemm.DefaultTiling())
}

// maxTimes returns the latest completion in ts.
func maxTimes(ts []units.Time) units.Time {
	var m units.Time
	for _, t := range ts {
		if t > m {
			m = t
		}
	}
	return m
}

// Render formats the sweep the way EXPERIMENTS.md reports it.
func (r *TopoSweepResult) Render() string {
	sel := &Table{
		Title:  "Topology sweep: collective algorithm auto-selection (analytic argmin, all-reduce)",
		Header: []string{"topology", "size", "algorithm", "predicted", "selected"},
	}
	for _, row := range r.Selection {
		mark := ""
		if row.Selected {
			mark = "*"
		}
		sel.AddRow(row.Topo, row.Size.String(), row.Algo, row.Predicted.String(), mark)
	}
	timed := &Table{
		Title:  fmt.Sprintf("Timed graph DES vs analytic envelope (%v all-reduce)", topoTimedSize),
		Header: []string{"topology", "algorithm", "DES", "analytic lo", "analytic hi", "selected"},
	}
	for _, row := range r.Timed {
		mark := ""
		if row.Selected {
			mark = "*"
		}
		timed.AddRow(row.Topo, row.Algo, row.DES.String(),
			row.AnalyticLo.String(), row.AnalyticHi.String(), mark)
	}
	fused := &Table{
		Title:  "Fused GEMM→reduce-scatter, explicit multi-device, ring schedule routed over each graph",
		Header: []string{"topology", "gemm", "done", "serial ref", "speedup", "skew", "link MiB", "tracker high-water"},
	}
	for _, row := range r.Fused {
		fused.AddRow(row.Topo, row.GEMMDone.String(), row.Done.String(), row.Serial.String(),
			fmt.Sprintf("%.2fx", row.Speedup), row.Skew.String(),
			fmt.Sprintf("%.1f", row.LinkBytes.MiBf()), fmt.Sprintf("%d", row.TrackerMaxLive))
	}
	fused.AddFooter("speedup = (gemm + standalone ring reduce-scatter on the same graph) / fused done; > 1.00x means tracker-triggered overlap still wins off-ring")
	return sel.String() + "\n" + timed.String() + "\n" + fused.String()
}
