package experiments

import (
	"fmt"

	"t3sim/internal/gemm"
	"t3sim/internal/interconnect"
	"t3sim/internal/sim"
	"t3sim/internal/t3core"
	"t3sim/internal/units"
)

// multi256Devices is the device count of the 256-device scale experiment:
// the regime where a global round barrier would spend more time
// coordinating than simulating, so per-device horizons have to carry the
// run.
const multi256Devices = 256

// multi256Grid returns the producer GEMM of the 256-device run: the same
// 1024-tile grid as multi64, now four tiles per device chunk — per-device
// work shrinks while the coordination graph grows 4–250× (ring vs
// hierarchy), which is exactly the stress the cluster coordinator needs.
func multi256Grid() (gemm.Grid, error) {
	return gemm.NewGrid(gemm.Shape{M: 2048, N: 2048, K: 512, ElemBytes: 2}, gemm.DefaultTiling())
}

// Multi256Specs returns the topology ladder of the 256-device run: the
// bidirectional ring, a 16x16 torus, and a 4-node hierarchy of 64-device
// full-mesh nodes joined by 3x-slower leader links.
func Multi256Specs(link interconnect.Config) []interconnect.TopoSpec {
	return []interconnect.TopoSpec{
		interconnect.RingTopo(multi256Devices, link),
		interconnect.TorusTopo(16, 16, link),
		interconnect.HierarchicalTopo(4, 64, link, interNodeLink(link)),
	}
}

// Multi256Row is one topology variant of the 256-device explicit run. Like
// Multi64Result, every field is a pure function of the model — identical at
// every worker count — so the golden snapshot pins byte-identity of the
// cluster coordinator at scale. There is no mirror cross-check: the
// single-GPU mirror methodology is ring-only.
type Multi256Row struct {
	Topo string

	GEMMFirst, GEMMLast             units.Time
	CollectiveFirst, CollectiveLast units.Time
	Done                            units.Time
	Skew                            units.Time

	LinkBytes      units.Bytes
	DRAMBytes      units.Bytes
	TrackerMaxLive int

	// Cluster is the coordinator's work count for the run. It is not
	// rendered; it is carried so that comparing two results compares it.
	Cluster sim.ClusterStats
}

// Multi256Result is the 256-device explicit fused GEMM→reduce-scatter run
// across the topology ladder.
type Multi256Result struct {
	Devices int
	Grid    gemm.Grid
	Rows    []Multi256Row
}

// Multi256 runs the 256-device explicit simulation over every topology
// variant, honouring the setup's MultiDeviceWorkers.
func Multi256(setup Setup) (*Multi256Result, error) {
	if err := setup.Validate(); err != nil {
		return nil, err
	}
	grid, err := multi256Grid()
	if err != nil {
		return nil, err
	}
	res := &Multi256Result{Devices: multi256Devices, Grid: grid}
	for _, spec := range Multi256Specs(setup.Link) {
		opts := t3core.FusedOptions{
			GPU:         setup.GPU,
			Memory:      setup.Memory,
			Link:        spec.Link,
			Topo:        spec,
			Tracker:     setup.Tracker,
			Devices:     spec.Devices,
			Grid:        grid,
			Collective:  t3core.RingReduceScatter,
			Arbitration: t3core.ArbRoundRobin,
			Check:       setup.Check,
			ParWorkers:  setup.MultiDeviceWorkers,
		}
		if setup.Metrics != nil {
			opts.Metrics = setup.Metrics.Scope("multi256/" + topoName(spec))
		}
		multi, err := memoFusedMulti(setup.Memo, opts)
		if err != nil {
			return nil, fmt.Errorf("multi256 %s: %w", topoName(spec), err)
		}
		row := Multi256Row{
			Topo:           topoName(spec),
			Done:           multi.Done,
			Skew:           multi.Skew(),
			LinkBytes:      multi.LinkBytes,
			DRAMBytes:      multi.DRAM.TotalBytes(),
			TrackerMaxLive: multi.TrackerMaxLive,
			Cluster:        multi.Cluster,
		}
		row.GEMMFirst, row.GEMMLast = timeSpread(multi.GEMMDone)
		row.CollectiveFirst, row.CollectiveLast = timeSpread(multi.CollectiveDone)
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// Render formats the 256-device scale run.
func (r *Multi256Result) Render() string {
	t := &Table{
		Title: fmt.Sprintf("256-device explicit fused GEMM+reduce-scatter (M=%d N=%d K=%d fp16; ROADMAP item 3)",
			r.Grid.Shape.M, r.Grid.Shape.N, r.Grid.Shape.K),
		Header: []string{"topo", "gemm first/last", "collective first/last", "done", "skew", "link traffic", "DRAM traffic", "tracker max live"},
	}
	for _, row := range r.Rows {
		t.AddRow(row.Topo,
			fmt.Sprintf("%v / %v", row.GEMMFirst, row.GEMMLast),
			fmt.Sprintf("%v / %v", row.CollectiveFirst, row.CollectiveLast),
			row.Done.String(),
			row.Skew.String(),
			row.LinkBytes.String(),
			row.DRAMBytes.String(),
			fmt.Sprintf("%d", row.TrackerMaxLive))
	}
	t.AddFooter("explicit 256-device runs; results are byte-identical at every -par worker count")
	return t.String()
}
