package experiments

import (
	"fmt"

	"t3sim/internal/gemm"
	"t3sim/internal/stats"
	"t3sim/internal/t3core"
	"t3sim/internal/units"
)

// multi64Devices is the device count of the scale experiment: the Fig-20
// regime ROADMAP item 3 asks for, far beyond the 2–16 devices the mirror
// validation sweeps.
const multi64Devices = 64

// multi64Grid returns the producer GEMM of the 64-device run: 1024 wavefront
// tiles, sixteen per device chunk — a real ring workload at scale, yet small
// enough that the explicit run stays affordable in the golden suite even
// fully sequential.
func multi64Grid() (gemm.Grid, error) {
	return gemm.NewGrid(gemm.Shape{M: 2048, N: 2048, K: 512, ElemBytes: 2}, gemm.DefaultTiling())
}

// Multi64Result is the 64-device explicit fused GEMM→reduce-scatter run.
// Every reported number is a pure function of the model — identical at every
// worker count — so the golden snapshot pins byte-identity of the parallel
// scheduler at scale. Scheduler-side windowing statistics deliberately do not
// appear here; the benchmark harness reports them instead.
type Multi64Result struct {
	Devices int
	Grid    gemm.Grid

	// GEMM and collective completion spreads across the 64 devices.
	GEMMFirst, GEMMLast             units.Time
	CollectiveFirst, CollectiveLast units.Time
	Done                            units.Time
	Skew                            units.Time

	// Mirror methodology cross-check at scale.
	Mirror   units.Time
	RelError float64

	LinkBytes      units.Bytes
	DRAMBytes      units.Bytes
	TrackerMaxLive int
}

// Multi64 runs the 64-device explicit simulation (honouring the setup's
// MultiDeviceWorkers) and the single-GPU mirror of the same configuration,
// validating the §5.1.1 methodology in the Fig-20 scale regime.
func Multi64(setup Setup) (*Multi64Result, error) {
	if err := setup.Validate(); err != nil {
		return nil, err
	}
	grid, err := multi64Grid()
	if err != nil {
		return nil, err
	}
	opts := t3core.FusedOptions{
		GPU:         setup.GPU,
		Memory:      setup.Memory,
		Link:        setup.Link,
		Tracker:     setup.Tracker,
		Devices:     multi64Devices,
		Grid:        grid,
		Collective:  t3core.RingReduceScatter,
		Arbitration: t3core.ArbRoundRobin,
		Check:       setup.Check,
	}
	mirror, err := memoFusedRS(setup.Memo, opts)
	if err != nil {
		return nil, err
	}
	opts.ParWorkers = setup.MultiDeviceWorkers
	if setup.Metrics != nil {
		opts.Metrics = setup.Metrics.Scope("multi64")
	}
	multi, err := memoFusedMulti(setup.Memo, opts)
	if err != nil {
		return nil, err
	}
	res := &Multi64Result{
		Devices:        multi64Devices,
		Grid:           grid,
		Done:           multi.Done,
		Skew:           multi.Skew(),
		Mirror:         mirror.CollectiveDone,
		RelError:       stats.RelError(float64(mirror.CollectiveDone), float64(multi.Done)),
		LinkBytes:      multi.LinkBytes,
		DRAMBytes:      multi.DRAM.TotalBytes(),
		TrackerMaxLive: multi.TrackerMaxLive,
	}
	res.GEMMFirst, res.GEMMLast = timeSpread(multi.GEMMDone)
	res.CollectiveFirst, res.CollectiveLast = timeSpread(multi.CollectiveDone)
	return res, nil
}

// timeSpread returns the earliest and latest entry of a completion vector.
func timeSpread(ts []units.Time) (lo, hi units.Time) {
	if len(ts) == 0 {
		return 0, 0
	}
	lo, hi = ts[0], ts[0]
	for _, t := range ts[1:] {
		if t < lo {
			lo = t
		}
		if t > hi {
			hi = t
		}
	}
	return lo, hi
}

// Render formats the scale run.
func (r *Multi64Result) Render() string {
	t := &Table{
		Title:  "64-device explicit fused GEMM+reduce-scatter (Fig-20 scale regime, ROADMAP item 3)",
		Header: []string{"metric", "value"},
	}
	t.AddRow("devices", fmt.Sprintf("%d", r.Devices))
	t.AddRow("grid", fmt.Sprintf("M=%d N=%d K=%d (fp16)", r.Grid.Shape.M, r.Grid.Shape.N, r.Grid.Shape.K))
	t.AddRow("gemm done (first/last)", fmt.Sprintf("%v / %v", r.GEMMFirst, r.GEMMLast))
	t.AddRow("collective done (first/last)", fmt.Sprintf("%v / %v", r.CollectiveFirst, r.CollectiveLast))
	t.AddRow("done (incl. drain)", r.Done.String())
	t.AddRow("device skew", r.Skew.String())
	t.AddRow("mirror collective done", r.Mirror.String())
	t.AddRow("mirror error", fmt.Sprintf("%.2f%%", 100*r.RelError))
	t.AddRow("ring traffic", r.LinkBytes.String())
	t.AddRow("DRAM traffic (all devices)", r.DRAMBytes.String())
	t.AddRow("tracker max live", fmt.Sprintf("%d", r.TrackerMaxLive))
	t.AddFooter("explicit 64-device run; result is byte-identical at every -par worker count")
	return t.String()
}
