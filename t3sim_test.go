package t3sim_test

import (
	"math"
	"reflect"
	"testing"

	"t3sim"
)

// TestPublicAPIQuickstart exercises the documented entry points end to end:
// build a sliced GEMM, run the fused T3 datapath, and sanity-check the
// result against the public analytic collective model.
func TestPublicAPIQuickstart(t *testing.T) {
	grid, err := t3sim.NewGrid(
		t3sim.GEMMShape{M: 2048, N: 2048, K: 512, ElemBytes: 2}, t3sim.DefaultTiling())
	if err != nil {
		t.Fatal(err)
	}
	res, err := t3sim.RunFusedGEMMRS(t3sim.FusedOptions{
		GPU:         t3sim.DefaultGPUConfig(),
		Memory:      t3sim.DefaultMemoryConfig(),
		Link:        t3sim.DefaultLinkConfig(),
		Tracker:     t3sim.DefaultTrackerConfig(),
		Devices:     4,
		Grid:        grid,
		Collective:  t3sim.RingReduceScatterCollective,
		Arbitration: t3sim.ArbMCA,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Done <= 0 || res.GEMMDone <= 0 {
		t.Fatalf("incomplete result: %+v", res)
	}
	rs, err := t3sim.AnalyticRingReduceScatterTime(t3sim.AnalyticCollectiveOptions{
		Devices:           4,
		TotalBytes:        grid.Shape.OutputBytes(),
		Link:              t3sim.DefaultLinkConfig(),
		MemBandwidth:      1 * t3sim.TBps,
		CUs:               80,
		PerCUMemBandwidth: 16 * t3sim.GBps,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Done >= res.GEMMDone+rs {
		t.Errorf("fused %v not below sequential %v", res.Done, res.GEMMDone+rs)
	}
}

// TestPublicAPICollectives runs the functional collectives through the
// facade.
func TestPublicAPICollectives(t *testing.T) {
	data := make([][]float32, 4)
	for d := range data {
		arr := make([]float32, 32)
		for i := range arr {
			arr[i] = float32(d + i)
		}
		data[d] = arr
	}
	ref, err := t3sim.ReferenceAllReduce(data)
	if err != nil {
		t.Fatal(err)
	}
	if err := t3sim.RingAllReduce(data); err != nil {
		t.Fatal(err)
	}
	for d := range data {
		for i := range data[d] {
			if math.Abs(float64(data[d][i]-ref[i])) > 1e-4 {
				t.Fatalf("device %d elem %d = %v, want %v", d, i, data[d][i], ref[i])
			}
		}
	}
	if t3sim.OwnedChunk(2, 4) != 2 {
		t.Error("OwnedChunk wrong")
	}
	if b := t3sim.ChunkBounds(10, 3); len(b) != 3 || b[2][1] != 10 {
		t.Errorf("ChunkBounds = %v", b)
	}
}

// TestPublicAPIFunctionalFused checks the protocol-level fused run.
func TestPublicAPIFunctionalFused(t *testing.T) {
	data := make([][]float32, 4)
	for d := range data {
		arr := make([]float32, 256)
		for i := range arr {
			arr[i] = float32(d*7 + i)
		}
		data[d] = arr
	}
	ref, _ := t3sim.ReferenceAllReduce(data)
	res, err := t3sim.RunFunctionalFusedReduceScatter(data, 16, 1)
	if err != nil {
		t.Fatal(err)
	}
	bounds := t3sim.ChunkBounds(256, 4)
	for d := 0; d < 4; d++ {
		b := bounds[t3sim.OwnedChunk(d, 4)]
		for i := b[0]; i < b[1]; i++ {
			if math.Abs(float64(res.Buffers[d][i]-ref[i])) > 1e-3 {
				t.Fatalf("device %d elem %d wrong", d, i)
			}
		}
	}
}

// TestPublicAPIOtherCollectives drives the fused all-gather, all-to-all and
// multi-device entry points through the facade.
func TestPublicAPIOtherCollectives(t *testing.T) {
	grid, err := t3sim.NewGrid(
		t3sim.GEMMShape{M: 1024, N: 1024, K: 256, ElemBytes: 2}, t3sim.DefaultTiling())
	if err != nil {
		t.Fatal(err)
	}
	base := t3sim.FusedOptions{
		GPU:     t3sim.DefaultGPUConfig(),
		Memory:  t3sim.DefaultMemoryConfig(),
		Link:    t3sim.DefaultLinkConfig(),
		Tracker: t3sim.DefaultTrackerConfig(),
		Devices: 4,
		Grid:    grid,
	}

	ag := base
	ag.Collective = t3sim.RingAllGatherCollective
	if res, err := t3sim.RunFusedGEMMAG(ag); err != nil || res.Done <= 0 {
		t.Errorf("fused AG: %v %+v", err, res)
	}

	a2a := base
	a2a.Collective = t3sim.AllToAllCollective
	if res, err := t3sim.RunFusedGEMMAllToAll(a2a); err != nil || res.Done <= 0 {
		t.Errorf("fused all-to-all: %v %+v", err, res)
	}

	rs := base
	rs.Collective = t3sim.RingReduceScatterCollective
	multi, err := t3sim.RunFusedGEMMRSMultiDevice(rs)
	if err != nil {
		t.Fatal(err)
	}
	if multi.Done <= 0 || len(multi.CollectiveDone) != 4 {
		t.Errorf("multi-device: %+v", multi)
	}

	// Functional all-gather through the facade.
	shards := [][]float32{{1, 2}, {3, 4}}
	res, err := t3sim.RunFunctionalFusedAllGather(shards, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := []float32{1, 2, 3, 4}
	for d := 0; d < 2; d++ {
		for i, v := range want {
			if res.Buffers[d][i] != v {
				t.Fatalf("device %d buffer %v, want %v", d, res.Buffers[d], want)
			}
		}
	}
}

// TestPublicAPIEventLog reads the fused-run events back through the facade:
// a timeline-enabled registry records them as "t3core" instants.
func TestPublicAPIEventLog(t *testing.T) {
	grid, err := t3sim.NewGrid(
		t3sim.GEMMShape{M: 1024, N: 1024, K: 256, ElemBytes: 2}, t3sim.DefaultTiling())
	if err != nil {
		t.Fatal(err)
	}
	reg := t3sim.NewMetricsRegistry()
	reg.EnableTimeline()
	_, err = t3sim.RunFusedGEMMRS(t3sim.FusedOptions{
		GPU:         t3sim.DefaultGPUConfig(),
		Memory:      t3sim.DefaultMemoryConfig(),
		Link:        t3sim.DefaultLinkConfig(),
		Tracker:     t3sim.DefaultTrackerConfig(),
		Devices:     4,
		Grid:        grid,
		Collective:  t3sim.RingReduceScatterCollective,
		Arbitration: t3sim.ArbRoundRobin,
		Metrics:     reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	events := reg.Track("t3core")
	if len(events.Instants(t3sim.EventGEMMDone.String())) != 1 ||
		len(events.Instants(t3sim.EventDMATriggered.String())) == 0 {
		t.Error("event instants incomplete")
	}
}

// TestPublicAPIModels exercises the workload layer.
func TestPublicAPIModels(t *testing.T) {
	if len(t3sim.Models()) != 5 || len(t3sim.FuturisticModels()) != 2 {
		t.Error("model zoo size wrong")
	}
	m, err := t3sim.ModelByName("T-NLG")
	if err != nil {
		t.Fatal(err)
	}
	sl, err := t3sim.SubLayerGEMM(m, t3sim.FC2, 8)
	if err != nil {
		t.Fatal(err)
	}
	if sl.Grid.Shape.K != 4*m.Hidden/8 {
		t.Errorf("FC2 K = %d", sl.Grid.Shape.K)
	}
	it, err := t3sim.NewIterationModel(m, 8, t3sim.Training, t3sim.DefaultHW())
	if err != nil {
		t.Fatal(err)
	}
	if it.CommFraction() <= 0 {
		t.Error("no communication fraction")
	}
	if len(t3sim.AllSubLayers()) != 4 {
		t.Error("sub-layer list wrong")
	}
}

// TestPublicAPIAddressMaps checks the §4.4 configuration builders.
func TestPublicAPIAddressMaps(t *testing.T) {
	for _, m := range []t3sim.AddressMap{
		t3sim.RingReduceScatterMap(0, 4),
		t3sim.RingAllGatherMap(1, 4),
		t3sim.DirectReduceScatterMap(2, 4),
		t3sim.AllToAllMap(3, 4),
	} {
		if err := m.Validate(); err != nil {
			t.Errorf("%v: %v", m.Collective, err)
		}
	}
}

// TestPublicAPITracker drives the tracker through the facade.
func TestPublicAPITracker(t *testing.T) {
	tr, err := t3sim.NewTracker(t3sim.DefaultTrackerConfig())
	if err != nil {
		t.Fatal(err)
	}
	fired := 0
	if err := tr.SetProgram(t3sim.TrackerProgram{
		WFTileBytes:       1024,
		UpdatesPerElement: 2,
		OnReady:           func(t3sim.TileID) { fired++ },
	}); err != nil {
		t.Fatal(err)
	}
	id := t3sim.TileID{WG: 1, WF: 2}
	if err := tr.Observe(id, 1024); err != nil {
		t.Fatal(err)
	}
	if err := tr.Observe(id, 1024); err != nil {
		t.Fatal(err)
	}
	if fired != 1 {
		t.Errorf("fired = %d, want 1", fired)
	}
	tbl := t3sim.NewDMATable()
	if err := tbl.Program(id, t3sim.DMACommand{DestDevice: 1, Op: t3sim.MemoryUpdate, Bytes: 1024}); err != nil {
		t.Fatal(err)
	}
	if _, ok := tbl.MarkReady(id); !ok {
		t.Error("command not found")
	}
}

// TestPublicAPIEvaluateAll exercises the parallel orchestration surface: the
// facade evaluator fans cases out over a worker pool and returns the same
// results Evaluate produces one at a time, in input order.
func TestPublicAPIEvaluateAll(t *testing.T) {
	ev, err := t3sim.NewEvaluator(t3sim.DefaultExperimentSetup())
	if err != nil {
		t.Fatal(err)
	}
	ev.Parallelism = 2
	cases := t3sim.SmallModelCases()[:4]
	rows, err := ev.EvaluateAll(cases)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(cases) {
		t.Fatalf("got %d rows, want %d", len(rows), len(cases))
	}
	for i, c := range cases {
		r, err := ev.Evaluate(c) // memoized: must be the identical result
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(rows[i], r) {
			t.Errorf("%s: EvaluateAll row differs from Evaluate", c)
		}
		if rows[i].SpeedupT3MCA() < 1.0 {
			t.Errorf("%s: T3-MCA speedup %.2f < 1", c, rows[i].SpeedupT3MCA())
		}
	}
}
