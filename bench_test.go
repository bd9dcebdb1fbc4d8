package t3sim_test

// One benchmark per paper table/figure: each b.N iteration regenerates the
// full experiment from scratch, so ns/op is the cost of reproducing that
// result. Run them all with:
//
//	go test -bench=. -benchmem
//
// The headline reproduction numbers (speedups, reductions, errors) are
// reported as custom metrics next to the timing.

import (
	"sync"
	"testing"

	"t3sim"
)

// sharedEvaluator amortizes sub-layer simulations across benchmarks that, in
// the paper, share the same runs (Figures 15/16/18/19 all consume the same
// per-sub-layer evaluations).
var (
	evalOnce sync.Once
	evalErr  error
	shared   *t3sim.Evaluator
)

func sharedEval(b *testing.B) *t3sim.Evaluator {
	b.Helper()
	evalOnce.Do(func() {
		shared, evalErr = t3sim.NewEvaluator(t3sim.DefaultExperimentSetup())
	})
	if evalErr != nil {
		b.Fatal(evalErr)
	}
	return shared
}

func BenchmarkTable01Setup(b *testing.B) {
	setup := t3sim.DefaultExperimentSetup()
	for i := 0; i < b.N; i++ {
		if t3sim.Table1(setup) == "" {
			b.Fatal("empty table")
		}
	}
}

func BenchmarkTable02Models(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if t3sim.Table2() == "" {
			b.Fatal("empty table")
		}
	}
}

func BenchmarkTable03Comparison(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if t3sim.Table3() == "" {
			b.Fatal("empty table")
		}
	}
}

func BenchmarkFig04Breakdown(b *testing.B) {
	setup := t3sim.DefaultExperimentSetup()
	var maxComm float64
	for i := 0; i < b.N; i++ {
		res, err := t3sim.Fig4(setup)
		if err != nil {
			b.Fatal(err)
		}
		for _, row := range res.Rows {
			if row.CommFrac() > maxComm {
				maxComm = row.CommFrac()
			}
		}
	}
	b.ReportMetric(100*maxComm, "max-comm-%")
}

func BenchmarkFig06CUSharing(b *testing.B) {
	ev := sharedEval(b)
	var ideal float64
	for i := 0; i < b.N; i++ {
		res, err := t3sim.Fig6(ev)
		if err != nil {
			b.Fatal(err)
		}
		ideal = res.GeomeanSpeedup["ideal"]
	}
	b.ReportMetric(ideal, "ideal-geomean-x")
}

func BenchmarkFig14Validation(b *testing.B) {
	setup := t3sim.DefaultExperimentSetup()
	var gerr float64
	for i := 0; i < b.N; i++ {
		res, err := t3sim.Fig14(setup)
		if err != nil {
			b.Fatal(err)
		}
		gerr = res.GeomeanErr
	}
	b.ReportMetric(100*gerr, "geomean-err-%")
}

func BenchmarkFig15Distribution(b *testing.B) {
	ev := sharedEval(b)
	for i := 0; i < b.N; i++ {
		if _, err := t3sim.Fig15(ev); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig16Speedups(b *testing.B) {
	ev := sharedEval(b)
	var geo, max float64
	for i := 0; i < b.N; i++ {
		res, err := t3sim.Fig16(ev)
		if err != nil {
			b.Fatal(err)
		}
		geo, max = res.GeomeanMCA, res.MaxMCA
	}
	b.ReportMetric(geo, "t3mca-geomean-x")
	b.ReportMetric(max, "t3mca-max-x")
}

func BenchmarkFig16LargeModels(b *testing.B) {
	ev := sharedEval(b)
	var geo float64
	for i := 0; i < b.N; i++ {
		res, err := t3sim.Fig16Large(ev)
		if err != nil {
			b.Fatal(err)
		}
		geo = res.GeomeanMCA
	}
	b.ReportMetric(geo, "t3mca-geomean-x")
}

func BenchmarkFig17Traffic(b *testing.B) {
	setup := t3sim.DefaultExperimentSetup()
	for i := 0; i < b.N; i++ {
		res, err := t3sim.Fig17(setup)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.T3) == 0 {
			b.Fatal("empty timeline")
		}
	}
}

func BenchmarkFig18DataMovement(b *testing.B) {
	ev := sharedEval(b)
	var red float64
	for i := 0; i < b.N; i++ {
		res, err := t3sim.Fig18(ev)
		if err != nil {
			b.Fatal(err)
		}
		red = res.GeomeanReduction
	}
	b.ReportMetric(100*red, "reduction-geomean-%")
}

func BenchmarkFig19EndToEnd(b *testing.B) {
	ev := sharedEval(b)
	var train, infer float64
	for i := 0; i < b.N; i++ {
		res, err := t3sim.Fig19(ev)
		if err != nil {
			b.Fatal(err)
		}
		train, infer = res.MaxTrainMCA, res.MaxInferMCA
	}
	b.ReportMetric(train, "train-max-x")
	b.ReportMetric(infer, "prompt-max-x")
}

func BenchmarkFig20FutureHW(b *testing.B) {
	ev := sharedEval(b)
	for i := 0; i < b.N; i++ {
		if _, err := t3sim.Fig20(ev); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGenerationPhase(b *testing.B) {
	ev := sharedEval(b)
	for i := 0; i < b.N; i++ {
		if _, err := t3sim.Generation(ev); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMirrorValidation(b *testing.B) {
	setup := t3sim.DefaultExperimentSetup()
	var gerr float64
	for i := 0; i < b.N; i++ {
		res, err := t3sim.MirrorValidation(setup)
		if err != nil {
			b.Fatal(err)
		}
		gerr = res.GeomeanErr
	}
	b.ReportMetric(100*gerr, "geomean-err-%")
}

func BenchmarkCoarseOverlap(b *testing.B) {
	setup := t3sim.DefaultExperimentSetup()
	for i := 0; i < b.N; i++ {
		if _, err := t3sim.CoarseOverlap(setup); err != nil {
			b.Fatal(err)
		}
	}
}

// Ablation benchmarks: the design-choice sweeps DESIGN.md calls out.

func BenchmarkAblationArbitration(b *testing.B) {
	ev := sharedEval(b)
	for i := 0; i < b.N; i++ {
		if _, err := t3sim.AblationArbitration(ev); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationNMCCost(b *testing.B) {
	ev := sharedEval(b)
	for i := 0; i < b.N; i++ {
		if _, err := t3sim.AblationNMCCost(ev); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationDMABlock(b *testing.B) {
	ev := sharedEval(b)
	for i := 0; i < b.N; i++ {
		if _, err := t3sim.AblationDMABlock(ev); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationLinkBandwidth(b *testing.B) {
	ev := sharedEval(b)
	for i := 0; i < b.N; i++ {
		if _, err := t3sim.AblationLinkBandwidth(ev); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationDRAMModel(b *testing.B) {
	ev := sharedEval(b)
	for i := 0; i < b.N; i++ {
		if _, err := t3sim.AblationDRAMModel(ev); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationGEMMPipeline(b *testing.B) {
	ev := sharedEval(b)
	for i := 0; i < b.N; i++ {
		if _, err := t3sim.AblationGEMMPipeline(ev); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLayerValidation(b *testing.B) {
	setup := t3sim.DefaultExperimentSetup()
	var gerr float64
	for i := 0; i < b.N; i++ {
		res, err := t3sim.LayerValidation(setup)
		if err != nil {
			b.Fatal(err)
		}
		gerr = res.TotalRelError
	}
	b.ReportMetric(100*gerr, "layer-err-%")
}

// Micro-benchmarks of the core mechanisms, for profiling the simulator
// itself rather than regenerating figures.

func BenchmarkFusedGEMMRSRun(b *testing.B) {
	grid, err := t3sim.NewGrid(
		t3sim.GEMMShape{M: 4096, N: 4096, K: 1024, ElemBytes: 2}, t3sim.DefaultTiling())
	if err != nil {
		b.Fatal(err)
	}
	opts := t3sim.FusedOptions{
		GPU:         t3sim.DefaultGPUConfig(),
		Memory:      t3sim.DefaultMemoryConfig(),
		Link:        t3sim.DefaultLinkConfig(),
		Tracker:     t3sim.TrackerConfig{Sets: 256, Ways: 64, MaxWFsPerWG: 8},
		Devices:     8,
		Grid:        grid,
		Collective:  t3sim.RingReduceScatterCollective,
		Arbitration: t3sim.ArbMCA,
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := t3sim.RunFused(opts); err != nil {
			b.Fatal(err)
		}
	}
}

// multiDeviceOpts is the 8-device explicit-simulation shape the scaling
// benchmarks share: big enough that the per-window coordination cost is
// amortized over real event work.
func multiDeviceOpts(b *testing.B, workers int) t3sim.FusedOptions {
	b.Helper()
	grid, err := t3sim.NewGrid(
		t3sim.GEMMShape{M: 4096, N: 4096, K: 1024, ElemBytes: 2}, t3sim.DefaultTiling())
	if err != nil {
		b.Fatal(err)
	}
	return t3sim.FusedOptions{
		GPU:         t3sim.DefaultGPUConfig(),
		Memory:      t3sim.DefaultMemoryConfig(),
		Link:        t3sim.DefaultLinkConfig(),
		Tracker:     t3sim.TrackerConfig{Sets: 256, Ways: 64, MaxWFsPerWG: 8},
		Devices:     8,
		Grid:        grid,
		Collective:  t3sim.RingReduceScatterCollective,
		Arbitration: t3sim.ArbRoundRobin,
		ParWorkers:  workers,
	}
}

// runMultiDeviceBench is the body shared by the scaling benchmarks: one full
// explicit 8-device simulation per iteration. Output is byte-identical at
// every worker count (pinned by TestMultiDeviceParallelMatchesSequential);
// only wall-clock changes, which is exactly what ns/op reports.
func runMultiDeviceBench(b *testing.B, workers int) {
	opts := multiDeviceOpts(b, workers)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := t3sim.RunFusedGEMMRSMultiDevice(opts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMultiDeviceSequential(b *testing.B) { runMultiDeviceBench(b, 0) }
func BenchmarkMultiDeviceWorkers2(b *testing.B)   { runMultiDeviceBench(b, 2) }
func BenchmarkMultiDeviceWorkers4(b *testing.B)   { runMultiDeviceBench(b, 4) }
func BenchmarkMultiDeviceWorkers8(b *testing.B)   { runMultiDeviceBench(b, 8) }

// multiDevice64Opts is the 64-device Fig-20-regime shape: the scale run
// dynamic per-device lookahead makes routine. Smaller per-device GEMM than
// the 8-device family — the point here is coordination cost across many
// engines, not raw event throughput.
func multiDevice64Opts(b *testing.B, workers int) t3sim.FusedOptions {
	b.Helper()
	grid, err := t3sim.NewGrid(
		t3sim.GEMMShape{M: 2048, N: 2048, K: 512, ElemBytes: 2}, t3sim.DefaultTiling())
	if err != nil {
		b.Fatal(err)
	}
	return t3sim.FusedOptions{
		GPU:         t3sim.DefaultGPUConfig(),
		Memory:      t3sim.DefaultMemoryConfig(),
		Link:        t3sim.DefaultLinkConfig(),
		Tracker:     t3sim.TrackerConfig{Sets: 256, Ways: 64, MaxWFsPerWG: 8},
		Devices:     64,
		Grid:        grid,
		Collective:  t3sim.RingReduceScatterCollective,
		Arbitration: t3sim.ArbRoundRobin,
		ParWorkers:  workers,
	}
}

// runMultiDevice64Bench runs one full explicit 64-device simulation per
// iteration and reports the scheduler's windowing statistics as custom
// metrics: windows/op (coordinator rounds) and window-ps/op (average
// simulated picoseconds one engine advances per window) — the
// lookahead-quality numbers bench/run.sh records, at 256 devices, as its
// cluster.*.windows and cluster.*.avg_window_ps counters.
// Skipped under -short so `go test -short ./...` stays fast.
func runMultiDevice64Bench(b *testing.B, workers int) {
	if testing.Short() {
		b.Skip("64-device scaling benchmarks are long; run without -short")
	}
	opts := multiDevice64Opts(b, workers)
	var st t3sim.ClusterStats
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := t3sim.RunFusedGEMMRSMultiDevice(opts)
		if err != nil {
			b.Fatal(err)
		}
		st = res.Cluster
	}
	if workers > 0 && st.Windows > 0 {
		b.ReportMetric(float64(st.Windows), "windows/op")
		b.ReportMetric(float64(st.AvgWindowWidth()), "window-ps/op")
	}
}

func BenchmarkMultiDevice64Sequential(b *testing.B) { runMultiDevice64Bench(b, 0) }
func BenchmarkMultiDevice64Workers2(b *testing.B)   { runMultiDevice64Bench(b, 2) }
func BenchmarkMultiDevice64Workers4(b *testing.B)   { runMultiDevice64Bench(b, 4) }
func BenchmarkMultiDevice64Workers8(b *testing.B)   { runMultiDevice64Bench(b, 8) }

// runMultiDeviceTopoBench is the topology scaling family: one explicit run
// per iteration, routed over the named graph at the given device count.
// Reports windows/op and window-ps/op, the numbers bench/run.sh records for
// the 256-device topologies of its cluster-256 workload. Results are
// byte-identical to the sequential path at every worker count.
func runMultiDeviceTopoBench(b *testing.B, topo string, devices, workers int) {
	if testing.Short() {
		b.Skip("topology scaling benchmarks are long; run without -short")
	}
	grid, err := t3sim.NewGrid(
		t3sim.GEMMShape{M: 2048, N: 2048, K: 512, ElemBytes: 2}, t3sim.DefaultTiling())
	if err != nil {
		b.Fatal(err)
	}
	link := t3sim.DefaultLinkConfig()
	spec, err := t3sim.TopoSpecFor(topo, devices, link)
	if err != nil {
		b.Fatal(err)
	}
	opts := t3sim.FusedOptions{
		GPU:         t3sim.DefaultGPUConfig(),
		Memory:      t3sim.DefaultMemoryConfig(),
		Link:        spec.Link,
		Topo:        spec,
		Tracker:     t3sim.TrackerConfig{Sets: 256, Ways: 64, MaxWFsPerWG: 8},
		Devices:     devices,
		Grid:        grid,
		Collective:  t3sim.RingReduceScatterCollective,
		Arbitration: t3sim.ArbRoundRobin,
		ParWorkers:  workers,
	}
	var st t3sim.ClusterStats
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := t3sim.RunFusedGEMMRSMultiDevice(opts)
		if err != nil {
			b.Fatal(err)
		}
		st = res.Cluster
	}
	if workers > 0 && st.Windows > 0 {
		b.ReportMetric(float64(st.Windows), "windows/op")
		b.ReportMetric(float64(st.AvgWindowWidth()), "window-ps/op")
	}
}

func BenchmarkMultiDevice64Torus4(b *testing.B)  { runMultiDeviceTopoBench(b, "torus", 64, 4) }
func BenchmarkMultiDevice64Hier4(b *testing.B)   { runMultiDeviceTopoBench(b, "hier", 64, 4) }
func BenchmarkMultiDevice256Ring4(b *testing.B)  { runMultiDeviceTopoBench(b, "ring", 256, 4) }
func BenchmarkMultiDevice256Torus4(b *testing.B) { runMultiDeviceTopoBench(b, "torus", 256, 4) }
func BenchmarkMultiDevice256Hier4(b *testing.B)  { runMultiDeviceTopoBench(b, "hier", 256, 4) }
func BenchmarkMultiDevice256Sequential(b *testing.B) {
	runMultiDeviceTopoBench(b, "ring", 256, 0)
}

func BenchmarkFunctionalFusedRS(b *testing.B) {
	data := make([][]float32, 8)
	for d := range data {
		arr := make([]float32, 64*1024)
		for i := range arr {
			arr[i] = float32(d + i)
		}
		data[d] = arr
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := t3sim.RunFunctionalFusedReduceScatter(data, 256, int64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRingAllReduceFunctional(b *testing.B) {
	base := make([][]float32, 8)
	for d := range base {
		arr := make([]float32, 64*1024)
		for i := range arr {
			arr[i] = float32(d*31 + i)
		}
		base[d] = arr
	}
	b.ReportAllocs()
	b.SetBytes(int64(8 * 64 * 1024 * 4))
	for i := 0; i < b.N; i++ {
		data := make([][]float32, len(base))
		for d := range base {
			c := make([]float32, len(base[d]))
			copy(c, base[d])
			data[d] = c
		}
		if err := t3sim.RingAllReduce(data); err != nil {
			b.Fatal(err)
		}
	}
}
