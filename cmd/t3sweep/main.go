// Command t3sweep runs custom fused GEMM→collective sweeps and emits one
// CSV row per configuration — the quick-experiment companion to cmd/t3sim's
// fixed paper figures.
//
//	t3sweep -m 8192 -n 4096 -k 512 -devices 4,8,16
//	t3sweep -m 8192 -n 4096 -k 512 -devices 8 -links 150,75,37.5 -arb mca
//	t3sweep -collective direct -devices 8
//	t3sweep -collective multi -topo torus -devices 8
//	t3sweep -devices 4,8,16,32 -links 300,150,75 -j 8
//
// Output columns: devices, link_gbps, cus, arbitration, collective,
// gemm_us, collective_done_us, done_us, speedup_vs_sequential, dram_mib,
// link_mib, tracker_high_water.
//
// Explicit multi-device rows (-collective multi) are each followed by a
// `#`-prefixed comment line reporting the cluster scheduler's coordination
// stats (rounds, average window width, stall time), so scaling regressions
// are visible without a profiler. Both lines are byte-identical at any -par
// and are served from the result cache like any other row.
//
// -serve switches to the serving capacity sweep (internal/serving): one CSV
// row per (scheme, offered QPS) operating point with TTFT/TPOT percentiles,
// T3 overlap off vs on, plus a `#` summary line with each scheme's max QPS
// under the p99 TTFT SLO. -qps overrides the offered-load ladder and -slo
// the objective:
//
//	t3sweep -serve
//	t3sweep -serve -qps 4,8,12,16 -slo 250ms
//
// -cache-dir layers the persistent content-addressed result store under the
// sweep: repeated configurations dedup in memory, and warm re-runs serve
// byte-identical rows from disk instead of re-simulating. A trailing
// `# cache` comment line reports the hit/miss/byte accounting. -cache-mode
// picks rw|ro|off access; -cache-stats and -cache-prune inspect or
// garbage-collect a cache directory and exit without sweeping:
//
//	t3sweep -devices 4,8,16 -cache-dir ~/.cache/t3sim
//	t3sweep -cache-dir ~/.cache/t3sim -cache-stats
//	t3sweep -cache-dir ~/.cache/t3sim -cache-prune
//
// -j fans the cross-product out over concurrent simulations. Rows always
// print in sweep order (cus-major, then links, then devices) and every
// configuration owns a private simulation engine, so the CSV is
// byte-identical at any -j.
//
// -timeline out.json additionally records every configuration's simulation
// as a Perfetto-loadable Chrome trace-event file (one Perfetto process per
// configuration), and -metrics out.json dumps the final counters and gauges;
// both are deterministic at any -j.
//
// Profiling the simulator itself on a custom sweep (same flags as cmd/t3sim):
//
//	t3sweep -devices 8,16,32 -j 1 -cpuprofile cpu.pprof -memprofile mem.pprof
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"t3sim"
)

func main() {
	os.Exit(run())
}

// run is main with an exit code: early failures return through the deferred
// profile writers instead of bypassing them with os.Exit.
func run() (code int) {
	var (
		m     = flag.Int("m", 8192, "GEMM M (rows of the output)")
		n     = flag.Int("n", 4096, "GEMM N (columns of the output)")
		k     = flag.Int("k", 512, "GEMM K per device (already sliced)")
		elem  = flag.Int("elem", 2, "element size in bytes (2 = FP16)")
		devs  = flag.String("devices", "8", "comma-separated device counts")
		links = flag.String("links", "150", "comma-separated bidirectional link GB/s")
		cus   = flag.String("cus", "80", "comma-separated GPU CU counts")
		arb   = flag.String("arb", "mca", "arbitration: rr | mca | cf")
		coll  = flag.String("collective", "rs", "collective: rs | direct | ag | a2a | multi (explicit N-device rs)")
		topo  = flag.String("topo", "",
			"route -collective multi over this interconnect graph "+
				"(ring|torus|switch|hier); empty keeps the implicit ring")
		hdr   = flag.Bool("header", true, "print the CSV header")
		serve = flag.Bool("serve", false,
			"run the serving capacity sweep instead of a GEMM sweep: one CSV row per "+
				"(scheme, offered QPS) operating point, T3 overlap off vs on")
		qps = flag.String("qps", "",
			"comma-separated offered-load ladder for -serve (requests/s); empty keeps the built-in sweep")
		slo = flag.Duration("slo", 0,
			"p99 TTFT service-level objective for -serve (e.g. 250ms); 0 keeps the built-in default")
		jobs = flag.Int("j", runtime.GOMAXPROCS(0),
			"max concurrent simulations; output order is identical at any -j")
		par = flag.Int("par", 0,
			"worker goroutines per explicit multi-device simulation (-collective multi); "+
				"0 or 1 = the cluster runs serially on the simulation's own goroutine; output is byte-identical at any -par")
		checkRuns = flag.Bool("check", false,
			"attach the simulation invariant checker to every configuration; violations fail the process")
		timeline = flag.String("timeline", "",
			"write a Perfetto-loadable trace-event timeline of the sweep to this JSON file")
		metricsOut = flag.String("metrics", "",
			"write every configuration's final counters and gauges to this JSON file")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile = flag.String("memprofile", "", "write an allocation profile to this file on exit")
		cacheDir   = flag.String("cache-dir", "",
			"persistent result-store directory: warm sweeps serve identical configurations "+
				"from disk with byte-identical rows; empty disables the store")
		cacheMode = flag.String("cache-mode", "rw",
			"result-store access for -cache-dir (rw|ro|off): ro never writes, off ignores the store")
		cacheStats = flag.Bool("cache-stats", false,
			"print the -cache-dir store's contents (entries, bytes, stale versions) and exit")
		cachePrune = flag.Bool("cache-prune", false,
			"remove stale-version entries and leftover temp files from -cache-dir and exit")
	)
	flag.Parse()

	if *cacheStats || *cachePrune {
		return runCacheAdmin(*cacheDir, *cacheStats, *cachePrune)
	}

	// Registered before the CPU profile starts (LIFO): the CPU profile is
	// stopped and flushed first, then the heap profile is written.
	if *memprofile != "" {
		defer func() {
			if err := writeMemProfile(*memprofile); err != nil {
				fmt.Fprintf(os.Stderr, "t3sweep: -memprofile: %v\n", err)
				code = 1
			}
		}()
	}
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return fail(fmt.Errorf("-cpuprofile: %w", err))
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return fail(fmt.Errorf("-cpuprofile: %w", err))
		}
		defer f.Close()
		defer pprof.StopCPUProfile()
	}

	arbitration, err := parseArb(*arb)
	if err != nil {
		return fail(err)
	}
	collective, err := parseCollective(*coll)
	if err != nil {
		return fail(err)
	}
	if *topo != "" && *coll != "multi" {
		return fail(fmt.Errorf("-topo %s: only the explicit multi-device run (-collective multi) routes over a graph", *topo))
	}
	deviceList, err := parseInts(*devs)
	if err != nil {
		return fail(fmt.Errorf("bad -devices: %w", err))
	}
	linkList, err := parseFloats("links", *links)
	if err != nil {
		return usageFail(err)
	}
	cuList, err := parseInts(*cus)
	if err != nil {
		return fail(fmt.Errorf("bad -cus: %w", err))
	}

	grid, err := t3sim.NewGrid(
		t3sim.GEMMShape{M: *m, N: *n, K: *k, ElemBytes: t3sim.Bytes(*elem)},
		t3sim.DefaultTiling())
	if err != nil {
		return fail(err)
	}

	if *jobs < 1 {
		return usageFail(fmt.Errorf("-j %d: need at least one job", *jobs))
	}
	if *par < 0 {
		return usageFail(fmt.Errorf("-par %d: worker count cannot be negative", *par))
	}

	// One registry collects the whole sweep; every configuration registers
	// under a scope named after its sweep index and parameters, so the
	// exported files are deterministic at any -j.
	var reg *t3sim.MetricsRegistry
	if *timeline != "" || *metricsOut != "" {
		reg = t3sim.NewMetricsRegistry()
		if *timeline != "" {
			reg.EnableTimeline()
		}
	}
	// One checker audits every configuration in the sweep; it is safe to
	// share across the -j workers. Nil stays the zero-cost unchecked path.
	var checker *t3sim.Checker
	if *checkRuns {
		checker = t3sim.NewChecker()
	}

	// A nil memo keeps every call on the direct simulation path; with
	// -cache-dir the sweep dedups within the process and warm-starts from
	// disk. Rows are byte-identical either way.
	var memo *t3sim.ExperimentMemoCache
	if *cacheDir != "" {
		storeMode, off, err := t3sim.ParseResultStoreMode(*cacheMode)
		if err != nil {
			return fail(fmt.Errorf("-cache-mode: %w", err))
		}
		if !off {
			st, err := t3sim.OpenResultStore(*cacheDir, storeMode)
			if err != nil {
				return fail(fmt.Errorf("-cache-dir: %w", err))
			}
			memo = t3sim.NewExperimentMemoCache()
			memo.AttachStore(st)
		}
	}
	// The `# cache` accounting row prints after the sweep body, whichever
	// path it took — including early failures, so a partial sweep still
	// reports what the store absorbed.
	defer func() {
		if memo == nil {
			return
		}
		st := memo.Store()
		st.Flush()
		h, mi := memo.Stats()
		s := st.Stats()
		fmt.Printf("# cache memo_hits=%d memo_misses=%d store_hits=%d store_misses=%d store_corrupt=%d store_puts=%d bytes_read=%d bytes_written=%d\n",
			h, mi, s.Hits, s.Misses, s.Corrupt, s.Puts, s.BytesRead, s.BytesWritten)
	}()

	if *serve {
		return runServe(*qps, *slo, *jobs, *hdr, reg, checker, memo, *timeline, *metricsOut)
	}

	// The sweep cross-product, in output order.
	type config struct {
		devices int
		link    float64
		cus     int
	}
	var sweep []config
	for _, nc := range cuList {
		for _, lg := range linkList {
			for _, nd := range deviceList {
				sweep = append(sweep, config{devices: nd, link: lg, cus: nc})
			}
		}
	}

	if *hdr {
		fmt.Println("devices,link_gbps,cus,arbitration,collective,gemm_us,collective_done_us,done_us,speedup_vs_sequential,dram_mib,link_mib,tracker_high_water")
	}

	// Fan simulations out over -j workers; print rows strictly in sweep
	// order by draining per-index result slots.
	type rowResult struct {
		row string
		err error
	}
	slots := make([]chan rowResult, len(sweep))
	for i := range slots {
		slots[i] = make(chan rowResult, 1)
	}
	idx := make(chan int)
	workers := *jobs
	if workers > len(sweep) {
		workers = len(sweep)
	}
	for w := 0; w < workers; w++ {
		go func() {
			for i := range idx {
				c := sweep[i]
				var sink t3sim.MetricsSink
				if reg != nil {
					sink = reg.Scope(fmt.Sprintf("cfg%03d-dev%d-link%g-cu%d",
						i, c.devices, c.link, c.cus))
				}
				row, err := runOne(grid, c.devices, c.link, c.cus, arbitration, collective, *arb, *coll, *topo, *par, sink, checker, memo)
				slots[i] <- rowResult{row: row, err: err}
			}
		}()
	}
	go func() {
		for i := range sweep {
			idx <- i
		}
		close(idx)
	}()
	for i := range sweep {
		r := <-slots[i]
		if r.err != nil {
			return fail(r.err)
		}
		fmt.Print(r.row)
	}

	if reg != nil {
		if memo != nil {
			// Settle pending disk writes so the exported store counters
			// cover the whole sweep, then fold them into the registry.
			memo.Store().Flush()
			memo.PublishMetrics(reg)
		}
		if err := writeExport(*timeline, reg.WriteTrace); err != nil {
			return fail(fmt.Errorf("-timeline: %w", err))
		}
		if err := writeExport(*metricsOut, reg.WriteMetrics); err != nil {
			return fail(fmt.Errorf("-metrics: %w", err))
		}
	}
	if checker != nil {
		if vs := checker.Violations(); len(vs) > 0 {
			for _, v := range vs {
				fmt.Fprintf(os.Stderr, "t3sweep: -check: %s\n", v)
			}
			return 1
		}
	}
	return 0
}

// runServe runs the serving capacity sweep (-serve) and prints one CSV row
// per (scheme, offered QPS) operating point, followed by `#`-prefixed summary
// lines reporting each scheme's max QPS under the p99 TTFT SLO. Rows print in
// sweep order and every simulation is deterministic, so the output is
// byte-identical at any -j/-par.
func runServe(qpsFlag string, slo time.Duration, jobs int, hdr bool,
	reg *t3sim.MetricsRegistry, checker *t3sim.Checker, memo *t3sim.ExperimentMemoCache,
	timeline, metricsOut string) int {
	setup := t3sim.DefaultExperimentSetup()
	setup.Memo = memo
	if qpsFlag != "" {
		ladder, err := parseFloats("qps", qpsFlag)
		if err != nil {
			return usageFail(err)
		}
		for _, v := range ladder {
			if v <= 0 {
				return fail(fmt.Errorf("bad -qps: QPS %g: must be positive", v))
			}
		}
		setup.ServeQPS = ladder
	}
	if slo < 0 {
		return fail(fmt.Errorf("-slo %v: must be non-negative", slo))
	}
	setup.ServeSLO = t3sim.Time(slo.Nanoseconds()) * t3sim.Nanosecond
	if reg != nil {
		setup.Metrics = reg
	}
	setup.Check = checker

	runner := t3sim.NewExperimentRunner(setup, jobs)
	ev, err := runner.Evaluator()
	if err != nil {
		return fail(err)
	}
	res, err := t3sim.ServeSweep(ev)
	if err != nil {
		return fail(err)
	}

	if hdr {
		fmt.Println("scheme,qps,tput_per_s,ttft_p50_us,ttft_p99_us,tpot_p50_us,tpot_p99_us,e2e_p99_us,slo_met")
	}
	for _, row := range res.Rows {
		met := 0
		if row.SLOMet {
			met = 1
		}
		fmt.Printf("%s,%g,%.3f,%.3f,%.3f,%.3f,%.3f,%.3f,%d\n",
			row.Scheme, row.QPS, row.Throughput,
			row.TTFTp50.Micros(), row.TTFTp99.Micros(),
			row.TPOTp50.Micros(), row.TPOTp99.Micros(),
			row.E2Ep99.Micros(), met)
	}
	fmt.Printf("# max QPS under p99 TTFT SLO %v: baseline %g, T3-MCA %g\n",
		res.SLO, res.BaselineCapacity, res.T3Capacity)

	if reg != nil {
		if memo != nil {
			memo.Store().Flush()
			memo.PublishMetrics(reg)
		}
		if err := writeExport(timeline, reg.WriteTrace); err != nil {
			return fail(fmt.Errorf("-timeline: %w", err))
		}
		if err := writeExport(metricsOut, reg.WriteMetrics); err != nil {
			return fail(fmt.Errorf("-metrics: %w", err))
		}
	}
	if checker != nil {
		if vs := checker.Violations(); len(vs) > 0 {
			for _, v := range vs {
				fmt.Fprintf(os.Stderr, "t3sweep: -check: %s\n", v)
			}
			return 1
		}
	}
	return 0
}

// runCacheAdmin handles the store administration actions (-cache-stats,
// -cache-prune): inspect or garbage-collect a cache directory without
// running a sweep. Stats opens the store read-only, so it works on
// directories the process cannot write.
func runCacheAdmin(dir string, stats, prune bool) int {
	if dir == "" {
		return fail(fmt.Errorf("-cache-stats/-cache-prune need -cache-dir"))
	}
	mode := t3sim.StoreReadOnly
	if prune {
		mode = t3sim.StoreReadWrite
	}
	st, err := t3sim.OpenResultStore(dir, mode)
	if err != nil {
		return fail(fmt.Errorf("-cache-dir: %w", err))
	}
	if stats {
		ds, err := st.DiskStats()
		if err != nil {
			return fail(fmt.Errorf("-cache-stats: %w", err))
		}
		fmt.Printf("# cache dir=%s version=%s\n", dir, t3sim.ResultStoreVersion())
		fmt.Printf("# cache entries=%d current=%d stale=%d temp=%d bytes=%d\n",
			ds.Entries, ds.Current, ds.Stale, ds.TempFiles, ds.Bytes)
	}
	if prune {
		removed, freed, err := st.Prune()
		if err != nil {
			return fail(fmt.Errorf("-cache-prune: %w", err))
		}
		fmt.Printf("# cache pruned=%d freed_bytes=%d\n", removed, freed)
	}
	return 0
}

// writeMemProfile snapshots the heap allocation profile to path.
func writeMemProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	runtime.GC() // materialize up-to-date allocation stats
	if err := pprof.WriteHeapProfile(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// writeExport writes one metrics exporter's output to path; "" skips.
func writeExport(path string, write func(io.Writer) error) error {
	if path == "" {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// runOne simulates one configuration and returns its CSV row. A non-nil sink
// receives the run's instruments (spans, counters, gauges); a non-nil checker
// audits the run's conservation/ordering/bound invariants. A non-nil memo
// serves repeated configurations from the in-memory/persistent result cache;
// nil (or an uncacheable configuration — a live sink) runs the simulation
// directly.
func runOne(grid t3sim.GEMMGrid, devices int, linkGBps float64, cus int,
	arb t3sim.Arbitration, coll t3sim.FusedCollective, arbName, collName, topoName string,
	par int, sink t3sim.MetricsSink, checker *t3sim.Checker,
	memo *t3sim.ExperimentMemoCache) (string, error) {
	gpu := t3sim.DefaultGPUConfig()
	gpu.CUs = cus
	link := t3sim.DefaultLinkConfig()
	link.LinkBandwidth = t3sim.Bandwidth(linkGBps / 2 * 1e9) // per direction

	var topoSpec t3sim.TopoSpec
	if topoName != "" {
		var err error
		topoSpec, err = t3sim.TopoSpecFor(topoName, devices, link)
		if err != nil {
			return "", err
		}
	}

	opts := t3sim.FusedOptions{
		Topo:        topoSpec,
		GPU:         gpu,
		Memory:      t3sim.DefaultMemoryConfig(),
		Link:        link,
		Tracker:     t3sim.TrackerConfig{Sets: 256, Ways: 64, MaxWFsPerWG: 8},
		Devices:     devices,
		Grid:        grid,
		Collective:  coll,
		Arbitration: arb,
		Metrics:     sink,
		Check:       checker,
		ParWorkers:  par,
	}
	var (
		res     t3sim.FusedResult
		err     error
		cluster string
	)
	switch {
	case collName == "multi":
		// Explicit N-device simulation (no mirroring) on the cluster; -par
		// picks how many goroutines drive it, and the output — the
		// cluster's windowing stats included — is identical at every value,
		// so a cache hit serves the whole row pair.
		var multi t3sim.MultiDeviceResult
		multi, err = memo.FusedMulti(opts)
		if err == nil {
			res = t3sim.FusedResult{
				GEMMDone:       maxTime(multi.GEMMDone),
				CollectiveDone: multi.Done,
				Done:           multi.Done,
				DRAM:           multi.DRAM,
				LinkBytes:      multi.LinkBytes,
				TrackerMaxLive: multi.TrackerMaxLive,
			}
			// The comment row surfaces the coordination-layer stats
			// without touching the CSV data contract.
			st := multi.Cluster
			cluster = fmt.Sprintf("# cluster devices=%d windows=%d engine_windows=%d avg_window_ps=%d stall_windows=%d stall_ps=%d\n",
				devices, st.Windows, st.EngineWindows, int64(st.AvgWindowWidth()),
				st.StalledEngineWindows, int64(st.StallTime))
		}
	case coll == t3sim.RingAllGatherCollective:
		res, err = memo.FusedAG(opts)
	case coll == t3sim.AllToAllCollective:
		res, err = memo.FusedAllToAll(opts)
	default:
		res, err = memo.FusedRS(opts)
	}
	if err != nil {
		return "", err
	}

	// Sequential reference: isolated GEMM plus the serialized collective.
	seq := res.GEMMDone + sequentialWire(grid, devices, link, coll)

	return fmt.Sprintf("%d,%.1f,%d,%s,%s,%.3f,%.3f,%.3f,%.3f,%.1f,%.1f,%d\n",
		devices, linkGBps, cus, arbName, collName,
		res.GEMMDone.Micros(), res.CollectiveDone.Micros(), res.Done.Micros(),
		float64(seq)/float64(res.Done),
		res.DRAM.TotalBytes().MiBf(), res.LinkBytes.MiBf(),
		res.TrackerMaxLive) + cluster, nil
}

// sequentialWire estimates the serialized collective's wire time.
func sequentialWire(grid t3sim.GEMMGrid, devices int, link t3sim.LinkConfig, coll t3sim.FusedCollective) t3sim.Time {
	out := grid.Shape.OutputBytes()
	switch coll {
	case t3sim.RingAllGatherCollective:
		// Gathering n-1 foreign shards of this size.
		return link.LinkBandwidth.TransferTime(out * t3sim.Bytes(devices-1))
	case t3sim.AllToAllCollective:
		return link.LinkBandwidth.TransferTime(out / t3sim.Bytes(devices) * t3sim.Bytes(devices-1))
	default: // reduce-scatter variants
		return link.LinkBandwidth.TransferTime(out / t3sim.Bytes(devices) * t3sim.Bytes(devices-1))
	}
}

func parseArb(s string) (t3sim.Arbitration, error) {
	switch s {
	case "rr":
		return t3sim.ArbRoundRobin, nil
	case "mca":
		return t3sim.ArbMCA, nil
	case "cf":
		return t3sim.ArbComputeFirst, nil
	default:
		return 0, fmt.Errorf("t3sweep: unknown arbitration %q (rr|mca|cf)", s)
	}
}

func parseCollective(s string) (t3sim.FusedCollective, error) {
	switch s {
	case "rs":
		return t3sim.RingReduceScatterCollective, nil
	case "direct":
		return t3sim.DirectReduceScatterCollective, nil
	case "ag":
		return t3sim.RingAllGatherCollective, nil
	case "a2a":
		return t3sim.AllToAllCollective, nil
	case "multi":
		// Explicit multi-device ring reduce-scatter; runOne dispatches on
		// the name, the option struct still carries the rs collective.
		return t3sim.RingReduceScatterCollective, nil
	default:
		return 0, fmt.Errorf("t3sweep: unknown collective %q (rs|direct|ag|a2a|multi)", s)
	}
}

// maxTime returns the latest of a slice of completion times.
func maxTime(ts []t3sim.Time) t3sim.Time {
	var m t3sim.Time
	for _, t := range ts {
		if t > m {
			m = t
		}
	}
	return m
}

func parseInts(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

// parseFloats parses a comma-separated list of finite numbers given to the
// named flag; the error names the flag.
func parseFloats(flagName, s string) ([]float64, error) {
	var out []float64
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
		if err != nil {
			return nil, fmt.Errorf("bad -%s: %w", flagName, err)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("bad -%s: %g: must be finite", flagName, v)
		}
		out = append(out, v)
	}
	return out, nil
}

// fail reports err and returns the failing exit code for run to propagate.
func fail(err error) int {
	fmt.Fprintf(os.Stderr, "t3sweep: %v\n", err)
	return 1
}

// usageFail reports a malformed flag value and returns the usage exit code.
func usageFail(err error) int {
	fail(err)
	return 2
}
