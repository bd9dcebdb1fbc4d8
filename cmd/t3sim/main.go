// Command t3sim regenerates the paper's tables and figures from the
// simulator. Each experiment prints the same rows/series the paper reports:
//
//	t3sim -exp fig16          # sub-layer speedups (the headline result)
//	t3sim -exp fig18          # data-movement reductions
//	t3sim -exp all            # everything
//	t3sim -exp all -j 1       # fully serial baseline (for timing/profiles)
//	t3sim -exp fig16 -json    # machine-readable rows (times in picoseconds)
//	t3sim -list               # available experiments
//
// The serving experiments (serve-sweep, serve-tenants) accept workload
// overrides: -qps 4,8,12 replaces the offered-load ladder and -slo 250ms the
// p99 TTFT objective. Defaults reproduce the golden snapshots.
//
// Observability (see internal/metrics): -timeline out.json records every
// simulation's spans and instants as a Chrome trace-event file loadable at
// https://ui.perfetto.dev, and -metrics out.json dumps the final counter and
// gauge values. Both files are deterministic at any -j.
//
// Validation (see internal/check): -check attaches the simulation invariant
// checker to every run; any conservation/ordering/bound violation is reported
// on stderr and fails the process.
//
// Caching (see internal/store): -cache-dir layers a persistent
// content-addressed result store under the experiments, so a warm `-exp all`
// replays the whole catalogue byte-identically from disk in well under a
// second instead of re-simulating for tens of seconds:
//
//	t3sim -exp all -cache-dir ~/.cache/t3sim   # cold: populates the store
//	t3sim -exp all -cache-dir ~/.cache/t3sim   # warm: served from disk
//
// -cache-mode picks rw|ro|off access. The store is versioned by build
// identity + result schema, and corrupted/stale/concurrently-written entries
// degrade to a silent miss and recompute — caching never changes output.
// Runs that record observations are never served from cache (-timeline and
// -metrics make every simulation uncacheable; -check blocks the disk tier).
// -time prints the hit/miss accounting to stderr, plus how many simulation
// engines the run built (0 on a fully warm replay).
//
// Every simulation is deterministic and owns a private engine, so -j only
// changes scheduling, never results: `-exp all -j N` output is byte-identical
// to `-j 1`, and experiments always print in their fixed catalogue order.
// The same catalogue drives the repo's golden regression tests (TestGolden),
// so every experiment's output here is snapshot-pinned in testdata/golden/.
//
// Profiling the simulator itself on the paper experiments:
//
//	t3sim -exp all -j 1 -cpuprofile cpu.pprof -memprofile mem.pprof
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"time"

	"t3sim"
)

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

// parseQPS parses the -qps flag: a comma-separated list of positive, finite
// offered-load points (requests per second).
func parseQPS(s string) ([]float64, error) {
	var out []float64
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
		if err != nil {
			return nil, err
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("QPS %g: must be finite", v)
		}
		if v <= 0 {
			return nil, fmt.Errorf("QPS %g: must be positive", v)
		}
		out = append(out, v)
	}
	return out, nil
}

// outcome is one experiment's fully rendered output, produced on a worker
// goroutine and printed by the main goroutine in catalogue order.
type outcome struct {
	out     []byte
	err     error
	elapsed time.Duration
}

// render produces the exact bytes the experiment writes to stdout.
func render(e t3sim.ExperimentCatalogueEntry, runner *t3sim.ExperimentRunner, asJSON bool) outcome {
	start := time.Now()
	res, err := e.Run(runner)
	if err != nil {
		return outcome{err: err, elapsed: time.Since(start)}
	}
	var buf bytes.Buffer
	if asJSON {
		enc := json.NewEncoder(&buf)
		enc.SetIndent("", "  ")
		if err := enc.Encode(map[string]any{"experiment": e.Name, "result": res}); err != nil {
			return outcome{err: err, elapsed: time.Since(start)}
		}
	} else {
		fmt.Fprintln(&buf, res.Render())
	}
	return outcome{out: buf.Bytes(), elapsed: time.Since(start)}
}

func main() {
	exp := flag.String("exp", "", "experiment to run (see -list); 'all' runs everything")
	list := flag.Bool("list", false, "list available experiments")
	timing := flag.Bool("time", false, "print wall-clock time per experiment")
	asJSON := flag.Bool("json", false, "emit machine-readable JSON (times are picoseconds)")
	jobs := flag.Int("j", runtime.GOMAXPROCS(0),
		"max concurrent simulations; 1 = fully serial; output is identical at any -j")
	par := flag.Int("par", 0,
		"worker goroutines per explicit multi-device fused run (conservative parallel DES; timed baseline collectives always run on one engine); "+
			"0 or 1 = the cluster runs serially on the simulation's own goroutine; output is byte-identical at any -par")
	checkRuns := flag.Bool("check", false,
		"attach the simulation invariant checker to every run; violations fail the process")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write an allocation profile to this file on exit")
	timeline := flag.String("timeline", "",
		"write a Perfetto-loadable trace-event timeline of the run to this JSON file")
	metricsOut := flag.String("metrics", "",
		"write every simulation's final counters and gauges to this JSON file")
	topo := flag.String("topo", "",
		"restrict the topo-sweep experiment to one interconnect graph "+
			"(ring|torus|switch|hier, 8 devices); empty sweeps all four")
	qps := flag.String("qps", "",
		"comma-separated offered-load ladder for the serving experiments "+
			"(requests/s); empty keeps the built-in sweep")
	slo := flag.Duration("slo", 0,
		"p99 TTFT service-level objective for the serving experiments "+
			"(e.g. 250ms); 0 keeps the built-in default")
	cacheDir := flag.String("cache-dir", "",
		"persistent result-store directory: warm runs serve identical simulations "+
			"from disk with byte-identical output; empty disables the store")
	cacheMode := flag.String("cache-mode", "rw",
		"result-store access for -cache-dir (rw|ro|off): ro never writes, off ignores the store")
	flag.Parse()

	catalogue := t3sim.ExperimentCatalogue()
	if *list || *exp == "" {
		names := make([]string, 0, len(catalogue))
		for _, e := range catalogue {
			names = append(names, fmt.Sprintf("  %-14s %s", e.Name, e.Desc))
		}
		sort.Strings(names)
		fmt.Println("usage: t3sim -exp <name>\n\nexperiments:")
		fmt.Println(strings.Join(names, "\n"))
		fmt.Println("  all            run every experiment")
		if *exp == "" && !*list {
			os.Exit(2)
		}
		return
	}
	if *jobs < 1 {
		fmt.Fprintf(os.Stderr, "t3sim: -j %d: need at least one job\n", *jobs)
		os.Exit(2)
	}
	if *par < 0 {
		fmt.Fprintf(os.Stderr, "t3sim: -par %d: worker count cannot be negative\n", *par)
		os.Exit(2)
	}

	// One process-wide registry collects every experiment's instruments; each
	// simulation registers under its own scope, so the exported files are
	// deterministic at any -j. Nil stays the zero-cost uninstrumented path.
	var reg *t3sim.MetricsRegistry
	if *timeline != "" || *metricsOut != "" {
		reg = t3sim.NewMetricsRegistry()
		if *timeline != "" {
			reg.EnableTimeline()
		}
	}
	// One process-wide checker: every simulation in every experiment shares
	// it, and violations are reported together after the run. Nil stays the
	// zero-cost unchecked path.
	var checker *t3sim.Checker
	if *checkRuns {
		checker = t3sim.NewChecker()
	}

	// Registered before the CPU profile starts, so on exit (deferred LIFO)
	// the CPU profile is stopped and flushed first, then the heap profile is
	// written, then the process exits.
	exitCode := 0
	defer func() {
		if checker != nil {
			for _, v := range checker.Violations() {
				fmt.Fprintf(os.Stderr, "t3sim: -check: %s\n", v)
				exitCode = 1
			}
		}
		if reg != nil {
			if err := writeExport(*timeline, reg.WriteTrace); err != nil {
				fmt.Fprintf(os.Stderr, "t3sim: -timeline: %v\n", err)
				exitCode = 1
			}
			if err := writeExport(*metricsOut, reg.WriteMetrics); err != nil {
				fmt.Fprintf(os.Stderr, "t3sim: -metrics: %v\n", err)
				exitCode = 1
			}
		}
		if *memprofile != "" {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "t3sim: -memprofile: %v\n", err)
				os.Exit(1)
			}
			runtime.GC() // materialize up-to-date allocation stats
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "t3sim: -memprofile: %v\n", err)
				os.Exit(1)
			}
			f.Close()
		}
		os.Exit(exitCode)
	}()
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "t3sim: -cpuprofile: %v\n", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "t3sim: -cpuprofile: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		defer pprof.StopCPUProfile()
	}

	setup := t3sim.DefaultExperimentSetup()
	if *topo != "" {
		spec, err := t3sim.TopoSpecFor(*topo, 8, setup.Link)
		if err != nil {
			fmt.Fprintf(os.Stderr, "t3sim: -topo: %v\n", err)
			exitCode = 2
			return
		}
		setup.Topo = spec
	}
	if *qps != "" {
		ladder, err := parseQPS(*qps)
		if err != nil {
			fmt.Fprintf(os.Stderr, "t3sim: -qps: %v\n", err)
			exitCode = 2
			return
		}
		setup.ServeQPS = ladder
	}
	if *slo < 0 {
		fmt.Fprintf(os.Stderr, "t3sim: -slo %v: must be non-negative\n", *slo)
		exitCode = 2
		return
	}
	setup.ServeSLO = t3sim.Time(slo.Nanoseconds()) * t3sim.Nanosecond
	if reg != nil {
		setup.Metrics = reg
	}
	setup.Check = checker
	setup.MultiDeviceWorkers = *par
	// The persistent result store: a content-addressed second cache tier on
	// disk. A warm -cache-dir serves every identical simulation without
	// running it, with byte-identical output; -check runs bypass the disk
	// tier by design (they must witness real simulations).
	var memo *t3sim.ExperimentMemoCache
	if *cacheDir != "" {
		storeMode, off, err := t3sim.ParseResultStoreMode(*cacheMode)
		if err != nil {
			fmt.Fprintf(os.Stderr, "t3sim: -cache-mode: %v\n", err)
			exitCode = 2
			return
		}
		if !off {
			st, err := t3sim.OpenResultStore(*cacheDir, storeMode)
			if err != nil {
				fmt.Fprintf(os.Stderr, "t3sim: -cache-dir: %v\n", err)
				exitCode = 2
				return
			}
			memo = t3sim.NewExperimentMemoCache()
			memo.AttachStore(st)
			setup.Memo = memo
			engines0, events0 := t3sim.EnginesBuilt(), t3sim.EventsDispatched()
			defer func() {
				st.Flush()
				if reg != nil {
					memo.PublishMetrics(reg)
				}
				if *timing {
					h, m := memo.Stats()
					s := st.Stats()
					fmt.Fprintf(os.Stderr,
						"[cache: %d memo hits, %d misses; store %d hits, %d misses, %d puts, %d corrupt; %d engines, %d events]\n",
						h, m, s.Hits, s.Misses, s.Puts, s.Corrupt, t3sim.EnginesBuilt()-engines0, t3sim.EventsDispatched()-events0)
				}
			}()
		}
	}
	runner := t3sim.NewExperimentRunner(setup, *jobs)
	emit := func(name string, o outcome) bool {
		if o.err != nil {
			fmt.Fprintf(os.Stderr, "t3sim: %s: %v\n", name, o.err)
			exitCode = 1
			return false
		}
		os.Stdout.Write(o.out)
		if *timing {
			fmt.Fprintf(os.Stderr, "[%s took %v]\n", name, o.elapsed.Round(time.Millisecond))
		}
		return true
	}

	if *exp == "all" {
		// Fan the catalogue out over -j workers but print strictly in
		// catalogue order: worker i delivers into slot i and the main
		// goroutine drains the slots sequentially, so the byte stream never
		// depends on scheduling. (Per-experiment wall-clocks under -time do
		// vary with -j; they measure concurrent execution.)
		slots := make([]chan outcome, len(catalogue))
		for i := range slots {
			slots[i] = make(chan outcome, 1)
		}
		idx := make(chan int)
		workers := *jobs
		if workers > len(catalogue) {
			workers = len(catalogue)
		}
		for w := 0; w < workers; w++ {
			go func() {
				for i := range idx {
					slots[i] <- render(catalogue[i], runner, *asJSON)
				}
			}()
		}
		go func() {
			for i := range catalogue {
				idx <- i
			}
			close(idx)
		}()
		for i, e := range catalogue {
			if !emit(e.Name, <-slots[i]) {
				return
			}
		}
		return
	}
	if e, ok := t3sim.ExperimentByName(*exp); ok {
		emit(e.Name, render(e, runner, *asJSON))
		return
	}
	fmt.Fprintf(os.Stderr, "t3sim: unknown experiment %q (use -list)\n", *exp)
	exitCode = 2
}
