// Command bench is the repository's performance benchmark. It runs one
// workload per invocation, checks every output against the golden
// snapshots, and prints one JSON line of metrics: the end-to-end ones, or
// with -trace 1 the per-layer ones from a separate traced run. Build and run
// it through run.sh at the checkout root:
//
//	bash bench/run.sh --workload catalogue-cold --seed 1 --seconds 15 --trace 0
//	bash bench/run.sh -compare base.jsonl -- change.jsonl
//
// Each workload runs in child processes of this binary with GOMAXPROCS=2.
// See README.md for the workloads, the metrics and how to compare commits.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// runDeadline bounds one invocation, children included.
const runDeadline = 170 * time.Second

// setupReps is how many extra times an untraced run sets the workload up,
// each time in a fresh process, besides the process that runs the passes.
// setup_s is the median of these samples, each timed from process start to
// ready, so package initialisation counts as set-up too.
const setupReps = 10

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    int // 1 for the traced run
	root     string
	out      string
	role     string // "" for the top-level process, else the child's job
	store    string
	profile  string
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	compare := fs.Bool("compare", false,
		"compare result files instead of running: -compare <base.jsonl>... -- <change.jsonl>...")
	fs.StringVar(&o.workload, "workload", "", "workload to run (see BENCHMARK.json)")
	fs.Int64Var(&o.seed, "seed", 42, "seed of the workload's generated inputs")
	fs.IntVar(&o.seconds, "seconds", 15, "length of the measured window, in seconds (1-60)")
	fs.IntVar(&o.trace, "trace", 0, "1 runs the traced run and reports the per-layer metrics")
	fs.StringVar(&o.root, "root", "..", "repository root; run.sh sets it")
	fs.StringVar(&o.out, "out", "", "append the run's full result record, as one JSON line, to this file")
	fs.StringVar(&o.role, "role", "", "internal: the job of a child process (setup, run or populate)")
	fs.StringVar(&o.store, "store", "", "internal: the result store of a catalogue-warm child")
	fs.StringVar(&o.profile, "profile", "", "internal: where a traced child writes its CPU profile")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		return compareMain(fs.Args(), o.root, stdout, stderr)
	}
	if _, ok := lookupWorkload(o.workload); !ok {
		fmt.Fprintf(stderr, "bench: unknown -workload %q\n", o.workload)
		return 2
	}
	if o.seconds < 1 || o.seconds > 60 {
		fmt.Fprintf(stderr, "bench: -seconds %d: want 1 to 60\n", o.seconds)
		return 2
	}
	if o.trace != 0 && o.trace != 1 {
		fmt.Fprintf(stderr, "bench: -trace %d: want 0 or 1\n", o.trace)
		return 2
	}
	switch o.role {
	case "":
		return runParent(o, stdout, stderr)
	case "setup", "run":
		return runChild(o, stdout)
	case "populate":
		rep, err := runPopulate(o)
		if err == nil {
			err = json.NewEncoder(stdout).Encode(rep)
		}
		if err != nil {
			fmt.Fprintf(stderr, "bench: populate: %v\n", err)
			return 1
		}
		return 0
	}
	fmt.Fprintf(stderr, "bench: unknown -role %q\n", o.role)
	return 2
}

// hostInfo is the provenance block of every result record.
type hostInfo struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPUModel   string `json:"cpu_model"`
	GoVersion  string `json:"go_version"`
	Revision   string `json:"revision"`
	Dirty      bool   `json:"dirty"`
}

func probeHost() hostInfo {
	h := hostInfo{
		NumCPU: runtime.NumCPU(), GOMAXPROCS: simWorkers,
		GoVersion: runtime.Version(), Revision: "unknown",
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				h.Revision = s.Value
			case "vcs.modified":
				h.Dirty = s.Value == "true"
			}
		}
	}
	return h
}

// metricValue is one metric of the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line of standard output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// metricRecord is one metric of a result record: the value reported (the
// median) and the spread of the samples it came from.
type metricRecord struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	summary
}

// record is the full result of one run, as -out appends it and -compare
// reads it.
type record struct {
	Workload     string                  `json:"workload"`
	Seed         int64                   `json:"seed"`
	Seconds      int                     `json:"seconds"`
	Trace        bool                    `json:"trace"`
	Host         hostInfo                `json:"host"`
	Passes       int                     `json:"passes"`
	TracedPasses int                     `json:"traced_passes"`
	SetupSamples int                     `json:"setup_samples"`
	Correct      bool                    `json:"correct"`
	Attempted    int                     `json:"attempted"`
	Failed       int                     `json:"failed"`
	Errors       []string                `json:"errors,omitempty"`
	Metrics      map[string]metricRecord `json:"metrics"`
}

// runParent is the top-level process: it sets the workload up in child
// processes, has one child measure the passes, and reports.
func runParent(o options, stdout, stderr io.Writer) int {
	w, _ := lookupWorkload(o.workload)
	ctx, cancel := context.WithTimeout(context.Background(), runDeadline)
	defer cancel()
	fail := func(err error) int {
		fmt.Fprintf(stderr, "bench: %s: %v\n", w.name, err)
		return 1
	}

	host := probeHost()
	fmt.Fprintf(stderr, "bench: %s seed %d: nproc %d, GOMAXPROCS %d, %s, %s, revision %s (dirty %t)\n",
		w.name, o.seed, host.NumCPU, host.GOMAXPROCS, host.CPUModel, host.GoVersion, host.Revision, host.Dirty)
	if host.NumCPU < simWorkers {
		fmt.Fprintf(stderr, "bench: warning: nproc %d is below the %d simulation goroutines a child may run; "+
			"results are not comparable with a %d-CPU host\n", host.NumCPU, simWorkers, simWorkers)
	}
	build := filepath.Join(o.root, ".bench_build")
	if err := os.MkdirAll(build, 0o755); err != nil {
		return fail(err)
	}
	self, err := os.Executable()
	if err != nil {
		return fail(err)
	}

	rec := record{Workload: w.name, Seed: o.seed, Seconds: o.seconds, Trace: o.trace == 1, Host: host}
	var setupCounters map[string]float64
	populate := 0.0
	if w.populate {
		dir, err := os.MkdirTemp(build, "store-")
		if err != nil {
			return fail(err)
		}
		defer os.RemoveAll(dir)
		o.store = dir
		start := time.Now()
		rep, _, err := spawn(ctx, self, o, "populate")
		if err != nil {
			return fail(err)
		}
		populate = time.Since(start).Seconds()
		rec.Attempted, rec.Failed, rec.Errors = rep.Ops, rep.Failed, rep.Errors
		setupCounters = rep.Setup
	}
	if o.trace == 1 {
		o.profile = filepath.Join(build, fmt.Sprintf("cpu-%d.pprof", os.Getpid()))
		defer os.Remove(o.profile)
	}
	// Set-up samples are taken before and after the measured window, so
	// their median spans the run rather than one moment of host load. A
	// traced run does not report setup_s and takes none.
	var setups []float64
	sampleSetups := func(n int) error {
		for i := 0; i < n && o.trace == 0; i++ {
			_, ready, err := spawn(ctx, self, o, "setup")
			if err != nil {
				return err
			}
			setups = append(setups, populate+ready)
		}
		return nil
	}
	if err := sampleSetups(setupReps / 2); err != nil {
		return fail(err)
	}
	rep, ready, err := spawn(ctx, self, o, "run")
	if err != nil {
		return fail(err)
	}
	setups = append(setups, populate+ready)
	if err := sampleSetups(setupReps - setupReps/2); err != nil {
		return fail(err)
	}
	rec.Attempted += rep.Ops
	rec.Failed += rep.Failed
	rec.Errors = append(rec.Errors, rep.Errors...)
	rec.SetupSamples = len(setups)
	for _, p := range rep.Passes {
		if p.Traced {
			rec.TracedPasses++
		} else {
			rec.Passes++
		}
	}

	if o.trace == 1 {
		shares, err := profileShares(o.profile)
		if err != nil {
			return fail(err)
		}
		rec.Metrics = perLayer(rep, setupCounters, shares)
		spans, err := json.Marshal(rep.Spans)
		if err == nil {
			err = os.WriteFile(filepath.Join(build, "spans-"+w.name+".json"), spans, 0o644)
		}
		if err != nil {
			return fail(err)
		}
	} else {
		rec.Metrics = endToEnd(rep, setups)
	}
	rec.Correct = rec.Failed == 0
	for _, msg := range rec.Errors {
		fmt.Fprintf(stderr, "bench: %s: FAILED %s\n", w.name, msg)
	}

	if o.out != "" {
		if err := appendRecord(o.out, rec); err != nil {
			return fail(err)
		}
	}
	line := resultLine{Correct: rec.Correct, Attempted: rec.Attempted, Failed: rec.Failed,
		Metrics: map[string]metricValue{}}
	for name, m := range rec.Metrics {
		line.Metrics[name] = metricValue{Value: m.Value, Unit: m.Unit}
	}
	b, err := json.Marshal(line)
	if err != nil {
		return fail(err)
	}
	fmt.Fprintln(stdout, string(b))
	if !rec.Correct {
		return 1
	}
	return 0
}

// spawn runs this binary as a child with the given role and waits for it.
// It returns the child's report (none for setup) and, for setup and run,
// the seconds from starting the process until it printed "ready".
func spawn(ctx context.Context, self string, o options, role string) (*childReport, float64, error) {
	cmd := exec.CommandContext(ctx, self,
		"-role", role, "-root", o.root, "-workload", o.workload,
		"-seed", strconv.FormatInt(o.seed, 10), "-seconds", strconv.Itoa(o.seconds),
		"-trace", strconv.Itoa(o.trace), "-store", o.store, "-profile", o.profile)
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(simWorkers))
	// A child must not outlive this process, however it ends.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	cmd.Stderr = os.Stderr
	pipe, err := cmd.StdoutPipe()
	if err != nil {
		return nil, 0, err
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, 0, err
	}
	r := bufio.NewReader(pipe)
	var ready float64
	var readErr error
	if role != "populate" {
		line, err := r.ReadString('\n')
		ready = time.Since(start).Seconds()
		if strings.TrimSpace(line) != "ready" {
			readErr = fmt.Errorf("%s child did not get ready: %v", role, err)
		}
	}
	rep := &childReport{}
	if readErr == nil && role != "setup" {
		readErr = json.NewDecoder(r).Decode(rep)
	}
	// Drain whatever is left so the child can never block on a full pipe.
	io.Copy(io.Discard, r)
	if err := cmd.Wait(); err != nil {
		return nil, 0, fmt.Errorf("%s child: %w", role, err)
	}
	if readErr != nil {
		return nil, 0, readErr
	}
	return rep, ready, nil
}

// passTimes returns the wall and CPU seconds of the traced or untraced
// passes.
func passTimes(rep *childReport, traced bool) (walls, cpus []float64) {
	for _, p := range rep.Passes {
		if p.Traced == traced {
			walls = append(walls, p.Wall)
			cpus = append(cpus, p.CPU)
		}
	}
	return walls, cpus
}

func newMetricRecord(unit string, xs []float64) metricRecord {
	s := summarize(xs)
	return metricRecord{Value: s.Median, Unit: unit, summary: s}
}

// endToEnd computes the end-to-end metrics from the untraced passes and the
// set-up samples.
func endToEnd(rep *childReport, setups []float64) map[string]metricRecord {
	walls, cpus := passTimes(rep, false)
	out := map[string]metricRecord{}
	for _, m := range endToEndMetrics {
		var xs []float64
		switch m.name {
		case "wall_s":
			xs = walls
		case "cpu_s":
			xs = cpus
		case "setup_s":
			xs = setups
		case "peak_rss_mb":
			xs = []float64{float64(rep.PeakRSSKB) / 1024}
		}
		out[m.name] = newMetricRecord(m.unit, xs)
	}
	return out
}

// perLayer computes the per-layer metrics from the traced passes, the
// counters of set-up and the CPU-profile shares. A counter a workload never
// touches reads 0.
func perLayer(rep *childReport, setupCounters, shares map[string]float64) map[string]metricRecord {
	untraced, _ := passTimes(rep, false)
	traced, _ := passTimes(rep, true)
	out := map[string]metricRecord{}
	for _, m := range perLayerMetrics() {
		var xs []float64
		switch bucket, isProf := strings.CutPrefix(m.name, "prof."); {
		case isProf:
			xs = []float64{shares[bucket]}
		case m.name == "trace.overhead_frac":
			xs = []float64{summarize(traced).Median/summarize(untraced).Median - 1}
		default:
			if v, ok := setupCounters[m.name]; ok {
				xs = []float64{v}
				break
			}
			for _, p := range rep.Passes {
				if p.Traced {
					xs = append(xs, p.Counters[m.name])
				}
			}
		}
		out[m.name] = newMetricRecord(m.unit, xs)
	}
	return out
}

func appendRecord(path string, rec record) error {
	b, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
