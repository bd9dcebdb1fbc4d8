package t3sim_test

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"

	"t3sim"
)

// TestGolden re-runs every catalogue experiment and compares its rendered
// output byte-for-byte against the snapshots in testdata/golden/. The
// snapshots pin the exact numbers cmd/t3sim prints, so any timing-model
// change — intended or not — shows up as a reviewed diff instead of a silent
// drift. Refresh the snapshots after an intentional change with:
//
//	go test . -run TestGolden -update-golden
//
// The suite is deterministic at any -golden-j: every simulation owns a
// private engine, so -golden-j 1 and -golden-j 8 must produce identical
// bytes (CI runs both). The simulation invariant checker (internal/check)
// rides along on every golden run; a conservation/ordering/bound violation
// fails the suite even when the rendered output still matches.
var (
	updateGolden = flag.Bool("update-golden", false,
		"rewrite testdata/golden/ from the current simulator output")
	goldenJobs = flag.Int("golden-j", runtime.GOMAXPROCS(0),
		"max concurrent experiments in TestGolden; results are identical at any value")
	goldenPar = flag.Int("golden-par", 0,
		"worker goroutines per explicit multi-device simulation in TestGolden "+
			"(conservative parallel DES); snapshots must be byte-identical at any value")
)

const goldenDir = "testdata/golden"

// metricsGoldenFile snapshots the metrics-JSON exporter on the fig17 run (the
// experiment whose DRAM timelines exercise counters, gauges and series most
// broadly), pinning instrument names, scoping and values.
const metricsGoldenFile = "fig17.metrics.json"

// goldenFile maps an experiment id to its snapshot filename.
func goldenFile(name string) string { return name + ".golden" }

// runCatalogue renders every experiment over a -golden-j worker pool and
// returns the outputs in catalogue order, failing the test on any experiment
// error or invariant violation.
func runCatalogue(t *testing.T, jobs int) [][]byte {
	t.Helper()
	setup := t3sim.DefaultExperimentSetup()
	checker := t3sim.NewChecker()
	setup.Check = checker
	setup.MultiDeviceWorkers = *goldenPar
	runner := t3sim.NewExperimentRunner(setup, jobs)
	catalogue := t3sim.ExperimentCatalogue()

	outs := make([][]byte, len(catalogue))
	errs := make([]error, len(catalogue))
	sem := make(chan struct{}, jobs)
	var wg sync.WaitGroup
	for i := range catalogue {
		wg.Add(1)
		go func(i int, e t3sim.ExperimentCatalogueEntry) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			res, err := e.Run(runner)
			if err != nil {
				errs[i] = err
				return
			}
			// cmd/t3sim prints Render() through Fprintln; match its bytes.
			outs[i] = []byte(res.Render() + "\n")
		}(i, catalogue[i])
	}
	wg.Wait()
	for i, e := range catalogue {
		if errs[i] != nil {
			t.Fatalf("%s: %v", e.Name, errs[i])
		}
	}
	for _, v := range checker.Violations() {
		t.Errorf("invariant violation during golden runs: %s", v)
	}
	return outs
}

// metricsSnapshot runs fig17 with a metrics registry attached and returns the
// WriteMetrics JSON export.
func metricsSnapshot(t *testing.T) []byte {
	t.Helper()
	setup := t3sim.DefaultExperimentSetup()
	reg := t3sim.NewMetricsRegistry()
	setup.Metrics = reg
	runner := t3sim.NewExperimentRunner(setup, 1)
	e, ok := t3sim.ExperimentByName("fig17")
	if !ok {
		t.Fatal("fig17 missing from the experiment catalogue")
	}
	if _, err := e.Run(runner); err != nil {
		t.Fatalf("fig17: %v", err)
	}
	var buf bytes.Buffer
	if err := reg.WriteMetrics(&buf); err != nil {
		t.Fatalf("WriteMetrics: %v", err)
	}
	return buf.Bytes()
}

// reportDiff fails the test with the first mismatching lines between got and
// want, in both directions, plus the refresh hint.
func reportDiff(t *testing.T, name string, got, want []byte) {
	t.Helper()
	gl := strings.Split(string(got), "\n")
	wl := strings.Split(string(want), "\n")
	n := len(gl)
	if len(wl) > n {
		n = len(wl)
	}
	const maxReport = 5
	reported := 0
	for i := 0; i < n && reported < maxReport; i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Errorf("%s: line %d differs:\n  got:  %q\n  want: %q", name, i+1, g, w)
			reported++
		}
	}
	if lg, lw := len(gl), len(wl); lg != lw {
		t.Errorf("%s: %d lines, golden has %d", name, lg, lw)
	}
	t.Errorf("%s: output differs from testdata/golden/%s; if the change is intentional, refresh with `go test . -run TestGolden -update-golden`",
		name, name)
}

func TestGolden(t *testing.T) {
	if raceEnabled {
		// The golden suite re-simulates every experiment (~40 s uninstrumented,
		// several minutes under the race detector) and runs no concurrency the
		// package tests don't already cover; the stress and experiments tests
		// carry the -race burden.
		t.Skip("skipping golden suite under -race")
	}
	if *goldenJobs < 1 {
		t.Fatalf("-golden-j %d: need at least one job", *goldenJobs)
	}

	catalogue := t3sim.ExperimentCatalogue()
	outs := runCatalogue(t, *goldenJobs)
	metricsJSON := metricsSnapshot(t)

	want := make(map[string][]byte, len(catalogue)+1)
	for i, e := range catalogue {
		want[goldenFile(e.Name)] = outs[i]
	}
	want[metricsGoldenFile] = metricsJSON

	if *updateGolden {
		if err := os.MkdirAll(goldenDir, 0o755); err != nil {
			t.Fatal(err)
		}
		// Drop stale snapshots (renamed or removed experiments) so the
		// directory always mirrors the catalogue exactly.
		entries, err := os.ReadDir(goldenDir)
		if err != nil {
			t.Fatal(err)
		}
		for _, ent := range entries {
			if _, ok := want[ent.Name()]; !ok {
				if err := os.Remove(filepath.Join(goldenDir, ent.Name())); err != nil {
					t.Fatal(err)
				}
				t.Logf("removed stale golden file %s", ent.Name())
			}
		}
		for name, data := range want {
			if err := os.WriteFile(filepath.Join(goldenDir, name), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		t.Logf("wrote %d golden files to %s", len(want), goldenDir)
		return
	}

	// Every catalogue entry must have a pinned snapshot, and every snapshot
	// must correspond to a live catalogue entry.
	entries, err := os.ReadDir(goldenDir)
	if err != nil {
		t.Fatalf("%v (generate snapshots with `go test . -run TestGolden -update-golden`)", err)
	}
	onDisk := make(map[string]bool, len(entries))
	for _, ent := range entries {
		onDisk[ent.Name()] = true
		if _, ok := want[ent.Name()]; !ok {
			t.Errorf("stale golden file %s: no catalogue entry produces it (remove it or re-run -update-golden)", ent.Name())
		}
	}

	for i, e := range catalogue {
		i, e := i, e
		t.Run(e.Name, func(t *testing.T) {
			file := goldenFile(e.Name)
			if !onDisk[file] {
				t.Fatalf("missing golden file %s/%s (generate with `go test . -run TestGolden -update-golden`)", goldenDir, file)
			}
			wantOut, err := os.ReadFile(filepath.Join(goldenDir, file))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(outs[i], wantOut) {
				reportDiff(t, e.Name, outs[i], wantOut)
			}
		})
	}
	t.Run("metrics", func(t *testing.T) {
		if !onDisk[metricsGoldenFile] {
			t.Fatalf("missing golden file %s/%s (generate with `go test . -run TestGolden -update-golden`)", goldenDir, metricsGoldenFile)
		}
		wantOut, err := os.ReadFile(filepath.Join(goldenDir, metricsGoldenFile))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(metricsJSON, wantOut) {
			reportDiff(t, metricsGoldenFile, metricsJSON, wantOut)
		}
	})
}

// TestGoldenCatalogueUnique guards the catalogue's integrity independently of
// the snapshots: ids must be unique, non-empty and filesystem-safe, since
// they double as golden filenames and -exp flags.
func TestGoldenCatalogueUnique(t *testing.T) {
	seen := make(map[string]bool)
	for _, e := range t3sim.ExperimentCatalogue() {
		if e.Name == "" || e.Desc == "" || e.Run == nil {
			t.Errorf("catalogue entry %+v: incomplete", e)
		}
		if seen[e.Name] {
			t.Errorf("duplicate experiment id %q", e.Name)
		}
		seen[e.Name] = true
		if strings.ContainsAny(e.Name, "/\\ ") {
			t.Errorf("experiment id %q: not filesystem-safe", e.Name)
		}
		if e.Name == "all" {
			t.Error("experiment id \"all\" collides with the -exp all fan-out")
		}
	}
	if _, ok := t3sim.ExperimentByName("fig16"); !ok {
		t.Error("ExperimentByName(fig16) not found")
	}
	if _, ok := t3sim.ExperimentByName("nope"); ok {
		t.Error("ExperimentByName(nope) unexpectedly found")
	}
	if len(seen) == 0 {
		t.Error("empty catalogue")
	}
}
