package t3sim_test

import (
	"bytes"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"t3sim"
)

// runCatalogueCached renders every catalogue experiment with a fresh
// MemoCache attached to a persistent store in dir, and returns the outputs in
// catalogue order plus the store's traffic counters. Unlike runCatalogue it
// attaches no invariant checker: the checker deliberately blocks the
// persistent tier (a -check run must really simulate), and this harness
// exists to exercise that tier.
func runCatalogueCached(t *testing.T, dir string, jobs, par int) ([][]byte, t3sim.ResultStoreStats) {
	t.Helper()
	st, err := t3sim.OpenResultStore(dir, t3sim.StoreReadWrite)
	if err != nil {
		t.Fatal(err)
	}
	memo := t3sim.NewExperimentMemoCache()
	memo.AttachStore(st)
	setup := t3sim.DefaultExperimentSetup()
	setup.Memo = memo
	setup.MultiDeviceWorkers = par
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
			outs[i] = []byte(res.Render() + "\n")
		}(i, catalogue[i])
	}
	wg.Wait()
	for i, e := range catalogue {
		if errs[i] != nil {
			t.Fatalf("%s: %v", e.Name, errs[i])
		}
	}
	st.Flush()
	return outs, st.Stats()
}

// TestGoldenWarmReplay pins the persistent result store end to end: a cold
// catalogue run (-j 8, -par 2) populates a fresh store directory, then a warm
// run through a second cache handle (-j 1, -par 4) — a stand-in for a later
// process — serves from disk without building a single simulation engine and
// must render byte-identical output. Both runs are also held against the
// golden snapshots, so a cache that changed results consistently across both
// runs would still fail. The deliberately different jobs/par settings double
// as the determinism check: execution strategy never splits a cache key
// precisely because the bytes cannot depend on it.
func TestGoldenWarmReplay(t *testing.T) {
	if raceEnabled {
		// Two more full catalogue runs; the package and experiments tests
		// carry the -race burden.
		t.Skip("skipping warm-replay suite under -race")
	}
	if testing.Short() {
		t.Skip("skipping warm-replay suite in -short mode")
	}

	dir := t.TempDir()

	coldOuts, coldStats := runCatalogueCached(t, dir, 8, 2)
	if coldStats.Puts == 0 {
		t.Error("cold run persisted nothing")
	}
	if coldStats.PutErrors != 0 {
		t.Errorf("cold run hit %d put errors", coldStats.PutErrors)
	}

	engines0 := t3sim.EnginesBuilt()
	warmOuts, warmStats := runCatalogueCached(t, dir, 1, 4)
	engines := t3sim.EnginesBuilt() - engines0
	if warmStats.Hits == 0 {
		t.Error("warm run served nothing from disk")
	}
	if warmStats.Misses != 0 {
		t.Errorf("warm run missed the store %d times", warmStats.Misses)
	}
	if warmStats.Corrupt != 0 {
		t.Errorf("warm run found %d corrupt entries in a store it just wrote", warmStats.Corrupt)
	}
	// A warm replay must not simulate at all: every catalogue entry, fig17's
	// timelines and ablation-arb's pinned-threshold rows included, is a
	// store read.
	if engines != 0 {
		t.Errorf("warm run built %d simulation engines, want 0", engines)
	}
	t.Logf("cold: %d puts (%d bytes); warm: %d disk hits / %d misses (%d bytes), %d engines",
		coldStats.Puts, coldStats.BytesWritten, warmStats.Hits, warmStats.Misses, warmStats.BytesRead, engines)

	for i, e := range t3sim.ExperimentCatalogue() {
		if !bytes.Equal(coldOuts[i], warmOuts[i]) {
			t.Errorf("%s: warm replay differs from the cold run", e.Name)
			continue
		}
		want, err := os.ReadFile(filepath.Join(goldenDir, goldenFile(e.Name)))
		if err != nil {
			t.Fatalf("%v (generate snapshots with `go test . -run TestGolden -update-golden`)", err)
		}
		if !bytes.Equal(coldOuts[i], want) {
			reportDiff(t, e.Name, coldOuts[i], want)
		}
	}
}
