package experiments

import (
	"sync"
	"testing"

	"t3sim/internal/memory"
	"t3sim/internal/metrics"
)

// TestLiveSinkSingleWriter runs the 64-device explicit run on two cluster
// workers beside two sub-layer sweeps that evaluate the same case — the
// shared evaluator's and the link sweep's derived ones — concurrently on a
// two-job runner, all recording into one timeline-enabled registry. Every
// memory controller's traffic series and timeline track must have a single
// writer; under -race a shared one is a reported data race.
func TestLiveSinkSingleWriter(t *testing.T) {
	reg := metrics.NewRegistry()
	reg.EnableTimeline()
	setup := DefaultSetup()
	setup.Metrics = reg
	setup.MultiDeviceWorkers = 2
	r := NewRunner(setup, 2)
	var wg sync.WaitGroup
	for _, name := range []string{"multi64", "ablation-dma", "ablation-link"} {
		e, ok := CatalogueEntryByName(name)
		if !ok {
			t.Fatalf("%s missing from the catalogue", name)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := e.Run(r); err != nil {
				t.Errorf("%s: %v", e.Name, err)
			}
		}()
	}
	wg.Wait()
	c, err := ablationCase()
	if err != nil {
		t.Fatal(err)
	}
	for _, scope := range []string{"multi64/dev63", "fused-t3-mca/" + c.String(),
		"ablation-link/150GBps/fused-t3-mca/" + c.String()} {
		ts := reg.Scope(scope).Series(memory.TraceSeriesName(memory.Read, memory.StreamComm), memory.TraceBucket)
		if ts.Len() == 0 {
			t.Errorf("no comm-read traffic series under %s", scope)
		}
	}
}
