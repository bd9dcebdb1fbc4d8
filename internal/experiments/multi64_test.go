package experiments

import (
	"testing"

	"t3sim/internal/metrics"
)

// TestMulti64ClusterMetricsIndependentOfWorkers: every explicit multi-device
// run goes through the cluster, so the -metrics cluster/* coordination
// counters are filled at -par 0 too, and equal the ones a 4-worker run
// reports — as does every other counter the run registers.
func TestMulti64ClusterMetricsIndependentOfWorkers(t *testing.T) {
	counters := func(workers int) map[string]int64 {
		reg := metrics.NewRegistry()
		setup := DefaultSetup()
		setup.Metrics = reg
		setup.MultiDeviceWorkers = workers
		if _, err := Multi64(setup); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		out := make(map[string]int64)
		for _, name := range reg.CounterNames() {
			out[name] = reg.CounterValue(name)
		}
		return out
	}
	seq, par := counters(0), counters(4)
	if seq["multi64/cluster/windows"] == 0 {
		t.Fatalf("no cluster counters at -par 0: %v", seq)
	}
	for name, v := range seq {
		if par[name] != v {
			t.Errorf("%s: %d at -par 0, %d at -par 4", name, v, par[name])
		}
	}
	if len(seq) != len(par) {
		t.Errorf("-par 0 registered %d counters, -par 4 %d", len(seq), len(par))
	}
}
