package experiments

import (
	"reflect"
	"strings"
	"sync"
	"testing"

	"t3sim/internal/check"
)

// multi256Reference is the sequential (MultiDeviceWorkers 0) 256-device run
// with an invariant checker attached. Both tests below read the one shared
// instance: every 256-device simulation is seconds long, and workers 0 and
// 1 take the same inline cluster path, so there is nothing to gain from
// running the reference twice.
type multi256Reference struct {
	res *Multi256Result
	chk *check.Checker
	err error
}

var multi256Ref = sync.OnceValue(func() multi256Reference {
	setup := DefaultSetup()
	chk := check.New()
	setup.Check = chk
	res, err := Multi256(setup)
	return multi256Reference{res: res, chk: chk, err: err}
})

// checkedMulti256Ref returns the shared reference, failing t if it errored
// or its checker recorded a violation.
func checkedMulti256Ref(t *testing.T) *Multi256Result {
	t.Helper()
	ref := multi256Ref()
	if ref.err != nil {
		t.Fatal(ref.err)
	}
	if !ref.chk.Ok() {
		t.Fatalf("reference violations: %v", ref.chk.Violations())
	}
	return ref.res
}

// TestMulti256RendersAllTopologies is the cheap smoke: the sequential
// reference must produce a row per topology variant with self-consistent
// times and a clean invariant checker.
func TestMulti256RendersAllTopologies(t *testing.T) {
	if testing.Short() {
		t.Skip("256-device run is long; run without -short")
	}
	res := checkedMulti256Ref(t)
	if len(res.Rows) != 3 {
		t.Fatalf("got %d rows, want ring/torus/hier", len(res.Rows))
	}
	for _, row := range res.Rows {
		if row.GEMMLast <= 0 || row.Done < row.CollectiveLast || row.CollectiveFirst < row.GEMMFirst {
			t.Errorf("%s: implausible times %+v", row.Topo, row)
		}
		if row.LinkBytes == 0 || row.DRAMBytes == 0 {
			t.Errorf("%s: missing traffic counters %+v", row.Topo, row)
		}
	}
	out := res.Render()
	for _, want := range []string{"ring-256", "torus-16x16", "hier-4x64"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered table missing %q:\n%s", want, out)
		}
	}
}

// TestMulti256ClusterWork pins the coordinator's work on the shared
// reference: rounds, engine-window executions and stalled engine-windows per
// topology. They are pure functions of the model, so a change that moves
// them changed how the cluster windows the run, not just how fast it does.
// TestMulti256ByteIdentity holds every worker count to the same values.
func TestMulti256ClusterWork(t *testing.T) {
	if testing.Short() {
		t.Skip("256-device run is long; run without -short")
	}
	want := map[string][3]uint64{
		"ring-256":    {421, 107_776, 0},
		"torus-16x16": {483, 121_648, 320},
		"hier-4x64":   {697, 170_188, 588},
	}
	for _, row := range checkedMulti256Ref(t).Rows {
		c := row.Cluster
		if got := [3]uint64{c.Windows, c.EngineWindows, c.StalledEngineWindows}; got != want[row.Topo] {
			t.Errorf("%s: windows/engine windows/stalled = %v, want %v", row.Topo, got, want[row.Topo])
		}
	}
}

// TestMulti256ByteIdentity is the scale oracle for the cluster coordinator:
// the 256-device result — all three topology variants, the cluster's work
// counters included — must DeepEqual the checked sequential reference at
// workers 2/4/8, with the invariant checker clean. Skipped under -short (it
// simulates 256 devices three times over, plus the shared reference).
func TestMulti256ByteIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("256-device equivalence sweep is long; run without -short")
	}
	want := checkedMulti256Ref(t)
	for _, workers := range []int{2, 4, 8} {
		s := DefaultSetup()
		s.MultiDeviceWorkers = workers
		chk := check.New()
		s.Check = chk
		got, err := Multi256(s)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("workers=%d: 256-device result diverged from sequential\n got: %+v\nwant: %+v",
				workers, got, want)
		}
		if !chk.Ok() {
			t.Errorf("workers=%d: violations: %v", workers, chk.Violations())
		}
	}
}
