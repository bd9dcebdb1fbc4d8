package experiments

import (
	"reflect"
	"sync"
	"testing"
)

// TestEvaluateAllMatchesSequential is the determinism regression for the
// parallel orchestration layer: EvaluateAll over all Figure 15/16/18 cases
// must produce results deeply equal to one-at-a-time Evaluate calls on a
// fully serial evaluator, and two independent parallel runs must match each
// other. Each simulation owns a private sim.Engine, so only goroutine
// scheduling — never results — may differ between runs.
func TestEvaluateAllMatchesSequential(t *testing.T) {
	cases := SmallModelCases()

	serial, err := NewEvaluator(DefaultSetup())
	if err != nil {
		t.Fatal(err)
	}
	serial.Parallelism = 1
	want := make([]SublayerResult, len(cases))
	for i, c := range cases {
		if want[i], err = serial.Evaluate(c); err != nil {
			t.Fatal(err)
		}
	}

	parallelRun := func() []SublayerResult {
		t.Helper()
		ev, err := NewEvaluator(DefaultSetup())
		if err != nil {
			t.Fatal(err)
		}
		ev.Parallelism = 4 // force real concurrency even on one core
		got, err := ev.EvaluateAll(cases)
		if err != nil {
			t.Fatal(err)
		}
		return got
	}

	run1 := parallelRun()
	run2 := parallelRun()
	for i, c := range cases {
		if !reflect.DeepEqual(run1[i], want[i]) {
			t.Errorf("%s: parallel result differs from sequential:\n  parallel:   %+v\n  sequential: %+v",
				c, run1[i], want[i])
		}
		if !reflect.DeepEqual(run1[i], run2[i]) {
			t.Errorf("%s: two parallel runs differ:\n  run1: %+v\n  run2: %+v", c, run1[i], run2[i])
		}
	}
}

// TestEvaluateSingleflight checks that racing Evaluate calls for one case
// all see the identical result and the case is simulated exactly once
// (observable as a stable memoized value; the race detector guards the
// bookkeeping itself).
func TestEvaluateSingleflight(t *testing.T) {
	ev := evaluator(t) // shared: the case is likely cached already, also fine
	c := SmallModelCases()[0]
	const callers = 8
	results := make([]SublayerResult, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			r, err := ev.Evaluate(c)
			if err != nil {
				t.Error(err)
				return
			}
			results[i] = r
		}(i)
	}
	wg.Wait()
	for i := 1; i < callers; i++ {
		if !reflect.DeepEqual(results[i], results[0]) {
			t.Fatalf("caller %d saw a different result", i)
		}
	}
}

// TestEvaluateAllDuplicates checks that duplicate entries dedupe through the
// singleflight and still come back position-correct.
func TestEvaluateAllDuplicates(t *testing.T) {
	ev := evaluator(t)
	base := SmallModelCases()[:2]
	dup := []SubCase{base[0], base[1], base[0], base[0], base[1]}
	got, err := ev.EvaluateAll(dup)
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range dup {
		if got[i].Case.String() != c.String() {
			t.Errorf("result %d is for %v, want %v", i, got[i].Case, c)
		}
	}
	if !reflect.DeepEqual(got[0], got[2]) || !reflect.DeepEqual(got[0], got[3]) {
		t.Error("duplicate cases returned different results")
	}
}

// TestDerivedEvaluatorKeepsParallelism pins that an evaluator a driver
// derives for a setup variant (fig20's 2x-CU twin, ablation-link's
// bandwidths) inherits its parent's Parallelism: a child of a fully serial
// parent simulates its schemes back-to-back on one goroutine, and a child of
// a default parent keeps the GOMAXPROCS default.
func TestDerivedEvaluatorKeepsParallelism(t *testing.T) {
	for _, par := range []int{1, 0, 3} {
		parent, err := NewEvaluator(DefaultSetup())
		if err != nil {
			t.Fatal(err)
		}
		parent.Parallelism = par
		s := parent.Setup
		s.Link.LinkBandwidth /= 2
		child, err := parent.derive(s, "variant")
		if err != nil {
			t.Fatal(err)
		}
		if child.Parallelism != par || child.workers() != parent.workers() {
			t.Errorf("parent Parallelism %d: child Parallelism %d, %d workers; parent %d workers",
				par, child.Parallelism, child.workers(), parent.workers())
		}
		if child.Setup.Link.LinkBandwidth != s.Link.LinkBandwidth {
			t.Errorf("parent Parallelism %d: child dropped the setup variant", par)
		}
	}
}
