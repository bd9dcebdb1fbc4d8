package t3core

import (
	"reflect"
	"testing"

	"t3sim/internal/check"
)

// Falsifiability and zero-cost tests for the invariant checker as wired into
// the fused runners. A checker that never fires proves nothing — so one test
// injects a real conservation bug (a silently dropped mirrored update, via
// the testDropIncoming hook) and demands the checker catch it; the others pin
// that attaching or omitting the checker cannot change a single timing bit.

// TestCheckerCatchesDroppedUpdate drops one incoming update — a mirrored
// arrival in the mirror run, a delivery to device 1 in the explicit run —
// and asserts the end-of-run conservation laws flag the run. The drop
// starves a tracker entry of its last expected write, so the run stalls
// with live tracker state — exactly the class of model bug the checker
// exists for.
func TestCheckerCatchesDroppedUpdate(t *testing.T) {
	for _, tc := range []struct {
		name string
		path string // where the tracker laws must fire
		run  func(o FusedOptions) error
	}{
		{"mirror", "t3core.tracker", func(o FusedOptions) error {
			r, err := newFusedRun(o, false)
			if err != nil {
				t.Fatal(err)
			}
			r.devs[0].testDropIncoming = 1
			return r.run()
		}},
		{"explicit", "t3core.dev1.tracker", func(o FusedOptions) error {
			r, err := newFusedRun(o, true)
			if err != nil {
				t.Fatal(err)
			}
			r.devs[1].testDropIncoming = 1
			return r.run()
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			o := fusedOpts(t, 4)
			c := check.New()
			o.Check = c
			if err := tc.run(o); err == nil {
				t.Error("run with a dropped update completed without error")
			}
			vs := c.Violations()
			if len(vs) == 0 {
				t.Fatal("checker recorded no violations for a dropped update")
			}
			rules := map[string]bool{}
			for _, v := range vs {
				if v.Path == tc.path {
					rules[v.Rule] = true
				}
			}
			for _, rule := range []string{check.RuleConservation + "/drain", check.RuleConservation + "/fired"} {
				if !rules[rule] {
					t.Errorf("no %s violation on %s among %d recorded: %v", rule, tc.path, len(vs), vs)
				}
			}
		})
	}
}

// TestCheckerDoesNotPerturbTimings runs the same fused collective with no
// checker and with a recording checker and requires bit-identical results:
// the checker is a pure observer, so every timing, byte count and diagnostic
// must match exactly — any drift means a check is steering the simulation.
func TestCheckerDoesNotPerturbTimings(t *testing.T) {
	for _, tc := range []struct {
		name string
		coll Collective
	}{
		{"rs", RingReduceScatter},
		{"direct-rs", DirectReduceScatter},
		{"ag", RingAllGather},
		{"a2a", AllToAll},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			plain := fusedOpts(t, 4)
			plain.Collective = tc.coll
			bare, err := RunFused(plain)
			if err != nil {
				t.Fatal(err)
			}

			checked := plain
			c := check.New()
			checked.Check = c
			audited, err := RunFused(checked)
			if err != nil {
				t.Fatal(err)
			}
			for _, v := range c.Violations() {
				t.Errorf("invariant violation: %s", v)
			}

			if !reflect.DeepEqual(bare, audited) {
				t.Errorf("checker perturbed the run:\n  nil checker: %+v\n  checked:     %+v", bare, audited)
			}
		})
	}
}
