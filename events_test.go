package t3sim_test

import (
	"testing"

	"t3sim"
)

// fig14Events is the number of events a fresh fig14 run dispatches. The
// count is deterministic — the same at any worker count and on any host —
// so it gates the simulator's work exactly where wall-clock time cannot: a
// change that adds, drops or merges events moves it, while a change to how
// the calendar stores them (heap or fixed-delay lanes) must not. A
// same-instant run of DRAM service completions counts as one event.
const fig14Events = 336344

func TestEventsDispatchedFig14(t *testing.T) {
	runner := t3sim.NewExperimentRunner(t3sim.DefaultExperimentSetup(), 2)
	for _, e := range t3sim.ExperimentCatalogue() {
		if e.Name != "fig14" {
			continue
		}
		ev0 := t3sim.EventsDispatched()
		if _, err := e.Run(runner); err != nil {
			t.Fatal(err)
		}
		if got := t3sim.EventsDispatched() - ev0; got != fig14Events {
			t.Errorf("fig14 dispatched %d events, want %d", got, fig14Events)
		}
		return
	}
	t.Fatal("fig14 is not in the catalogue")
}
