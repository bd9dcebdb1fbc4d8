package t3core

import (
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"t3sim/internal/metrics"
)

// TestFusedRunMetricsCoverage is the observability acceptance check: one
// fused run with a timeline-enabled sink must record spans on tracks from
// all four timing models (gpu, memory, interconnect, t3core), record the
// fused-run events as timeline instants, and export a parseable Chrome trace.
func TestFusedRunMetricsCoverage(t *testing.T) {
	reg := metrics.NewRegistry()
	reg.EnableTimeline()
	o := fusedOpts(t, 4)
	o.Metrics = reg
	res, err := RunFused(o)
	if err != nil {
		t.Fatal(err)
	}

	for _, track := range []string{"gpu", "memory", "link.fwd0", "t3core"} {
		found := false
		for _, name := range reg.TrackNames() {
			if name == track {
				found = true
			}
		}
		if !found {
			t.Errorf("no %q timeline track recorded; have %v", track, reg.TrackNames())
		}
	}

	// Counters registered by each model must agree with the run's result.
	if got := reg.CounterValue("t3core.tracker.triggers"); got != res.DMATriggered {
		t.Errorf("t3core.tracker.triggers = %d, want %d", got, res.DMATriggered)
	}
	if got := reg.GaugeValue("t3core.tracker.max_live"); got != int64(res.TrackerMaxLive) {
		t.Errorf("t3core.tracker.max_live = %d, want %d", got, res.TrackerMaxLive)
	}
	var chanBytes int64
	for _, name := range reg.CounterNames() {
		if strings.HasPrefix(name, "memory.chan") && strings.HasSuffix(name, "_bytes") {
			chanBytes += reg.CounterValue(name)
		}
	}
	if chanBytes != int64(res.DRAM.TotalBytes()) {
		t.Errorf("per-channel byte counters sum to %d, DRAM counters say %d",
			chanBytes, int64(res.DRAM.TotalBytes()))
	}
	if got := reg.CounterValue("interconnect.fwd0.sent_bytes"); got != int64(res.LinkBytes) {
		t.Errorf("interconnect.fwd0.sent_bytes = %d, want %d", got, int64(res.LinkBytes))
	}

	// Every fused-run event is a timeline instant, so the trace JSON must
	// mention each event kind that fired.
	var trace strings.Builder
	if err := reg.WriteTrace(&trace); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(trace.String()), &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if len(reg.Track("t3core").Instants(EventStageComputed.String())) == 0 {
		t.Fatal("no fused-run instants recorded")
	}
	for _, kind := range []EventKind{EventDMATriggered, EventGEMMDone, EventCollectiveDone} {
		if !strings.Contains(trace.String(), kind.String()) {
			t.Errorf("trace missing instants for %v", kind)
		}
	}
}

// TestFusedRunNilSinkUnchanged guards the zero-cost contract at the system
// level: attaching no sink must leave the simulation's results bit-identical
// to a run that never heard of metrics (it trivially does — this pins the
// plumbing never alters timing).
func TestFusedRunNilSinkUnchanged(t *testing.T) {
	plain, err := RunFused(fusedOpts(t, 4))
	if err != nil {
		t.Fatal(err)
	}
	reg := metrics.NewRegistry()
	reg.EnableTimeline()
	o := fusedOpts(t, 4)
	o.Metrics = reg
	instrumented, err := RunFused(o)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Done != instrumented.Done || plain.GEMMDone != instrumented.GEMMDone ||
		plain.CollectiveDone != instrumented.CollectiveDone {
		t.Errorf("instrumentation changed timing: %+v vs %+v", plain, instrumented)
	}
}

// TestMultiDeviceRunMetricsPerDevice checks the explicit run's per-device
// t3core instruments: each device's trigger counter agrees with its DMA
// gauge, and across devices they count every tile once per forwarding
// phase — each chunk is forwarded by n-2 devices.
func TestMultiDeviceRunMetricsPerDevice(t *testing.T) {
	const n = 4
	reg := metrics.NewRegistry()
	o := parOptions(t, 512, 512, 256, n)
	o.Metrics = reg
	if _, err := RunFusedGEMMRSMultiDevice(o); err != nil {
		t.Fatal(err)
	}
	var total int64
	for d := 0; d < n; d++ {
		trig := reg.CounterValue(fmt.Sprintf("dev%d/t3core.tracker.triggers", d))
		if g := reg.GaugeValue(fmt.Sprintf("dev%d/t3core.dma.triggered", d)); g != trig {
			t.Errorf("device %d: dma.triggered gauge %d, triggers counter %d", d, g, trig)
		}
		total += trig
	}
	if want := int64((n - 2) * o.Grid.NumWFs()); total != want {
		t.Errorf("%d DMA triggers across devices, want %d", total, want)
	}
}
