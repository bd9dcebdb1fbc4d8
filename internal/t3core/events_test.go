package t3core

import (
	"encoding/json"
	"strings"
	"testing"

	"t3sim/internal/metrics"
	"t3sim/internal/units"
)

func TestEventKindStrings(t *testing.T) {
	kinds := []EventKind{EventStageComputed, EventRemoteWrite, EventDMATriggered,
		EventOwnedTileDone, EventGEMMDone, EventCollectiveDone, EventKind(99)}
	for _, k := range kinds {
		if k.String() == "" {
			t.Errorf("empty string for %d", int(k))
		}
	}
}

func TestFusedRunEmitsCoherentEvents(t *testing.T) {
	reg := metrics.NewRegistry()
	reg.EnableTimeline()
	o := fusedOpts(t, 4)
	o.Metrics = reg
	res, err := RunFusedGEMMRS(o)
	if err != nil {
		t.Fatal(err)
	}
	tiles := o.Grid.NumWFs()
	track := reg.Track("t3core")
	count := func(k EventKind) int { return len(track.Instants(k.String())) }
	first := func(k EventKind) units.Time {
		at := track.Instants(k.String())
		if len(at) == 0 {
			t.Fatalf("no %v instant recorded", k)
		}
		return at[0]
	}

	// Structural counts: one stage event per stage, remote writes for phase
	// 0's tiles, DMA triggers for phases 1..n-2, owned completions for the
	// last phase, and exactly one GEMM/collective completion each.
	if got := count(EventRemoteWrite); got != tiles/4 {
		t.Errorf("remote writes = %d, want %d", got, tiles/4)
	}
	if got := count(EventDMATriggered); got != tiles/2 {
		t.Errorf("DMA triggers = %d, want %d", got, tiles/2)
	}
	if got := count(EventOwnedTileDone); got != tiles/4 {
		t.Errorf("owned completions = %d, want %d", got, tiles/4)
	}
	if count(EventGEMMDone) != 1 || count(EventCollectiveDone) != 1 {
		t.Error("completion events wrong")
	}

	// Temporal coherence: the track's instants, in recording order across
	// every kind, are monotone; the first remote write precedes the first
	// DMA; completions match the result times.
	var doc struct {
		TraceEvents []struct {
			Ph   string  `json:"ph"`
			Ts   float64 `json:"ts"`
			Name string  `json:"name"`
		} `json:"traceEvents"`
	}
	var trace strings.Builder
	if err := reg.WriteTrace(&trace); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal([]byte(trace.String()), &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	kinds := map[string]bool{}
	for k := EventStageComputed; k <= EventCollectiveDone; k++ {
		kinds[k.String()] = true
	}
	prev, n := -1.0, 0
	for _, e := range doc.TraceEvents {
		if e.Ph != "i" || !kinds[e.Name] {
			continue
		}
		if e.Ts < prev {
			t.Fatalf("event %d (%s) went back in time: %v < %v µs", n, e.Name, e.Ts, prev)
		}
		prev = e.Ts
		n++
	}
	if n == 0 {
		t.Fatal("trace holds no fused-run instants")
	}
	if fw, fd := first(EventRemoteWrite), first(EventDMATriggered); fw > fd {
		t.Errorf("first remote write %v after first DMA %v", fw, fd)
	}
	if g := first(EventGEMMDone); g != res.GEMMDone {
		t.Errorf("GEMM event at %v, result says %v", g, res.GEMMDone)
	}
	if c := first(EventCollectiveDone); c != res.CollectiveDone {
		t.Errorf("collective event at %v, result says %v", c, res.CollectiveDone)
	}
	// DMA trigger count matches the result's counter.
	if int64(count(EventDMATriggered)) != res.DMATriggered {
		t.Error("event count disagrees with result counter")
	}
}

func TestFusedRunWithoutEventLog(t *testing.T) {
	// No sink attached: runs fine, nothing recorded.
	o := fusedOpts(t, 4)
	if _, err := RunFusedGEMMRS(o); err != nil {
		t.Fatal(err)
	}
}
