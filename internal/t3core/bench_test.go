package t3core

import (
	"testing"

	"t3sim/internal/interconnect"
	"t3sim/internal/memory"
	"t3sim/internal/sim"
	"t3sim/internal/units"
)

// triggerHarness wires the §4 datapath the fused runner exercises per
// produced tile — NMC store bursts, the tracker counting each completed
// store (as stageCB does in the runners), the DMA table firing, the triggered block read,
// the ring send, and the mirrored remote update — with every callback
// prebuilt, so a steady-state burst through the whole chain can be pinned
// at zero allocations.
type triggerHarness struct {
	eng   *sim.Engine
	mem   *memory.Controller
	trk   *Tracker
	table *DMATable
	link  *interconnect.Link

	tiles     int
	tileBytes units.Bytes
	fired     int
	mirrored  int
	err       error

	readDone memory.CompletionFunc // triggered block read complete → ring send
	sent     sim.Handler           // ring delivery → mirrored NMC update
}

func newTriggerHarness(tb testing.TB, tiles int) *triggerHarness {
	tb.Helper()
	h := &triggerHarness{tiles: tiles, tileBytes: 4 * units.KiB}
	h.eng = sim.NewEngine()
	cfg := memory.DefaultConfig()
	cfg.Channels = 4
	cfg.TotalBandwidth = 4 * units.GBps
	cfg.RequestGranularity = 1 * units.KiB
	cfg.QueueDepth = 8
	mc, err := memory.NewController(h.eng, cfg, &memory.RoundRobin{})
	if err != nil {
		tb.Fatal(err)
	}
	h.mem = mc
	h.link, err = interconnect.NewLink(h.eng, interconnect.DefaultConfig())
	if err != nil {
		tb.Fatal(err)
	}
	h.trk, err = NewTracker(TrackerConfig{Sets: 64, Ways: 8, MaxWFsPerWG: 8})
	if err != nil {
		tb.Fatal(err)
	}
	h.table = NewDMATable(tiles)
	for g := 0; g < tiles; g++ {
		if err := h.table.Program(tileID(g),
			DMACommand{DestDevice: 1, Op: memory.Update, Bytes: h.tileBytes}); err != nil {
			tb.Fatal(err)
		}
	}
	h.readDone = func(memory.Tag) { h.link.Send(h.tileBytes, h.sent) }
	// The mirrored neighbor update carries no completion, so it never
	// reaches the tracker and the harness does not retrigger itself.
	h.sent = func() {
		h.mirrored++
		h.mem.Transfer(memory.Update, memory.StreamComm, h.tileBytes, memory.Tag{}, nil)
	}
	if err := h.trk.SetProgram(Program{
		WFTileBytes:       h.tileBytes,
		UpdatesPerElement: 1,
		OnReady: func(id TileID) {
			cmd, ok := h.table.MarkReady(id)
			if !ok {
				return
			}
			h.fired++
			h.mem.Transfer(memory.Read, memory.StreamComm, cmd.Bytes,
				memory.Tag{WG: id.WG, WF: id.WF}, h.readDone)
			// Rearm the entry so the next burst triggers again.
			if err := h.table.Program(id, cmd); err != nil {
				h.err = err
			}
		},
	}); err != nil {
		tb.Fatal(err)
	}
	return h
}

// Complete implements memory.Completion for one produced tile's store: the
// tracker counts the whole tile.
func (h *triggerHarness) Complete(tag memory.Tag) {
	if err := h.trk.Observe(TileID{WG: tag.WG, WF: tag.WF}, h.tileBytes); err != nil {
		h.err = err
	}
}

// burst produces every tile once and services the whole chain to quiescence.
func (h *triggerHarness) burst() {
	for g := 0; g < h.tiles; g++ {
		h.mem.Transfer(memory.Update, memory.StreamCompute, h.tileBytes,
			tileTag(g), h)
	}
	h.eng.Run()
}

// BenchmarkTriggerHotPath measures one steady-state burst through the full
// store→track→fire→read→send→mirror chain; allocs/op must be zero.
func BenchmarkTriggerHotPath(b *testing.B) {
	h := newTriggerHarness(b, 16)
	h.burst() // reach pools' and tables' high-water marks
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.burst()
	}
	if h.err != nil {
		b.Fatal(h.err)
	}
}

// TestTriggerSteadyStateAllocFree pins the fused inner loop's zero-alloc
// guarantee end to end: after one warmup burst, producing and servicing
// further bursts — tracker counting, DMA triggering, pooled transfers, link
// delivery, mirrored updates — allocates nothing.
func TestTriggerSteadyStateAllocFree(t *testing.T) {
	h := newTriggerHarness(t, 16)
	h.burst()
	if avg := testing.AllocsPerRun(50, h.burst); avg != 0 {
		t.Fatalf("steady-state burst allocates %.1f objects, want 0", avg)
	}
	if h.err != nil {
		t.Fatal(h.err)
	}
	if h.fired != 52*16 || h.mirrored != h.fired {
		t.Fatalf("fired %d triggers, mirrored %d deliveries; want 832 each", h.fired, h.mirrored)
	}
}

// BenchmarkTrackerObserveFire measures the tracker's own per-tile cycle:
// allocate on first touch, count to threshold, fire, retire.
func BenchmarkTrackerObserveFire(b *testing.B) {
	trk, err := NewTracker(TrackerConfig{Sets: 64, Ways: 8, MaxWFsPerWG: 8})
	if err != nil {
		b.Fatal(err)
	}
	fired := 0
	if err := trk.SetProgram(Program{
		WFTileBytes:       4 * units.KiB,
		UpdatesPerElement: 2,
		OnReady:           func(TileID) { fired++ },
	}); err != nil {
		b.Fatal(err)
	}
	id := TileID{WG: 5, WF: 3}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Two observes per fire: the local store and its mirrored update.
		if err := trk.Observe(id, 4*units.KiB); err != nil {
			b.Fatal(err)
		}
		if err := trk.Observe(id, 4*units.KiB); err != nil {
			b.Fatal(err)
		}
	}
	if fired != b.N {
		b.Fatalf("fired %d, want %d", fired, b.N)
	}
}

// BenchmarkDMATableSetGet measures the dense command table's program/trigger
// cycle on the trigger path's probe pattern.
func BenchmarkDMATableSetGet(b *testing.B) {
	id := TileID{WG: 37, WF: 5}
	table := NewDMATable(tileIndex(id) + 1)
	cmd := DMACommand{DestDevice: 1, Op: memory.Update, Bytes: 4 * units.KiB}
	if err := table.Program(id, cmd); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		got, ok := table.MarkReady(id)
		if !ok {
			b.Fatal("programmed command missing")
		}
		if err := table.Program(id, got); err != nil {
			b.Fatal(err)
		}
	}
}
