package t3core

import (
	"testing"

	"t3sim/internal/memory"
	"t3sim/internal/units"
)

func newTestTracker(t *testing.T, tileBytes units.Bytes, updates int) *Tracker {
	t.Helper()
	tr, err := NewTracker(DefaultTrackerConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.SetProgram(Program{WFTileBytes: tileBytes, UpdatesPerElement: updates}); err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestTrackerConfigValidate(t *testing.T) {
	if err := DefaultTrackerConfig().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []TrackerConfig{
		{Sets: 0, Ways: 8, MaxWFsPerWG: 8},
		{Sets: 256, Ways: 0, MaxWFsPerWG: 8},
		{Sets: 256, Ways: 8, MaxWFsPerWG: 0},
		{Sets: 256, Ways: 8, MaxWFsPerWG: 9}, // 3-bit wf_id
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("case %d: expected error", i)
		}
		if _, err := NewTracker(cfg); err == nil {
			t.Errorf("case %d: NewTracker should fail", i)
		}
	}
}

func TestTrackerFiresAtExactThreshold(t *testing.T) {
	tile := units.Bytes(8192)
	var fired []TileID
	tr := newTestTracker(t, tile, 2)
	tr.prog.OnReady = func(id TileID) { fired = append(fired, id) }

	id := TileID{WG: 42, WF: 3}
	// Local update in four partial accesses, then a remote update in one.
	for i := 0; i < 4; i++ {
		if err := tr.Observe(id, tile/4); err != nil {
			t.Fatal(err)
		}
	}
	if len(fired) != 0 {
		t.Fatal("fired after only local updates")
	}
	if err := tr.Observe(id, tile); err != nil {
		t.Fatal(err)
	}
	if len(fired) != 1 || fired[0] != id {
		t.Fatalf("fired = %v, want [%v]", fired, id)
	}
	if tr.Live() != 0 {
		t.Errorf("Live = %d after completion", tr.Live())
	}
	if tr.Fired() != 1 {
		t.Errorf("Fired = %d", tr.Fired())
	}
	if tr.ObservedBytes() != 2*tile {
		t.Errorf("ObservedBytes = %v", tr.ObservedBytes())
	}
}

func TestTrackerIndependentTiles(t *testing.T) {
	tile := units.Bytes(1024)
	fired := map[TileID]int{}
	tr := newTestTracker(t, tile, 2)
	tr.prog.OnReady = func(id TileID) { fired[id]++ }

	ids := []TileID{{0, 0}, {0, 1}, {256, 0}, {1, 7}} // {0,0} and {256,0} share a set
	for _, id := range ids {
		if err := tr.Observe(id, tile); err != nil {
			t.Fatal(err)
		}
	}
	if len(fired) != 0 {
		t.Fatal("premature fire")
	}
	if tr.Live() != len(ids) {
		t.Errorf("Live = %d, want %d", tr.Live(), len(ids))
	}
	for _, id := range ids {
		if err := tr.Observe(id, tile); err != nil {
			t.Fatal(err)
		}
	}
	for _, id := range ids {
		if fired[id] != 1 {
			t.Errorf("tile %v fired %d times", id, fired[id])
		}
	}
	if tr.MaxLive() != len(ids) {
		t.Errorf("MaxLive = %d, want %d", tr.MaxLive(), len(ids))
	}
}

func TestTrackerOverUpdateRejected(t *testing.T) {
	tile := units.Bytes(1024)
	tr := newTestTracker(t, tile, 1)
	id := TileID{WG: 1, WF: 1}
	if err := tr.Observe(id, tile/2); err != nil {
		t.Fatal(err)
	}
	if err := tr.Observe(id, tile); err == nil {
		t.Error("over-update: expected error")
	}
}

func TestTrackerSetOverflow(t *testing.T) {
	cfg := TrackerConfig{Sets: 4, Ways: 2, MaxWFsPerWG: 8}
	tr, err := NewTracker(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.SetProgram(Program{WFTileBytes: 100, UpdatesPerElement: 2}); err != nil {
		t.Fatal(err)
	}
	// Three incomplete tiles hitting set 0 exceed 2 ways.
	if err := tr.Observe(TileID{WG: 0, WF: 0}, 50); err != nil {
		t.Fatal(err)
	}
	if err := tr.Observe(TileID{WG: 4, WF: 0}, 50); err != nil {
		t.Fatal(err)
	}
	err = tr.Observe(TileID{WG: 8, WF: 0}, 50)
	if want := "t3core: tracker set 0 over capacity (2 ways)"; err == nil || err.Error() != want {
		t.Errorf("third tile in a 2-way set: error %v, want %q", err, want)
	}
}

// TestTrackerObserveAllocs pins the slab: a fresh catalogue-shaped tracker
// (64 ways) with one live workgroup in every set allocates the tracker, its
// set table and one slab chunk per slabSets sets — not one growing slice per
// set, and not Sets×Ways entries up front.
func TestTrackerObserveAllocs(t *testing.T) {
	cfg := TrackerConfig{Sets: 256, Ways: 64, MaxWFsPerWG: 8}
	var tr *Tracker // outlives the closure, so the tracker itself is on the heap
	allocs := testing.AllocsPerRun(5, func() {
		var err error
		if tr, err = NewTracker(cfg); err != nil {
			t.Fatal(err)
		}
		if err := tr.SetProgram(Program{WFTileBytes: 100, UpdatesPerElement: 2}); err != nil {
			t.Fatal(err)
		}
		for wg := 0; wg < cfg.Sets; wg++ {
			for wf := 0; wf < cfg.MaxWFsPerWG; wf++ {
				if err := tr.Observe(TileID{WG: wg, WF: wf}, 50); err != nil {
					t.Fatal(err)
				}
			}
		}
	})
	if want := float64(2 + cfg.Sets/slabSets); allocs != want {
		t.Errorf("fresh tracker with one live workgroup per set: %v allocs, want %v", allocs, want)
	}
}

func TestTrackerWayReuseAfterRetire(t *testing.T) {
	cfg := TrackerConfig{Sets: 4, Ways: 1, MaxWFsPerWG: 8}
	tr, _ := NewTracker(cfg)
	if err := tr.SetProgram(Program{WFTileBytes: 100, UpdatesPerElement: 1}); err != nil {
		t.Fatal(err)
	}
	// Complete a tile, then a different tile in the same set fits the way.
	if err := tr.Observe(TileID{WG: 0, WF: 0}, 100); err != nil {
		t.Fatal(err)
	}
	if err := tr.Observe(TileID{WG: 4, WF: 1}, 100); err != nil {
		t.Fatal(err)
	}
	if tr.Fired() != 2 {
		t.Errorf("Fired = %d, want 2", tr.Fired())
	}
	if tr.MaxLive() != 1 {
		t.Errorf("MaxLive = %d, want 1", tr.MaxLive())
	}
}

func TestTrackerErrors(t *testing.T) {
	tr, _ := NewTracker(DefaultTrackerConfig())
	if err := tr.Observe(TileID{0, 0}, 10); err == nil {
		t.Error("unprogrammed tracker: expected error")
	}
	if err := tr.SetProgram(Program{WFTileBytes: 0, UpdatesPerElement: 1}); err == nil {
		t.Error("zero tile size: expected error")
	}
	if err := tr.SetProgram(Program{WFTileBytes: 10, UpdatesPerElement: 0}); err == nil {
		t.Error("zero updates: expected error")
	}
	if err := tr.SetProgram(Program{WFTileBytes: 10, UpdatesPerElement: 1}); err != nil {
		t.Fatal(err)
	}
	if err := tr.Observe(TileID{WG: -1, WF: 0}, 5); err == nil {
		t.Error("negative WG: expected error")
	}
	if err := tr.Observe(TileID{WG: 0, WF: 8}, 5); err == nil {
		t.Error("WF out of range: expected error")
	}
	if err := tr.Observe(TileID{WG: 0, WF: 0}, 0); err == nil {
		t.Error("zero bytes: expected error")
	}
	// Reprogramming with live entries fails.
	if err := tr.Observe(TileID{WG: 0, WF: 0}, 5); err != nil {
		t.Fatal(err)
	}
	if err := tr.SetProgram(Program{WFTileBytes: 10, UpdatesPerElement: 1}); err == nil {
		t.Error("reprogram with live entries: expected error")
	}
}

func TestTrackerCapacity(t *testing.T) {
	tr, _ := NewTracker(DefaultTrackerConfig())
	if tr.Capacity() != 256*8 {
		t.Errorf("Capacity = %d, want 2048", tr.Capacity())
	}
}

func TestDMATable(t *testing.T) {
	tbl := NewDMATable(32)
	id := TileID{WG: 3, WF: 2}
	cmd := DMACommand{DestDevice: 1, Op: memory.Update, Bytes: 8192}
	if err := tbl.Program(id, cmd); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Program(id, cmd); err == nil {
		t.Error("duplicate program: expected error")
	}
	if tbl.Pending() != 1 {
		t.Errorf("Pending = %d", tbl.Pending())
	}
	got, ok := tbl.MarkReady(id)
	if !ok || got != cmd {
		t.Errorf("MarkReady = %+v, %v", got, ok)
	}
	if _, ok := tbl.MarkReady(id); ok {
		t.Error("second MarkReady should miss")
	}
	if tbl.Triggered() != 1 || tbl.Pending() != 0 {
		t.Errorf("Triggered = %d Pending = %d", tbl.Triggered(), tbl.Pending())
	}
}

func TestDMATableProgramValidation(t *testing.T) {
	tbl := NewDMATable(16)
	if err := tbl.Program(TileID{}, DMACommand{Op: memory.Update, Bytes: 0}); err == nil {
		t.Error("zero bytes: expected error")
	}
	if err := tbl.Program(TileID{}, DMACommand{Op: memory.Read, Bytes: 10}); err == nil {
		t.Error("read op: expected error")
	}
	cmd := DMACommand{Op: memory.Update, Bytes: 10}
	for _, id := range []TileID{{WG: 2, WF: 0}, {WG: -1}, {WF: 8}} {
		if err := tbl.Program(id, cmd); err == nil {
			t.Errorf("tile %+v outside a 16-tile table: expected error", id)
		}
		if _, ok := tbl.MarkReady(id); ok {
			t.Errorf("tile %+v outside a 16-tile table: MarkReady found a command", id)
		}
	}
	if err := tbl.Program(TileID{WG: 1, WF: 7}, cmd); err != nil {
		t.Errorf("last tile of the domain: %v", err)
	}
}

// TestDMATableSizedOnce pins the table's setup cost: programming every tile
// of its domain allocates at most the table and its command array, once,
// however many tiles there are — never a growth step per command — and the
// array is exactly the domain.
func TestDMATableSizedOnce(t *testing.T) {
	const tiles = 4096
	cmd := DMACommand{DestDevice: 1, Op: memory.Update, Bytes: 4 * units.KiB}
	var tbl *DMATable
	allocs := testing.AllocsPerRun(20, func() {
		tbl = NewDMATable(tiles)
		for g := 0; g < tiles; g++ {
			if err := tbl.Program(TileID{WG: g / 8, WF: g % 8}, cmd); err != nil {
				t.Fatal(err)
			}
		}
	})
	if allocs != 2 {
		t.Fatalf("programming %d tiles allocates %.0f objects, want 2 (table and commands)", tiles, allocs)
	}
	if len(tbl.commands) != tiles || cap(tbl.commands) != tiles || tbl.Pending() != tiles {
		t.Fatalf("table of %d tiles holds %d slots (cap %d), %d pending",
			tiles, len(tbl.commands), cap(tbl.commands), tbl.Pending())
	}
}
