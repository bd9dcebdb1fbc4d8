// Package t3core implements the paper's contribution: the Track & Trigger
// mechanism at the memory controller (§4.2), the producer output
// address-space configuration (§4.4), and the fused producer-collective
// orchestration (§4.1) that overlaps a GEMM with its consumer collective
// without occupying any compute units.
package t3core

import (
	"fmt"

	"t3sim/internal/units"
)

// TileID identifies one wavefront's output tile by its producing workgroup
// and wavefront — the identity the paper's tracker is keyed by (§4.2.1).
// Memory accesses carry it as metadata.
type TileID struct {
	WG int
	WF int
}

// TrackerConfig sizes the hardware structure.
type TrackerConfig struct {
	// Sets is the number of direct-indexed entries (256 in the paper,
	// indexed by the WG id's low bits).
	Sets int
	// Ways bounds the set associativity. The paper's budget (19 KB) allows
	// 8 tagged ways per set: one per possible wavefront id.
	Ways int
	// MaxWFsPerWG bounds the wavefront id width (3 bits → 8).
	MaxWFsPerWG int
}

// DefaultTrackerConfig mirrors §4.2.1.
func DefaultTrackerConfig() TrackerConfig {
	return TrackerConfig{Sets: 256, Ways: 8, MaxWFsPerWG: 8}
}

// Validate reports whether the configuration is usable.
func (c TrackerConfig) Validate() error {
	switch {
	case c.Sets <= 0:
		return fmt.Errorf("t3core: Sets = %d", c.Sets)
	case c.Ways <= 0:
		return fmt.Errorf("t3core: Ways = %d", c.Ways)
	case c.MaxWFsPerWG <= 0 || c.MaxWFsPerWG > 8:
		return fmt.Errorf("t3core: MaxWFsPerWG = %d, must be 1..8 (3-bit wf_id)", c.MaxWFsPerWG)
	}
	return nil
}

// Program is what the driver writes into the tracker ahead of a fused
// launch (§4.4): the per-wavefront tile size, how many updates each element
// must see before the tile is ready (2 for ring reduce-scatter: one local,
// one remote/DMA), and the trigger callback — the pre-programmed DMA.
type Program struct {
	WFTileBytes       units.Bytes
	UpdatesPerElement int
	// TileBytes, if non-nil, overrides WFTileBytes per tile. The driver uses
	// it for ragged boundary tiles, whose sizes it already computes when
	// filling the DMA command table (§4.2.2).
	TileBytes func(t TileID) units.Bytes
	// OnReady fires exactly once per tile, when its expected bytes have all
	// been observed at the memory controller.
	OnReady func(t TileID)
}

// Validate reports whether the program is usable.
func (p Program) Validate() error {
	if p.WFTileBytes <= 0 {
		return fmt.Errorf("t3core: WFTileBytes = %v", p.WFTileBytes)
	}
	if p.UpdatesPerElement <= 0 {
		return fmt.Errorf("t3core: UpdatesPerElement = %d", p.UpdatesPerElement)
	}
	return nil
}

// threshold returns the byte count that completes one tile.
func (p Program) threshold(id TileID) units.Bytes {
	size := p.WFTileBytes
	if p.TileBytes != nil {
		size = p.TileBytes(id)
	}
	return size * units.Bytes(p.UpdatesPerElement)
}

// entry is one live tracker row.
type entry struct {
	tag     uint32 // (wg_msb << 3) | wf_id
	counter units.Bytes
}

// Tracker is the §4.2.1 structure: a set-associative counter table at the
// memory controller. Accesses tagged with (wg, wf) increment the matching
// entry; when a tile's counter reaches wf_tile_size × updates-per-element,
// the entry retires and the trigger fires. Tracker checks happen after
// requests enqueue at the controller, off the critical path, so the tracker
// itself adds no latency in the timing model.
type Tracker struct {
	cfg  TrackerConfig
	prog Program
	sets [][]entry
	slab []entry // uncarved first ways (see carve)

	live     int
	maxLive  int
	observed units.Bytes
	fired    int64
}

// NewTracker builds an empty tracker.
func NewTracker(cfg TrackerConfig) (*Tracker, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Tracker{cfg: cfg, sets: make([][]entry, cfg.Sets)}, nil
}

// SetProgram installs the launch configuration. It panics if entries are
// still live: reprogramming mid-launch would corrupt counters.
func (t *Tracker) SetProgram(p Program) error {
	if err := p.Validate(); err != nil {
		return err
	}
	if t.live != 0 {
		return fmt.Errorf("t3core: reprogramming tracker with %d live entries", t.live)
	}
	t.prog = p
	return nil
}

// Observe accounts bytes of one update (local store, remote store, or DMA
// update) against a tile. It allocates the entry on first touch and fires
// the program's trigger when the tile completes.
func (t *Tracker) Observe(id TileID, bytes units.Bytes) error {
	if t.prog.WFTileBytes == 0 {
		return fmt.Errorf("t3core: tracker not programmed")
	}
	if id.WG < 0 || id.WF < 0 || id.WF >= t.cfg.MaxWFsPerWG {
		return fmt.Errorf("t3core: bad tile id %+v", id)
	}
	if bytes <= 0 {
		return fmt.Errorf("t3core: observed %v bytes", bytes)
	}
	setIdx := id.WG % t.cfg.Sets
	tag := uint32(id.WG/t.cfg.Sets)<<3 | uint32(id.WF)
	set := t.sets[setIdx]
	slot := -1
	for i := range set {
		if set[i].tag == tag && set[i].counter > 0 {
			slot = i
			break
		}
	}
	if slot == -1 {
		// Allocate: reuse a retired way or append.
		for i := range set {
			if set[i].counter == 0 {
				slot = i
				set[i].tag = tag
				break
			}
		}
		if slot == -1 {
			if len(set) >= t.cfg.Ways {
				return fmt.Errorf("t3core: tracker set %d over capacity (%d ways)", setIdx, t.cfg.Ways)
			}
			if cap(set) == 0 {
				set = t.carve()
			}
			set = append(set, entry{tag: tag})
			t.sets[setIdx] = set
			slot = len(set) - 1
		}
		t.live++
		if t.live > t.maxLive {
			t.maxLive = t.live
		}
	}
	t.observed += bytes
	set[slot].counter += bytes
	th := t.prog.threshold(id)
	if set[slot].counter > th {
		return fmt.Errorf("t3core: tile %+v over-updated: %v > threshold %v", id, set[slot].counter, th)
	}
	if set[slot].counter == th {
		set[slot].counter = 0 // retire the way
		t.live--
		t.fired++
		if t.prog.OnReady != nil {
			t.prog.OnReady(id)
		}
	}
	return nil
}

// slabSets is how many sets' first ways one slab allocation holds.
const slabSets = 32

// carve returns an empty way slice for a set's first ways — one per
// wavefront id, so one live workgroup fits — cut from the tracker's slab. A
// touched set then allocates nothing of its own until it outgrows them, and
// an untouched set costs nothing: the slab grows a chunk at a time instead
// of reserving Sets×Ways up front.
func (t *Tracker) carve() []entry {
	w := min(t.cfg.Ways, t.cfg.MaxWFsPerWG)
	if len(t.slab) < w {
		t.slab = make([]entry, slabSets*w)
	}
	set := t.slab[:0:w]
	t.slab = t.slab[w:]
	return set
}

// Live returns the number of currently tracked (incomplete) tiles.
func (t *Tracker) Live() int { return t.live }

// MaxLive returns the high-water mark of concurrently tracked tiles; staying
// within Sets×Ways validates the paper's 19 KB hardware budget.
func (t *Tracker) MaxLive() int { return t.maxLive }

// Fired returns how many tiles have completed and triggered.
func (t *Tracker) Fired() int64 { return t.fired }

// ObservedBytes returns the total bytes accounted.
func (t *Tracker) ObservedBytes() units.Bytes { return t.observed }

// Capacity returns Sets×Ways, the hardware slot budget.
func (t *Tracker) Capacity() int { return t.cfg.Sets * t.cfg.Ways }
