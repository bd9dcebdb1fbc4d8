package t3core

import (
	"fmt"

	"t3sim/internal/memory"
	"t3sim/internal/units"
)

// DMACommand is one pre-programmed transfer in the §4.2.2 command table:
// when the tracker marks its region ready, the DMA engine reads the data
// locally and performs Op at the destination device. The engine generates
// the member addresses itself from the region's start address and geometry;
// the model carries only the byte count.
type DMACommand struct {
	DestDevice int
	Op         memory.AccessKind
	Bytes      units.Bytes
}

// dmaWFStride is the number of wavefront slots per workgroup in a tile
// identity: every TileID producer in this package maps a linear tile index g
// to {WG: g/8, WF: g%8} (tileID), so (WG, WF) flattens densely as WG*8+WF
// (tileIndex). The tracker enforces the matching bound
// (TrackerConfig.MaxWFsPerWG <= 8).
const dmaWFStride = 8

// tileID maps a linear tile index to its tracker identity.
func tileID(t int) TileID { return TileID{WG: t / dmaWFStride, WF: t % dmaWFStride} }

// tileIndex is tileID's inverse.
func tileIndex(id TileID) int { return id.WG*dmaWFStride + id.WF }

// tileTag is tileID as the memory metadata a tile's transfers carry.
func tileTag(t int) memory.Tag { return memory.Tag{WG: t / dmaWFStride, WF: t % dmaWFStride} }

// DMATable is the pre-programmed command table the driver fills during the
// §4.4 setup. Commands are keyed by the producing tile, the same identity
// the tracker fires with; marking an entry ready consumes it, so each tile
// DMAs exactly once.
//
// The table is a dense array indexed by the flattened (WG, WF) identity —
// the trigger check runs once per produced tile on the simulator's hottest
// path, and an array probe is both allocation-free and an order of magnitude
// cheaper than the map lookup it replaces. The array is sized once, from the
// tile domain the driver programs, so setup allocates it exactly once.
type DMATable struct {
	commands []DMACommand // slot per tile; Bytes == 0 marks an empty slot
	pending  int
	ready    int64
}

// NewDMATable returns an empty table for the tiles whose flattened identity
// WG*8+WF is below tiles. Programming a tile outside that domain is an
// error; triggering one finds no command.
func NewDMATable(tiles int) *DMATable {
	return &DMATable{commands: make([]DMACommand, max(tiles, 0))}
}

// slot flattens a tile identity to its table index, or -1 when the identity
// is outside the dense (WG, WF) domain.
func (t *DMATable) slot(id TileID) int {
	if id.WG < 0 || id.WF < 0 || id.WF >= dmaWFStride {
		return -1
	}
	return tileIndex(id)
}

// Program installs the command for a tile. Reprogramming a live entry is an
// error: the setup writes each entry once per launch.
func (t *DMATable) Program(id TileID, cmd DMACommand) error {
	if cmd.Bytes <= 0 {
		return fmt.Errorf("t3core: DMA command with %v bytes", cmd.Bytes)
	}
	if cmd.Op != memory.Write && cmd.Op != memory.Update {
		return fmt.Errorf("t3core: DMA command op %v", cmd.Op)
	}
	i := t.slot(id)
	if i < 0 || i >= len(t.commands) {
		return fmt.Errorf("t3core: DMA command for out-of-domain tile %+v (table of %d tiles)", id, len(t.commands))
	}
	if t.commands[i].Bytes != 0 {
		return fmt.Errorf("t3core: duplicate DMA command for %+v", id)
	}
	t.commands[i] = cmd
	t.pending++
	return nil
}

// MarkReady consumes and returns the command for a tile. The second result
// is false when no command is programmed (the tile is not dma_mapped).
func (t *DMATable) MarkReady(id TileID) (DMACommand, bool) {
	i := t.slot(id)
	if i < 0 || i >= len(t.commands) || t.commands[i].Bytes == 0 {
		return DMACommand{}, false
	}
	cmd := t.commands[i]
	t.commands[i] = DMACommand{}
	t.pending--
	t.ready++
	return cmd, true
}

// Pending returns the number of programmed, not-yet-triggered commands.
func (t *DMATable) Pending() int { return t.pending }

// Triggered returns how many commands have been consumed.
func (t *DMATable) Triggered() int64 { return t.ready }
