package t3core

import "fmt"

// EventKind classifies fused-run events. A run with a metrics sink records
// each event as an instant on its "t3core" timeline track, named by the
// kind's String.
type EventKind int

// Event kinds, in the rough order they occur per phase.
const (
	// EventStageComputed fires when a GEMM stage's MACs finish.
	EventStageComputed EventKind = iota
	// EventRemoteWrite fires when a remote-mapped tile leaves on the link.
	EventRemoteWrite
	// EventDMATriggered fires when the tracker triggers a tile's DMA.
	EventDMATriggered
	// EventOwnedTileDone fires when an owned-chunk tile completes.
	EventOwnedTileDone
	// EventGEMMDone fires when the producer kernel finishes.
	EventGEMMDone
	// EventCollectiveDone fires when the device's collective completes.
	EventCollectiveDone
)

// String implements fmt.Stringer.
func (k EventKind) String() string {
	switch k {
	case EventStageComputed:
		return "stage-computed"
	case EventRemoteWrite:
		return "remote-write"
	case EventDMATriggered:
		return "dma-triggered"
	case EventOwnedTileDone:
		return "owned-tile-done"
	case EventGEMMDone:
		return "gemm-done"
	case EventCollectiveDone:
		return "collective-done"
	default:
		return fmt.Sprintf("EventKind(%d)", int(k))
	}
}
