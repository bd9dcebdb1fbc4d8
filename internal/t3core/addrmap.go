package t3core

import (
	"fmt"

	"t3sim/internal/memory"
)

// Treatment says how a device's stores to one output chunk are handled,
// set by the §4.4 address-space configuration calls.
type Treatment int

// Treatments.
const (
	// TreatRemote is a remote_map chunk: the producer's stores go straight
	// to the peer's memory over the link (step-1 of Figure 7).
	TreatRemote Treatment = iota
	// TreatDMA is a dma_map chunk: stores update local memory, the tracker
	// counts them, and a pre-programmed DMA forwards the reduced chunk once
	// the expected updates complete (steady-state steps of Figure 7).
	TreatDMA
	// TreatLocalFinal is the owned chunk: stores update local memory and the
	// chunk's completion ends the device's collective; nothing is forwarded.
	TreatLocalFinal
)

// String implements fmt.Stringer.
func (t Treatment) String() string {
	switch t {
	case TreatRemote:
		return "remote_map"
	case TreatDMA:
		return "dma_map"
	case TreatLocalFinal:
		return "local"
	default:
		return fmt.Sprintf("Treatment(%d)", int(t))
	}
}

// Collective enumerates the fused collectives T3 supports (§4.4, §7.1).
type Collective int

// Collectives.
const (
	RingReduceScatter Collective = iota
	RingAllGather
	DirectReduceScatter
	AllToAll
)

// String implements fmt.Stringer.
func (c Collective) String() string {
	switch c {
	case RingReduceScatter:
		return "ring-reduce-scatter"
	case RingAllGather:
		return "ring-all-gather"
	case DirectReduceScatter:
		return "direct-reduce-scatter"
	case AllToAll:
		return "all-to-all"
	default:
		return fmt.Sprintf("Collective(%d)", int(c))
	}
}

// PhaseMap is the treatment of the chunk a device produces in one
// production phase. Producers generate chunks in a staggered order across
// devices (§4.4) so that every phase, each chunk is being produced by
// exactly one device.
type PhaseMap struct {
	// Phase is the production order index (0 = produced first).
	Phase int
	// Chunk is the output chunk index this phase produces.
	Chunk int
	// Treatment selects remote_map / dma_map / local handling.
	Treatment Treatment
	// Dest is the peer device for TreatRemote and TreatDMA.
	Dest int
	// Op is the access kind performed at the destination (and locally for
	// dma_map chunks): Update for reductions, Write for data movement.
	Op memory.AccessKind
	// UpdatesPerElement is the tracker trigger condition: how many updates
	// each element must see before the chunk is ready (§4.2.1).
	UpdatesPerElement int
}

// AddressMap is one device's §4.4 output configuration: a treatment per
// production phase. It corresponds to Figures 11 and 12 of the paper.
type AddressMap struct {
	Collective Collective
	Device     int
	Devices    int
	Phases     []PhaseMap
}

// Validate checks structural invariants: one entry per phase, chunks form a
// permutation, destinations on-ring.
func (m AddressMap) Validate() error {
	if m.Devices < 2 {
		return fmt.Errorf("t3core: address map needs >= 2 devices, got %d", m.Devices)
	}
	if m.Device < 0 || m.Device >= m.Devices {
		return fmt.Errorf("t3core: device %d out of range", m.Device)
	}
	if len(m.Phases) != m.Devices {
		return fmt.Errorf("t3core: %d phases for %d devices", len(m.Phases), m.Devices)
	}
	seen := make([]bool, m.Devices)
	for i, p := range m.Phases {
		if p.Phase != i {
			return fmt.Errorf("t3core: phase %d recorded as %d", i, p.Phase)
		}
		if p.Chunk < 0 || p.Chunk >= m.Devices || seen[p.Chunk] {
			return fmt.Errorf("t3core: chunk assignment not a permutation at phase %d", i)
		}
		seen[p.Chunk] = true
		if p.Treatment != TreatLocalFinal && (p.Dest < 0 || p.Dest >= m.Devices || p.Dest == m.Device) {
			return fmt.Errorf("t3core: phase %d dest %d invalid", i, p.Dest)
		}
		if p.UpdatesPerElement <= 0 {
			return fmt.Errorf("t3core: phase %d UpdatesPerElement = %d", i, p.UpdatesPerElement)
		}
	}
	return nil
}

// RingReduceScatterMap builds the §4.4 configuration for device d of n in a
// fused GEMM→ring-reduce-scatter, using the forward-ring convention of the
// collective package (chunk c starts at device c+1 and ends, fully reduced,
// at device c):
//
//   - phase 0 produces chunk (d−1) and remote-writes it into device d+1's
//     memory as NMC updates while the GEMM runs;
//   - phases 1..n−2 produce chunks (d−1−p) as local NMC updates; each
//     element expects 2 updates (local + incoming), after which the tracker
//     triggers a DMA update to device d+1;
//   - phase n−1 produces the owned chunk d; its completion (local + final
//     incoming DMA) ends the device's reduce-scatter.
func RingReduceScatterMap(device, devices int) AddressMap {
	m := AddressMap{Collective: RingReduceScatter, Device: device, Devices: devices}
	next := (device + 1) % devices
	for p := 0; p < devices; p++ {
		pm := PhaseMap{
			Phase:             p,
			Chunk:             mod(device-1-p, devices),
			Dest:              next,
			Op:                memory.Update,
			UpdatesPerElement: 2,
		}
		switch {
		case p == 0:
			pm.Treatment = TreatRemote
			pm.UpdatesPerElement = 1 // producer-side: not tracked locally
		case p == devices-1:
			pm.Treatment = TreatLocalFinal
		default:
			pm.Treatment = TreatDMA
		}
		m.Phases = append(m.Phases, pm)
	}
	return m
}

// RingAllGatherMap builds the fused GEMM→ring-all-gather configuration
// (§7.1): the device produces only its owned shard, which is remote-written
// to the next device and forwarded hop by hop; stores are plain writes (no
// reduction) and every element expects a single update.
func RingAllGatherMap(device, devices int) AddressMap {
	m := AddressMap{Collective: RingAllGather, Device: device, Devices: devices}
	next := (device + 1) % devices
	for p := 0; p < devices; p++ {
		pm := PhaseMap{
			Phase:             p,
			Chunk:             mod(device-p, devices),
			Dest:              next,
			Op:                memory.Write,
			UpdatesPerElement: 1,
		}
		switch {
		case p == 0:
			// The produced shard: written locally and remote-written onward.
			pm.Treatment = TreatRemote
		case p == devices-1:
			pm.Treatment = TreatLocalFinal
		default:
			pm.Treatment = TreatDMA
		}
		m.Phases = append(m.Phases, pm)
	}
	return m
}

// DirectReduceScatterMap builds the fully-connected-topology configuration
// (§7.1): every GEMM stage's output is sliced across the peers and
// remote-written directly to each owner; the collective needs no memory
// reads or DMAs of its own. The owned slice is the only locally stored one.
//
// The mirror timing model (RunFused) slices differently: it splits every
// tile 1/n across the devices as it is produced, keeping its own slice
// locally, rather than sending whole chunks phase by phase.
func DirectReduceScatterMap(device, devices int) AddressMap {
	m := AddressMap{Collective: DirectReduceScatter, Device: device, Devices: devices}
	for p := 0; p < devices; p++ {
		chunk := mod(device-p, devices)
		pm := PhaseMap{
			Phase:             p,
			Chunk:             chunk,
			Dest:              chunk, // chunk c is reduced at device c
			Op:                memory.Update,
			UpdatesPerElement: devices, // all contributions land in place
		}
		if chunk == device {
			pm.Treatment = TreatLocalFinal
		} else {
			pm.Treatment = TreatRemote
		}
		m.Phases = append(m.Phases, pm)
	}
	return m
}

// AllToAllMap builds the fused all-to-all configuration (§7.1): chunk j of
// the producer's output is remote-written to device j (and the owned chunk
// stored locally); nothing is reduced and nothing is forwarded.
//
// The mirror timing model (RunFused) orders production differently: it
// produces the owned chunk last, mirroring reduce-scatter's staggering,
// where this map produces it at phase 0.
func AllToAllMap(device, devices int) AddressMap {
	m := AddressMap{Collective: AllToAll, Device: device, Devices: devices}
	for p := 0; p < devices; p++ {
		chunk := mod(device-p, devices)
		pm := PhaseMap{
			Phase:             p,
			Chunk:             chunk,
			Dest:              chunk,
			Op:                memory.Write,
			UpdatesPerElement: 1,
		}
		if chunk == device {
			pm.Treatment = TreatLocalFinal
		} else {
			pm.Treatment = TreatRemote
		}
		m.Phases = append(m.Phases, pm)
	}
	return m
}

func mod(a, n int) int { return ((a % n) + n) % n }
