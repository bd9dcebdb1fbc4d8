package t3core

import (
	"fmt"
	"math/rand"

	"t3sim/internal/collective"
	"t3sim/internal/units"
)

// FunctionalResult reports what the functional fused run did, so tests can
// check the hardware-budget and protocol invariants alongside the data.
type FunctionalResult struct {
	// Buffers are the per-device NMC accumulation buffers after the run;
	// device d's owned chunk region holds the fully reduced data.
	Buffers [][]float32
	// TrackerMaxLive is the per-device high-water mark of live tracker
	// entries (must stay within the 19 KB hardware budget).
	TrackerMaxLive []int
	// TrackerFired counts completed tiles per device.
	TrackerFired []int64
	// DMATriggered counts DMA commands consumed per device.
	DMATriggered []int64
	// RemoteWrites counts remote-mapped tile stores per device.
	RemoteWrites []int64
}

// funcDevice is one device's state in the functional protocol run.
type funcDevice struct {
	id      int
	amap    AddressMap
	tracker *Tracker
	dma     *DMATable
	buffer  []float32
	// phaseOfChunk inverts the address map: which phase produces a chunk.
	phaseOfChunk []int
	// tileBase[p] is the production-order index of phase p's first tile.
	tileBase []int
}

// RunFunctionalFusedReduceScatter executes the complete T3 fused
// GEMM→ring-reduce-scatter protocol on real data: every device "produces"
// its contribution tile by tile in the §4.4 staggered phase order; stores
// are routed by the address map (remote_map for phase 0, local NMC updates
// otherwise); the per-device trackers count local and incoming updates; and
// triggered DMAs forward partially reduced tiles around the ring. Tile
// production order within each phase is shuffled by seed to exercise
// order-independence.
//
// contributions[d] is device d's partial GEMM output (full length). After
// the run, device d's buffer holds the complete sum over its owned chunk —
// the reduce-scatter postcondition, verified against
// collective.ReferenceAllReduce by the tests.
func RunFunctionalFusedReduceScatter(contributions [][]float32, tileElems int, seed int64) (*FunctionalResult, error) {
	n := len(contributions)
	if n < 2 {
		return nil, fmt.Errorf("t3core: need >= 2 devices, got %d", n)
	}
	length := len(contributions[0])
	for d, c := range contributions {
		if len(c) != length {
			return nil, fmt.Errorf("t3core: device %d has %d elements, want %d", d, len(c), length)
		}
	}
	if tileElems <= 0 {
		return nil, fmt.Errorf("t3core: tileElems = %d", tileElems)
	}
	bounds := collective.ChunkBounds(length, n)
	rng := rand.New(rand.NewSource(seed))

	devs := make([]*funcDevice, n)
	for d := 0; d < n; d++ {
		fd, err := newFuncDevice(d, n, bounds, tileElems)
		if err != nil {
			return nil, err
		}
		devs[d] = fd
	}
	// Wire each tracker's trigger to its DMA table and the ring.
	var protoErr error
	fail := func(err error) {
		if protoErr == nil && err != nil {
			protoErr = err
		}
	}
	res := &FunctionalResult{
		Buffers:        make([][]float32, n),
		TrackerMaxLive: make([]int, n),
		TrackerFired:   make([]int64, n),
		DMATriggered:   make([]int64, n),
		RemoteWrites:   make([]int64, n),
	}
	for d := 0; d < n; d++ {
		d := d
		fd := devs[d]
		fd.tracker.prog.OnReady = func(id TileID) {
			cmd, ok := fd.dma.MarkReady(id)
			if !ok {
				return // owned-chunk tile: completion, nothing to forward
			}
			fail(deliverTile(devs, d, cmd.DestDevice, id, bounds, tileElems))
		}
	}

	// Produce: phases advance in lockstep; within a phase, devices and tiles
	// interleave in shuffled order (the protocol is order-independent).
	for p := 0; p < n; p++ {
		type job struct{ dev, tile int }
		var jobs []job
		for d := 0; d < n; d++ {
			for i := 0; i < devs[d].tilesInPhase(p, bounds, tileElems); i++ {
				jobs = append(jobs, job{d, i})
			}
		}
		rng.Shuffle(len(jobs), func(i, j int) { jobs[i], jobs[j] = jobs[j], jobs[i] })
		for _, j := range jobs {
			if err := produceTile(devs, contributions, j.dev, p, j.tile, bounds, tileElems, res); err != nil {
				return nil, err
			}
			if protoErr != nil {
				return nil, protoErr
			}
		}
	}
	if protoErr != nil {
		return nil, protoErr
	}

	for d := 0; d < n; d++ {
		res.Buffers[d] = devs[d].buffer
		res.TrackerMaxLive[d] = devs[d].tracker.MaxLive()
		res.TrackerFired[d] = devs[d].tracker.Fired()
		res.DMATriggered[d] = devs[d].dma.Triggered()
		if pending := devs[d].dma.Pending(); pending != 0 {
			return nil, fmt.Errorf("t3core: device %d finished with %d DMA commands pending", d, pending)
		}
		if live := devs[d].tracker.Live(); live != 0 {
			return nil, fmt.Errorf("t3core: device %d finished with %d live tracker entries", d, live)
		}
	}
	return res, nil
}

func newFuncDevice(d, n int, bounds [][2]int, tileElems int) (*funcDevice, error) {
	amap := RingReduceScatterMap(d, n)
	if err := amap.Validate(); err != nil {
		return nil, err
	}
	tr, err := NewTracker(DefaultTrackerConfig())
	if err != nil {
		return nil, err
	}
	length := bounds[len(bounds)-1][1]
	fd := &funcDevice{
		id:           d,
		amap:         amap,
		tracker:      tr,
		buffer:       make([]float32, length),
		phaseOfChunk: make([]int, n),
		tileBase:     make([]int, n+1),
	}
	// UpdatesPerElement is uniform (2) across tracked phases for ring-RS;
	// boundary tiles get their exact driver-computed size.
	if err := tr.SetProgram(Program{
		WFTileBytes:       units.Bytes(tileElems) * 4, // float32 elements
		UpdatesPerElement: 2,
		TileBytes: func(id TileID) units.Bytes {
			p, i := fd.tileLoc(id)
			lo, hi := tileRange(bounds[fd.amap.Phases[p].Chunk], i, tileElems)
			return units.Bytes(hi-lo) * 4
		},
	}); err != nil {
		return nil, err
	}
	for _, pm := range amap.Phases {
		fd.phaseOfChunk[pm.Chunk] = pm.Phase
	}
	for p := 0; p < n; p++ {
		fd.tileBase[p+1] = fd.tileBase[p] + fd.tilesInPhase(p, bounds, tileElems)
	}
	// Pre-program the DMA commands for dma_mapped phases (§4.4 setup).
	fd.dma = NewDMATable(fd.tileBase[n])
	for _, pm := range amap.Phases {
		if pm.Treatment != TreatDMA {
			continue
		}
		for i := 0; i < fd.tilesInPhase(pm.Phase, bounds, tileElems); i++ {
			lo, hi := tileRange(bounds[pm.Chunk], i, tileElems)
			err := fd.dma.Program(fd.tileID(pm.Phase, i), DMACommand{
				DestDevice: pm.Dest,
				Op:         pm.Op,
				Bytes:      units.Bytes(hi-lo) * 4,
			})
			if err != nil {
				return nil, err
			}
		}
	}
	return fd, nil
}

// tilesInPhase returns how many tiles the phase's chunk splits into.
func (fd *funcDevice) tilesInPhase(p int, bounds [][2]int, tileElems int) int {
	b := bounds[fd.amap.Phases[p].Chunk]
	sz := b[1] - b[0]
	return (sz + tileElems - 1) / tileElems
}

// tileID maps a (phase, tile) to the device's production-order tracker
// identity: consecutive tiles fill the 8 wavefront slots of successive WGs.
func (fd *funcDevice) tileID(p, i int) TileID {
	return tileID(fd.tileBase[p] + i)
}

// tileLoc inverts tileID.
func (fd *funcDevice) tileLoc(id TileID) (phase, tile int) {
	g := tileIndex(id)
	p := 0
	for fd.tileBase[p+1] <= g {
		p++
	}
	return p, g - fd.tileBase[p]
}

// tileRange returns the element range of tile i within a chunk's bounds.
func tileRange(b [2]int, i, tileElems int) (lo, hi int) {
	lo = b[0] + i*tileElems
	hi = lo + tileElems
	if hi > b[1] {
		hi = b[1]
	}
	return lo, hi
}

// produceTile models device d's GEMM writing one tile of its phase-p chunk.
func produceTile(devs []*funcDevice, contributions [][]float32, d, p, i int, bounds [][2]int, tileElems int, res *FunctionalResult) error {
	fd := devs[d]
	pm := fd.amap.Phases[p]
	lo, hi := tileRange(bounds[pm.Chunk], i, tileElems)
	switch pm.Treatment {
	case TreatRemote:
		// remote_map: stores update the peer's memory directly; the peer's
		// tracker counts them against the peer's own tile identity.
		res.RemoteWrites[d]++
		dst := devs[pm.Dest]
		for e := lo; e < hi; e++ {
			dst.buffer[e] += contributions[d][e]
		}
		q := dst.phaseOfChunk[pm.Chunk]
		return dst.tracker.Observe(dst.tileID(q, i), units.Bytes(hi-lo)*4)
	case TreatDMA, TreatLocalFinal:
		// Local NMC update; the local tracker counts it.
		for e := lo; e < hi; e++ {
			fd.buffer[e] += contributions[d][e]
		}
		return fd.tracker.Observe(fd.tileID(p, i), units.Bytes(hi-lo)*4)
	default:
		return fmt.Errorf("t3core: unknown treatment %v", pm.Treatment)
	}
}

// deliverTile performs a triggered DMA: the partially reduced tile in the
// source buffer updates the destination's memory, and the destination's
// tracker counts the incoming update.
func deliverTile(devs []*funcDevice, src, dst int, id TileID, bounds [][2]int, tileElems int) error {
	fd := devs[src]
	p, i := fd.tileLoc(id)
	chunk := fd.amap.Phases[p].Chunk
	lo, hi := tileRange(bounds[chunk], i, tileElems)

	dd := devs[dst]
	for e := lo; e < hi; e++ {
		dd.buffer[e] += fd.buffer[e]
	}
	q := dd.phaseOfChunk[chunk]
	return dd.tracker.Observe(dd.tileID(q, i), units.Bytes(hi-lo)*4)
}
