package t3core

import (
	"fmt"

	"t3sim/internal/collective"
	"t3sim/internal/gpu"
	"t3sim/internal/interconnect"
	"t3sim/internal/memory"
	"t3sim/internal/metrics"
	"t3sim/internal/sim"
	"t3sim/internal/units"
)

// MultiDeviceResult reports an explicit N-device fused run. It exists to
// validate the single-GPU mirror methodology (§5.1.1): under homogeneous
// execution every device should complete at (nearly) the same time, and
// that time should match the mirror run.
type MultiDeviceResult struct {
	// GEMMDone / CollectiveDone per device.
	GEMMDone       []units.Time
	CollectiveDone []units.Time
	// Done is the latest device completion plus communication drain.
	Done units.Time
	// DRAM aggregates all devices' traffic.
	DRAM memory.Counters
	// PerDeviceDRAM is each device's own traffic.
	PerDeviceDRAM []memory.Counters
	// LinkBytes sums the bytes every link accepted (transit hops count
	// once per traversed link).
	LinkBytes units.Bytes
	// TrackerMaxLive is the largest per-device high-water mark.
	TrackerMaxLive int
	// MCAThreshold is device 0's MCA occupancy limit at the end of the run
	// (0 if not MCA; -1 if unlimited).
	MCAThreshold int
	// Cluster is the scheduler's windowing summary: rounds, engine-window
	// executions, simulated time advanced and stall accounting. It
	// describes how the cluster synchronized, not what the model computed,
	// and is identical at every ParWorkers value.
	Cluster sim.ClusterStats
}

// Skew returns the spread between the earliest and latest device
// completion — a direct check of the homogeneity assumption.
func (r *MultiDeviceResult) Skew() units.Time {
	if len(r.CollectiveDone) == 0 {
		return 0
	}
	lo, hi := r.CollectiveDone[0], r.CollectiveDone[0]
	for _, t := range r.CollectiveDone[1:] {
		if t < lo {
			lo = t
		}
		if t > hi {
			hi = t
		}
	}
	return hi - lo
}

// multiDevice is one device's state in the explicit run. Every field is
// device-local: in cluster mode all of a device's handlers run on its own
// engine, so no two goroutines ever touch the same multiDevice.
type multiDevice struct {
	id   int
	run  *multiRun
	eng  *sim.Engine // the engine this device's handlers run on
	mem  *memory.Controller
	arb  memory.Arbiter
	trk  *Tracker
	dma  *DMATable
	amap AddressMap
	sink metrics.Sink // per-device "dev<i>" scope; nil without a run sink

	phaseOfChunk []int
	prodPhase    int // production cursor: address-map phase being written
	prodOff      int // and the next tile's offset within that phase's chunk
	ownedFence   *sim.Fence

	// Pooled callbacks (see fused_ops.go): the freelist of local-store
	// stage completions, and the freelist of tile deliveries this device
	// issues or has received.
	stageCBs []*stageCB
	ops      []*deliverOp

	gemmDone       units.Time
	collectiveDone units.Time
	err            error // first model error on this device (single-writer)
}

// multiRun owns the shared state of the explicit N-device simulation. The
// mutable pieces are all per-device (in devs); everything here is read-only
// after setup, so the cluster's worker goroutines share it freely.
type multiRun struct {
	o    FusedOptions
	cl   *sim.Cluster           // one engine per device
	topo *interconnect.Topology // o.Topo, or RingTopo(Devices, Link) when zero
	devs []*multiDevice

	tileBytes  units.Bytes
	totalTiles int
	chunkStart []int // address-space tile index where each chunk begins

	result MultiDeviceResult
}

// send moves n bytes from src to dst over the run's topology, along its
// deterministic shortest path (store-and-forward at intermediate hops).
func (r *multiRun) send(src, dst int, n units.Bytes, onDelivered sim.Handler) {
	r.topo.Send(src, dst, n, onDelivered)
}

// RunFusedGEMMRSMultiDevice executes the fused GEMM→ring-reduce-scatter
// with every device simulated explicitly: per-device memory systems,
// trackers and DMA tables, staggered production orders (§4.4), and real
// cross-device deliveries over the interconnect — no mirroring. A non-zero
// o.Topo replaces the implicit ring with an arbitrary topology graph: the
// ring schedule's neighbor sends are routed over the graph's deterministic
// shortest paths (store-and-forwarding at intermediate hops), which is how
// the topology sweep asks whether tracker-triggered overlap still wins on a
// torus, a switch, or a two-level hierarchy.
//
// Each device is simulated on its own engine inside a sim.Cluster, advanced
// in conservative windows bounded by the minimum link latency, using up to
// o.ParWorkers goroutines (0 and 1 both run every window inline on the
// calling goroutine). The result is byte-identical at every worker count.
// The minimum link latency is the cluster's lookahead and must be positive.
func RunFusedGEMMRSMultiDevice(o FusedOptions) (MultiDeviceResult, error) {
	if o.Collective != RingReduceScatter {
		return MultiDeviceResult{}, fmt.Errorf("t3core: multi-device run supports ring reduce-scatter, got %v", o.Collective)
	}
	if err := validateFusedCommon(o); err != nil {
		return MultiDeviceResult{}, err
	}
	if o.Grid.Tiling.SplitK != 1 {
		return MultiDeviceResult{}, fmt.Errorf("t3core: multi-device run supports SplitK=1 only")
	}
	r := &multiRun{o: o}
	n := o.Devices
	spec := o.Topo
	if spec.IsZero() {
		spec = interconnect.RingTopo(n, o.Link)
	}
	// The cluster's lookahead is the graph's minimum link latency, and a
	// conservative window needs it positive.
	minLat := spec.MinLinkLatency()
	if minLat <= 0 {
		return MultiDeviceResult{}, fmt.Errorf(
			"t3core: multi-device run needs a positive minimum link latency as the cluster lookahead, got %v", minLat)
	}
	r.cl = sim.NewCluster(n, minLat)
	r.cl.AttachChecker(o.Check)
	var err error
	if r.topo, err = spec.BuildCluster(r.cl); err != nil {
		return MultiDeviceResult{}, err
	}
	r.topo.AttachChecker(o.Check)
	r.topo.AttachMetrics(o.Metrics)
	r.tileBytes = o.Grid.WFTileBytes()
	r.totalTiles = o.Grid.NumWFs()
	bounds := collective.ChunkBounds(r.totalTiles, n)
	r.chunkStart = make([]int, n+1)
	for c := 0; c < n; c++ {
		r.chunkStart[c] = bounds[c][0]
	}
	r.chunkStart[n] = r.totalTiles

	r.devs = make([]*multiDevice, n)
	for d := 0; d < n; d++ {
		md, err := r.newDevice(d)
		if err != nil {
			return MultiDeviceResult{}, err
		}
		r.devs[d] = md
	}
	// Launch every device's GEMM at t=0 (§4.4: staggering is in the WG→tile
	// mapping, not the launch time).
	for d := 0; d < n; d++ {
		md := r.devs[d]
		kernel := &gpu.GEMMKernel{
			Eng:               md.eng,
			Mem:               md.mem,
			GPU:               o.GPU,
			Grid:              o.Grid,
			CUs:               o.GEMMCUs,
			OutputBypassesLLC: true,
			Monitor:           o.Arbitration == ArbMCA,
			WriteStage:        md.writeStage,
			DoubleBuffered:    o.DoubleBufferedGEMM,
			Metrics:           md.sink,
		}
		if err := kernel.Start(func() { md.gemmDone = md.eng.Now() }); err != nil {
			return MultiDeviceResult{}, err
		}
	}
	r.cl.Run(o.ParWorkers)
	st := r.cl.Stats()
	if o.Metrics != nil {
		// Coordination-layer summary for the -metrics JSON: how the cluster
		// synchronized, not what the model computed. Values are identical at
		// every worker count.
		cs := o.Metrics.Scope("cluster")
		cs.Counter("windows").Add(int64(st.Windows))
		cs.Counter("engine_windows").Add(int64(st.EngineWindows))
		cs.Counter("advance_ps").Add(int64(st.Advance))
		cs.Counter("stalled_engine_windows").Add(int64(st.StalledEngineWindows))
		cs.Counter("stall_ps").Add(int64(st.StallTime))
	}
	stalled := 0
	for _, md := range r.devs {
		if md.err != nil {
			return MultiDeviceResult{}, md.err
		}
		if !md.ownedFence.Fired() {
			stalled++
		}
	}
	if stalled > 0 {
		return MultiDeviceResult{}, fmt.Errorf("t3core: multi-device run stalled: %d devices incomplete", stalled)
	}
	res := &r.result
	for d := 0; d < n; d++ {
		md := r.devs[d]
		res.GEMMDone = append(res.GEMMDone, md.gemmDone)
		res.CollectiveDone = append(res.CollectiveDone, md.collectiveDone)
		cnt := md.mem.Counters()
		res.PerDeviceDRAM = append(res.PerDeviceDRAM, *cnt)
		for k := 0; k < 3; k++ {
			for s := 0; s < 2; s++ {
				res.DRAM.Bytes[k][s] += cnt.Bytes[k][s]
				res.DRAM.Requests[k][s] += cnt.Requests[k][s]
			}
		}
		if ml := md.trk.MaxLive(); ml > res.TrackerMaxLive {
			res.TrackerMaxLive = ml
		}
		if md.collectiveDone > res.Done {
			res.Done = md.collectiveDone
		}
	}
	if mca, ok := r.devs[0].arb.(*memory.MCA); ok {
		res.MCAThreshold = mca.Threshold()
	}
	res.LinkBytes = r.topo.SentBytes()
	res.Cluster = st
	return *res, nil
}

func (r *multiRun) newDevice(d int) (*multiDevice, error) {
	o := r.o
	arb, err := newArbiter(o)
	if err != nil {
		return nil, err
	}
	// Each device gets its own "dev<i>" scope so per-channel counter names
	// and timeline tracks stay distinct across the N memory systems.
	var sink metrics.Sink
	if o.Metrics != nil {
		sink = o.Metrics.Scope(fmt.Sprintf("dev%d", d))
		o.Memory.Metrics = sink
	}
	if o.Check != nil && o.Memory.Check == nil {
		o.Memory.Check = o.Check
	}
	eng := r.cl.Engine(d)
	mc, err := memory.NewController(eng, o.Memory, arb)
	if err != nil {
		return nil, err
	}
	md := &multiDevice{id: d, run: r, eng: eng, mem: mc, arb: arb, sink: sink, amap: RingReduceScatterMap(d, o.Devices)}
	if err := md.amap.Validate(); err != nil {
		return nil, err
	}
	md.phaseOfChunk = make([]int, o.Devices)
	for _, pm := range md.amap.Phases {
		md.phaseOfChunk[pm.Chunk] = pm.Phase
	}
	trk, err := NewTracker(o.Tracker)
	if err != nil {
		return nil, err
	}
	md.trk = trk
	md.dma = NewDMATable()
	// Program DMA commands for dma_mapped phases.
	next := (d + 1) % o.Devices
	for _, pm := range md.amap.Phases {
		if pm.Treatment != TreatDMA {
			continue
		}
		c := pm.Chunk
		for t := r.chunkStart[c]; t < r.chunkStart[c+1]; t++ {
			if err := md.dma.Program(tileIDFor(t), DMACommand{
				DestDevice: next, Op: memory.Update, Bytes: r.tileBytes,
			}); err != nil {
				return nil, err
			}
		}
	}
	if err := trk.SetProgram(Program{
		WFTileBytes:       r.tileBytes,
		UpdatesPerElement: 2,
		OnReady:           md.onReady,
	}); err != nil {
		return nil, err
	}
	ownedChunk := md.amap.Phases[o.Devices-1].Chunk
	ownedTiles := r.chunkStart[ownedChunk+1] - r.chunkStart[ownedChunk]
	md.ownedFence = sim.NewFence(ownedTiles, func() {
		md.collectiveDone = md.eng.Now()
	})
	return md, nil
}

// tileIDFor maps an address-space tile index to its tracker identity. Tile
// identities are addresses, shared by all devices: the §4.2.2 DMA metadata
// translation (source wg/wf → destination wg/wf) is the identity map here
// because our model indexes tiles by output position on every device.
func tileIDFor(t int) TileID { return TileID{WG: t / 8, WF: t % 8} }

// nextProdTile advances the device's production cursor by one index and
// returns the address-space tile it writes: phase p covers the chunk the
// address map assigns it, and production fills the phases in order. ok is
// false once production runs past the last phase.
func (md *multiDevice) nextProdTile() (tile int, pm PhaseMap, ok bool) {
	r := md.run
	for md.prodPhase < len(md.amap.Phases) {
		pm := md.amap.Phases[md.prodPhase]
		c := pm.Chunk
		if off := md.prodOff; off < r.chunkStart[c+1]-r.chunkStart[c] {
			md.prodOff++
			return r.chunkStart[c] + off, pm, true
		}
		md.prodPhase, md.prodOff = md.prodPhase+1, 0
	}
	return 0, PhaseMap{}, false
}

// writeStage routes one stage's production per the device's address map.
// It walks the stage's tiles twice from the same production cursor: first
// to count the local stores the stage fence waits for, then to issue them
// and the remote sends. Replaying the cursor keeps no per-device list of
// the stage's tiles alive for the whole run.
func (md *multiDevice) writeStage(_, wgs int, _ units.Bytes, onDone sim.Handler) {
	r := md.run
	count := wgs * r.o.Grid.Tiling.WFPerWG
	phase, off := md.prodPhase, md.prodOff
	local := 0
	for i := 0; i < count; i++ {
		_, pm, ok := md.nextProdTile()
		if !ok {
			break
		}
		if pm.Treatment != TreatRemote {
			local++
		}
	}
	md.prodPhase, md.prodOff = phase, off
	var cb *stageCB
	if local == 0 {
		// A stage with no local stores completes at once, before its
		// remote sends are issued.
		onDone()
	} else {
		cb = getStageCB(&md.stageCBs, md, local, onDone)
	}
	for i := 0; i < count; i++ {
		tile, pm, ok := md.nextProdTile()
		if !ok {
			break
		}
		if pm.Treatment == TreatRemote {
			// Peer store: over the interconnect into the next device's
			// memory as an NMC update.
			op := md.getDeliverOp(r.devs[pm.Dest], tile, r.tileBytes)
			r.send(md.id, pm.Dest, r.tileBytes, op.delivered)
			continue
		}
		md.mem.TransferTo(memory.Update, memory.StreamCompute, r.tileBytes,
			memory.Tag{WG: tile / 8, WF: tile % 8}, cb)
	}
}

// stageIncoming applies an arriving update (peer store or DMA) to local
// memory; Complete lets the tracker count it.
func (md *multiDevice) stageIncoming(tile int) {
	md.mem.TransferTo(memory.Update, memory.StreamComm, md.run.tileBytes,
		memory.Tag{WG: tile / 8, WF: tile % 8}, md)
}

// Complete implements memory.Completion for stageIncoming: the tag names
// the tile the update landed on.
func (md *multiDevice) Complete(tag memory.Tag) {
	md.observe(TileID{WG: tag.WG, WF: tag.WF})
}

func (md *multiDevice) observe(id TileID) {
	if err := md.trk.Observe(id, md.run.tileBytes); err != nil && md.err == nil {
		md.err = err
	}
}

// onReady fires when a tile's local and incoming updates complete: forward
// dma_mapped tiles, count owned ones.
func (md *multiDevice) onReady(id TileID) {
	cmd, ok := md.dma.MarkReady(id)
	if !ok {
		md.ownedFence.Done()
		return
	}
	op := md.getDeliverOp(md.run.devs[cmd.DestDevice], id.WG*8+id.WF, cmd.Bytes)
	md.mem.TransferTo(memory.Read, memory.StreamComm, cmd.Bytes,
		memory.Tag{WG: id.WG, WF: id.WF}, op)
}

// deliverOp carries one tile from the device that sends it to the device
// that stages it: a remote production store goes straight onto the link; a
// triggered DMA forward is first read from local memory (Complete), then
// sent. On delivery the destination stages the tile as an incoming update.
//
// On the cluster the two ends run on different engines, so the pools are
// split by engine: an op comes off the freelist of the device that issues
// it and goes back onto the freelist of the device that receives it, inside
// onDelivered. Every freelist is touched by its own device's engine only,
// and the mailbox that carries the delivery orders the handoff.
type deliverOp struct {
	src, dest *multiDevice
	tile      int
	bytes     units.Bytes
	delivered sim.Handler // prebuilt onDelivered
}

// Complete implements memory.Completion for a DMA forward's local read:
// push the partially reduced tile onto the link.
func (op *deliverOp) Complete(memory.Tag) {
	op.src.run.send(op.src.id, op.dest.id, op.bytes, op.delivered)
}

func (op *deliverOp) onDelivered() {
	dest := op.dest
	dest.stageIncoming(op.tile)
	dest.ops = append(dest.ops, op)
}

// getDeliverOp returns a delivery of tile, n bytes, from md to dest.
func (md *multiDevice) getDeliverOp(dest *multiDevice, tile int, n units.Bytes) *deliverOp {
	var op *deliverOp
	if ln := len(md.ops); ln > 0 {
		op = md.ops[ln-1]
		md.ops[ln-1] = nil
		md.ops = md.ops[:ln-1]
	} else {
		op = &deliverOp{}
		op.delivered = op.onDelivered
	}
	op.src, op.dest, op.tile, op.bytes = md, dest, tile, n
	return op
}
