package t3core

import (
	"fmt"

	"t3sim/internal/check"
	"t3sim/internal/collective"
	"t3sim/internal/gpu"
	"t3sim/internal/interconnect"
	"t3sim/internal/memory"
	"t3sim/internal/metrics"
	"t3sim/internal/sim"
	"t3sim/internal/units"
)

// fusedRun is one timed fused GEMM→collective simulation, built from three
// parts: the GEMM producer's stages on every simulated device; each
// device's address-map phases, with the tile span each phase produces; and
// a per-tile trigger→send rule naming the device and the tiles a delivery
// lands on. The two ways the paper runs it differ only in setup data:
//
//   - The single-GPU mirror (§5.1.1) simulates device 0 alone on one
//     sim.Engine: all devices of a group execute identically, so each
//     delivery it sends also stands for a peer's identical send arriving
//     here, and lands back on the device itself. Its tiles are indexed in
//     production order and split into n near-equal phases (p·T/n); a ring
//     collective's delivery lands on the matching tile(s) of the next phase
//     (mirrorTargets), the region the previous neighbor's identical send
//     updates, and direct reduce-scatter's and all-to-all's on the same
//     tile. Every collective of FusedOptions runs this way.
//   - The explicit run simulates all n devices of a ring reduce-scatter on
//     a sim.Cluster. Each device's phases cover the address-space chunks of
//     its own RingReduceScatterMap (collective.ChunkBounds), and a delivery
//     crosses Topology.Send to the phase's destination device and lands on
//     the same tile there.
//
// Everything here is read-only after setup; the mutable state is per
// device, so the cluster's worker goroutines share a run freely.
type fusedRun struct {
	o     FusedOptions
	cl    *sim.Cluster // nil on the mirror's one engine
	topo  *interconnect.Topology
	links []*interconnect.Link // the links whose busy time the checker bounds
	devs  []*fusedDevice

	// addressMap is the collective's §4.4 map of each device; span places
	// phase p of a device's map in its tile space.
	addressMap func(device, devices int) AddressMap
	span       func(p int, pm PhaseMap) (lo, hi int)

	kind       memory.AccessKind // Update for reductions, Write for data movement
	mirrorNext bool              // deliveries land on the next phase (mirrorTargets)
	blockTiles int               // tiles per triggered DMA (ring RS mirror only)

	// Credits of a local production store and of an arrival. When arrivals
	// credit the completion fence, tracker fires do not.
	storeCredit  credit
	arriveCredit credit

	tileBytes units.Bytes
	sendBytes units.Bytes // one remote send (a 1/n slice for direct RS)
	keep      units.Bytes // direct RS: the tile's own slice, stored locally
	prodTiles int         // tiles the GEMM produces on each device
	spanName  string      // the collective's timeline span

	chkRing *check.Ledger // wire bytes injected vs delivered (one engine only)
}

// fusedDevice is one simulated GPU: the memory controller under its
// arbitration policy, the tracker, the §4.2.2 DMA command table and the
// producer kernel, plus the device's phases and its run state. All of it
// is touched by the device's own engine only.
type fusedDevice struct {
	r    *fusedRun
	id   int
	eng  *sim.Engine
	name string // checker path prefix: "t3core", or "t3core.dev<i>"

	arb    memory.Arbiter
	mem    *memory.Controller
	trk    *Tracker
	dma    *DMATable
	kernel *gpu.GEMMKernel

	phases  []phase // by production phase
	peers   []int   // where a phase's remote sends go
	hint    int     // the phase phaseOf found last
	tracked int     // tiles the tracker must fire over the run
	done    *sim.Fence

	wgCursor int // production cursor: the next stage's first WG

	// blockFill counts fired tiles per DMA block when blockTiles > 1. Blocks
	// are dense: blockOff[p] is phase p's first block index, so block b of
	// phase p lives at blockFill[blockOff[p]+b].
	blockFill []int
	blockOff  []int

	arrival landing // a landed remote send
	kept    landing // direct RS: the tile's own 1/n slice

	// Freelists of the pooled per-event callbacks (see fused_ops.go). A
	// delivery comes off its sender's list and goes back onto its lander's.
	stageCBs   []*stageCB
	deliveries []*delivery

	gemmDone, collectiveDone, drained units.Time
	err                               error // first model error on this device

	sink     metrics.Sink     // the device's instruments: o.Metrics, or its "dev<i>" scope
	mtrack   *metrics.Track   // "t3core" timeline (nil-safe)
	mTrigger *metrics.Counter // tracker-fired DMA triggers
	mRemote  *metrics.Counter // remote-mapped production stores
	chkDMA   *check.Once      // one triggered DMA per dma_mapped tile

	// testDropIncoming, when positive, silently discards that many
	// deliveries landing here — a deliberately injected conservation bug
	// used by the checker's falsifiability test. Never set outside tests.
	testDropIncoming int
}

// phase is one production phase of a device: the production indices
// [start, end) of its tiles, the tile index lo its chunk starts at, and what
// happens to each tile it produces (§4.4): a local store on the compute
// stream, a remote send to each of the device's peers, or both.
type phase struct {
	lo, start, end int
	store, send    bool
}

func (ph *phase) size() int { return ph.end - ph.start }

// hi is the tile index past the phase's chunk.
func (ph *phase) hi() int { return ph.lo + ph.size() }

// credit names what a landed transfer counts toward.
type credit uint8

const (
	creditTracker credit = 1 << iota // the tile's tracker entry
	creditDone                       // the run's completion fence
)

// newFusedRun validates the options and builds the run — engines, topology
// and every device — without starting the simulation: the mirror run, or
// the explicit run when explicit is set. Tests construct runs directly to
// inject faults before run().
func newFusedRun(o FusedOptions, explicit bool) (*fusedRun, error) {
	if err := o.validate(explicit); err != nil {
		return nil, err
	}
	n := o.Devices
	g := o.Grid
	r := &fusedRun{
		o:          o,
		kind:       memory.Update,
		blockTiles: 1,
		tileBytes:  g.WFTileBytes(),
		prodTiles:  g.NumWFs() / g.Tiling.SplitK,
	}
	r.sendBytes = r.tileBytes
	totalTiles := r.prodTiles
	switch o.Collective {
	case RingReduceScatter:
		r.addressMap = RingReduceScatterMap
		r.mirrorNext = !explicit
		r.storeCredit, r.arriveCredit = creditTracker, creditTracker
		if !explicit {
			r.blockTiles = max(o.DMATilesPerBlock, 1)
		}
		r.spanName = "reduce-scatter"
	case DirectReduceScatter:
		r.addressMap = DirectReduceScatterMap
		// Every tile is sliced 1/n per device: the own slice stays local and
		// n-1 slices go to the peers over dedicated links.
		r.sendBytes = r.tileBytes / units.Bytes(n)
		r.keep = r.tileBytes - units.Bytes(n-1)*r.sendBytes // absorbs remainder
		r.arriveCredit = creditTracker
		r.spanName = "reduce-scatter"
	case RingAllGather:
		// Local shard stores only fence the stage; each arriving hop copy is
		// a plain write the tracker counts once (§7.1) and the collective
		// completes on arrivals. The tile space covers n shards: phase 0 is
		// the produced shard, phase h the copy that arrives after h hops.
		r.addressMap = RingAllGatherMap
		r.kind = memory.Write
		r.mirrorNext = true
		r.arriveCredit = creditTracker | creditDone
		totalTiles = n * r.prodTiles
		r.spanName = "all-gather"
	case AllToAll:
		// Nothing is tracked; stores and arrivals both count toward
		// completion.
		r.addressMap = AllToAllMap
		r.kind = memory.Write
		r.storeCredit, r.arriveCredit = creditDone, creditDone
		r.spanName = "all-to-all"
	}

	var engines []*sim.Engine
	var err error
	if explicit {
		spec := o.topoSpec()
		r.cl = sim.NewCluster(n, spec.MinLinkLatency())
		r.cl.AttachChecker(o.Check)
		if r.topo, err = spec.BuildCluster(r.cl); err != nil {
			return nil, err
		}
		r.topo.AttachChecker(o.Check)
		r.topo.AttachMetrics(o.Metrics)
		r.links = r.topo.Links()
		engines = r.cl.Engines()
		chunks := collective.ChunkBounds(totalTiles, n)
		r.span = func(_ int, pm PhaseMap) (int, int) { return chunks[pm.Chunk][0], chunks[pm.Chunk][1] }
	} else {
		eng := sim.NewEngine()
		eng.AttachChecker(o.Check)
		spec := interconnect.RingTopo(n, o.Link)
		if o.Collective == DirectReduceScatter {
			spec = interconnect.SwitchTopo(n, o.Link) // a dedicated link per peer
		}
		if r.topo, err = spec.Build(eng); err != nil {
			return nil, err
		}
		r.chkRing = o.Check.Ledger("t3core.ring")
		engines = []*sim.Engine{eng}
		r.span = func(p int, _ PhaseMap) (int, int) { return p * totalTiles / n, (p + 1) * totalTiles / n }
	}

	for id, eng := range engines {
		d, err := r.newDevice(id, eng)
		if err != nil {
			return nil, err
		}
		r.devs = append(r.devs, d)
	}
	if !explicit {
		// The mirror's links are device 0's out-links to the peers it sends
		// to, named as the implicit ring's forward link or one link per peer.
		for i, peer := range r.devs[0].peers {
			l := r.topo.Link(0, peer)
			name := "fwd0"
			if o.Collective == DirectReduceScatter {
				name = fmt.Sprintf("link%d", i)
			}
			l.AttachMetrics(o.Metrics, name)
			l.AttachChecker(o.Check, name)
			r.links = append(r.links, l)
		}
	}
	return r, nil
}

// newDevice builds device id on eng. The collective's address map fixes
// each phase's route and which phases the DMA table forwards; the mirror
// follows the ring maps phase for phase, while direct RS and all-to-all
// program no DMA and route differently from their maps' chunk order (see
// DirectReduceScatterMap and AllToAllMap).
func (r *fusedRun) newDevice(id int, eng *sim.Engine) (*fusedDevice, error) {
	o := r.o
	n := o.Devices
	d := &fusedDevice{r: r, id: id, eng: eng, name: "t3core"}
	d.sink = o.Metrics
	if r.cl != nil {
		d.name = fmt.Sprintf("t3core.dev%d", id)
		if d.sink != nil {
			// Per-device counter names and timeline tracks stay distinct
			// across the n memory systems.
			d.sink = d.sink.Scope(fmt.Sprintf("dev%d", id))
			o.Memory.Metrics = d.sink
		}
	}
	if sink := d.sink; sink != nil {
		d.mtrack = sink.Track("t3core")
		d.mTrigger = sink.Counter("t3core.tracker.triggers")
		d.mRemote = sink.Counter("t3core.remote_write_tiles")
	}
	d.chkDMA = o.Check.Once(d.name + ".dma")

	amap := r.addressMap(id, n)
	if err := amap.Validate(); err != nil {
		return nil, err
	}
	d.phases = make([]phase, n)
	start := 0
	for p, pm := range amap.Phases {
		lo, hi := r.span(p, pm)
		d.phases[p] = phase{lo: lo, start: start, end: start + hi - lo}
		start += hi - lo
	}
	// The ring's next device: phase 0's destination in the ring maps, and
	// the forward link the mirror sends all-to-all's chunks over.
	d.peers = []int{(id + 1) % n}
	updates := 1
	var updatesFor func(TileID) int
	completions := 0
	switch o.Collective {
	case RingReduceScatter:
		// Phase 0 is remote-written; phases 1..n-1 are local NMC updates,
		// each expecting one local update per K-slice plus what arrives
		// (§7.7); phases 1..n-2 forward, phase n-1 is owned. Phase 1's
		// arrivals are the neighbor's phase-0 remote writes, one per
		// K-slice, so its tiles see 2·SplitK updates; a later phase's is
		// the one DMA update its predecessor forwards, so 1+SplitK.
		k := o.Grid.Tiling.SplitK
		updates = 1 + k
		if k > 1 {
			updatesFor = func(t TileID) int {
				if d.phaseOf(tileIndex(t)) == 1 {
					return 2 * k
				}
				return 1 + k
			}
		}
		d.phases[0].send = true
		for p := 1; p < n; p++ {
			d.phases[p].store = true
		}
		d.tracked = start - d.phases[0].size()
		completions = d.phases[n-1].size()
	case DirectReduceScatter:
		// The mirror is each peer's slice of my copy of the tile arriving. A
		// tile's owned slice totals SplitK tile footprints at the controller.
		updates = o.Grid.Tiling.SplitK
		d.peers = make([]int, 0, n-1)
		for p := 1; p < n; p++ {
			d.peers = append(d.peers, p)
		}
		for p := range d.phases {
			d.phases[p].send = true
		}
		d.tracked = start
		completions = start
	case RingAllGather:
		// The produced shard is written locally and remote-written onward;
		// hops 1..n-2 are forwarded.
		d.phases[0].store = true
		d.phases[0].send = true
		d.tracked = start - d.phases[0].size()
		completions = d.tracked
	case AllToAll:
		// Chunk j goes to device j: the owned chunk, produced last, is
		// stored locally; every other chunk is remote-written, and the
		// mirror is a peer's tile for my chunk arriving.
		for p := 0; p < n-1; p++ {
			d.phases[p].send = true
		}
		d.phases[n-1].store = true
		completions = start
	}
	d.done = sim.NewFence(completions, d.collectiveFinished)
	d.arrival = landing{d: d, bytes: r.sendBytes, credit: r.arriveCredit}
	d.kept = landing{d: d, bytes: r.keep, credit: creditTracker}
	if k := r.blockTiles; k > 1 {
		// Block-granular DMA: lay the per-block fill counters out densely,
		// one run of ceil(phaseSize/k) blocks per phase.
		d.blockOff = make([]int, n+1)
		for p := 0; p < n; p++ {
			d.blockOff[p+1] = d.blockOff[p] + (d.phases[p].size()+k-1)/k
		}
		d.blockFill = make([]int, d.blockOff[n])
	}

	if o.Memory.Metrics == nil {
		o.Memory.Metrics = d.sink
	}
	if o.Memory.Check == nil {
		o.Memory.Check = o.Check
	}
	var err error
	if d.arb, err = newArbiter(o); err != nil {
		return nil, err
	}
	if d.mem, err = memory.NewController(eng, o.Memory, d.arb); err != nil {
		return nil, err
	}
	if d.trk, err = NewTracker(o.Tracker); err != nil {
		return nil, err
	}
	if err := d.trk.SetProgram(Program{
		WFTileBytes:       r.tileBytes,
		UpdatesPerElement: updates,
		Updates:           updatesFor,
		OnReady:           d.onReady,
	}); err != nil {
		return nil, err
	}
	// Each dma_map phase programs a command per tile of its span, forwarding
	// the tile to the phase's destination with the phase's access kind.
	tiles := 0
	for p, pm := range amap.Phases {
		if pm.Treatment == TreatDMA {
			tiles = max(tiles, d.phases[p].hi())
		}
	}
	d.dma = NewDMATable(tiles)
	for p, pm := range amap.Phases {
		if pm.Treatment != TreatDMA {
			continue
		}
		for t := d.phases[p].lo; t < d.phases[p].hi(); t++ {
			if err := d.dma.Program(tileID(t), DMACommand{
				DestDevice: pm.Dest, Op: pm.Op, Bytes: r.tileBytes,
			}); err != nil {
				return nil, err
			}
		}
	}
	d.kernel = &gpu.GEMMKernel{
		Eng:               eng,
		Mem:               d.mem,
		GPU:               o.GPU,
		Grid:              o.Grid,
		CUs:               o.GEMMCUs,
		OutputBypassesLLC: true, // §4.3: fused outputs are uncached
		Monitor:           o.Arbitration == ArbMCA,
		WriteStage:        d.writeStage,
		DoubleBuffered:    o.DoubleBufferedGEMM,
		Metrics:           d.sink,
	}
	if d.mtrack != nil {
		d.kernel.OnStageComputed = func(int, int) { d.emit(EventStageComputed) }
	}
	return d, nil
}

// run launches every device's GEMM at t=0 (§4.4: staggering is in the
// WG→tile mapping, not the launch time), drives the engines to completion,
// applies the end-of-run laws and reports the first model error or stall.
func (r *fusedRun) run() error {
	for _, d := range r.devs {
		if err := d.kernel.Start(d.gemmFinished); err != nil {
			return err
		}
	}
	var wall units.Time
	if r.cl != nil {
		wall = r.cl.Run(r.o.ParWorkers)
		if m := r.o.Metrics; m != nil {
			// Coordination-layer summary for the -metrics JSON: how the
			// cluster synchronized, not what the model computed. Values are
			// identical at every worker count.
			st := r.cl.Stats()
			cs := m.Scope("cluster")
			cs.Counter("windows").Add(int64(st.Windows))
			cs.Counter("engine_windows").Add(int64(st.EngineWindows))
			cs.Counter("advance_ps").Add(int64(st.Advance))
			cs.Counter("stalled_engine_windows").Add(int64(st.StalledEngineWindows))
			cs.Counter("stall_ps").Add(int64(st.StallTime))
		}
	} else {
		wall = r.devs[0].eng.Run()
	}
	// End-of-run laws are checked before the stall/error returns below: a
	// stalled run is exactly the kind the violations explain.
	if c := r.o.Check; c.Enabled() {
		r.chkRing.Close(wall)
		for _, d := range r.devs {
			d.endChecks(c, wall)
		}
		for i, l := range r.links {
			if busy := l.BusyTime(); busy > wall {
				c.Violationf(wall, fmt.Sprintf("t3core.link%d", i), check.RuleBound+"/busy-time",
					"link busy %v exceeds wall time %v", busy, wall)
			}
		}
	}
	stalled, outstanding := 0, 0
	for _, d := range r.devs {
		if d.err != nil {
			return d.err
		}
		if !d.done.Fired() {
			stalled++
			outstanding += d.done.Remaining()
		}
	}
	if stalled > 0 {
		return fmt.Errorf("t3core: fused %v stalled: %d completions outstanding on %d of %d simulated devices",
			r.o.Collective, outstanding, stalled, len(r.devs))
	}
	for _, d := range r.devs {
		if d.sink != nil {
			d.sink.Gauge("t3core.tracker.max_live").Set(int64(d.trk.MaxLive()))
			d.sink.Gauge("t3core.dma.triggered").Set(d.dma.Triggered())
		}
	}
	return nil
}

// endChecks applies one device's end-of-run laws under c: the tracker
// drained to zero live entries, fired once per tracked tile and stayed
// within its sets×ways budget, and the spans nest.
func (d *fusedDevice) endChecks(c *check.Checker, wall units.Time) {
	if live := d.trk.Live(); live != 0 {
		c.Violationf(wall, d.name+".tracker", check.RuleConservation+"/drain",
			"%d live entries after drain, want 0", live)
	}
	if fired, want := d.trk.Fired(), int64(d.tracked); fired != want {
		c.Violationf(wall, d.name+".tracker", check.RuleConservation+"/fired",
			"%d tiles fired, want %d", fired, want)
	}
	if ml, limit := d.trk.MaxLive(), d.trk.Capacity(); ml > limit {
		c.Violationf(wall, d.name+".tracker", check.RuleBound+"/occupancy",
			"%d live entries exceed sets×ways = %d", ml, limit)
	}
	if d.collectiveDone < d.gemmDone {
		c.Violationf(wall, d.name+".spans", check.RuleOrdering+"/nesting",
			"collective done %v before gemm done %v", d.collectiveDone, d.gemmDone)
	}
	if d.drained < d.collectiveDone {
		c.Violationf(wall, d.name+".spans", check.RuleOrdering+"/nesting",
			"drain done %v before collective done %v", d.drained, d.collectiveDone)
	}
}

// mcaThreshold is the device's MCA occupancy limit (0 if not MCA; -1 if
// unlimited).
func (d *fusedDevice) mcaThreshold() int {
	if mca, ok := d.arb.(*memory.MCA); ok {
		return mca.Threshold()
	}
	return 0
}

// emit records a fused-run event as an instant on the device's "t3core"
// timeline, so tracker fires and DMA triggers show up in Perfetto next to
// the model spans.
func (d *fusedDevice) emit(kind EventKind) {
	if d.mtrack != nil {
		d.mtrack.Instant(kind.String(), d.eng.Now())
	}
}

// gemmFinished runs when the producer kernel has finished (all stores
// accepted).
func (d *fusedDevice) gemmFinished() {
	d.gemmDone = d.eng.Now()
	d.emit(EventGEMMDone)
	if d.mtrack != nil {
		d.mtrack.Span("gemm", 0, d.eng.Now())
	}
}

// collectiveFinished runs when the completion fence fires: the device's
// collective is over, and §4.5's communication stream drains at the kernel
// boundary.
func (d *fusedDevice) collectiveFinished() {
	d.collectiveDone = d.eng.Now()
	d.emit(EventCollectiveDone)
	if d.mtrack != nil {
		d.mtrack.Span(d.r.spanName, 0, d.eng.Now())
	}
	d.mem.WhenIdle(memory.StreamComm, func() {
		d.drained = d.eng.Now()
		if d.mtrack != nil {
			d.mtrack.Span("drain", d.collectiveDone, d.eng.Now())
		}
	})
}

// phaseOf returns the production phase of production index i. Lookups
// start from the last phase found: production, and the mirror's tracker
// fires, move through the phases almost monotonically.
func (d *fusedDevice) phaseOf(i int) int {
	p := d.hint
	for i >= d.phases[p].end {
		p++
	}
	for i < d.phases[p].start {
		p--
	}
	d.hint = p
	return p
}

// writeStage is the GEMM's output sink: it routes each of the stage's
// wavefront-tile updates per the device's phase routes. With split-K,
// consecutive K-slice WGs update the same tile, each writing the full tile
// footprint of partial sums (§7.7). It walks the stage's production twice,
// first to count the local stores the stage fence waits for, then to issue
// them and the remote sends, so no list of the stage's tiles is kept.
// onDone runs when the stage's local stores are accepted (remote sends are
// fire-and-forget peer writes); a stage without local stores completes at
// once, before its sends issue.
func (d *fusedDevice) writeStage(_, wgs int, _ units.Bytes, onDone sim.Handler) {
	r := d.r
	til := r.o.Grid.Tiling
	w0 := d.wgCursor
	d.wgCursor += wgs
	local := 0
	for w := w0; w < w0+wgs; w++ {
		base := (w / til.SplitK) * til.WFPerWG
		for i := base; i < base+til.WFPerWG && i < r.prodTiles; i++ {
			if d.phases[d.phaseOf(i)].store {
				local++
			}
		}
	}
	var cb *stageCB
	if local == 0 {
		onDone()
	} else {
		cb = d.getStageCB(local, onDone)
	}
	for w := w0; w < w0+wgs; w++ {
		base := (w / til.SplitK) * til.WFPerWG
		for i := base; i < base+til.WFPerWG && i < r.prodTiles; i++ {
			p := d.phaseOf(i)
			ph := &d.phases[p]
			t := ph.lo + i - ph.start
			if ph.store {
				d.mem.Transfer(r.kind, memory.StreamCompute, r.tileBytes, tileTag(t), cb)
			}
			if ph.send {
				d.send(t, p)
			}
		}
	}
}

// send models one remote-mapped store of tile t, produced in phase p: it
// goes over the interconnect to each peer as the GEMM produces it (direct
// RS keeps its own slice locally and sends one slice per peer).
func (d *fusedDevice) send(t, p int) {
	r := d.r
	d.mRemote.Inc()
	d.emit(EventRemoteWrite)
	if r.keep > 0 {
		d.mem.Transfer(r.kind, memory.StreamCompute, r.keep, tileTag(t), &d.kept)
	}
	if r.sendBytes == 0 {
		return
	}
	for _, peer := range d.peers {
		r.chkRing.Add(int64(r.sendBytes))
		op := d.getDelivery(peer, t, 1, p, r.sendBytes, false)
		r.topo.Send(d.id, peer, r.sendBytes, op.delivered)
	}
}

// onReady is the tracker trigger: forward a dma_mapped tile (or, on a
// block-granular DMA, the block it completes) to the command's destination;
// in a run that completes on fires, count an owned one.
func (d *fusedDevice) onReady(id TileID) {
	r := d.r
	cmd, ok := d.dma.MarkReady(id)
	if !ok {
		if r.arriveCredit&creditDone == 0 {
			d.emit(EventOwnedTileDone)
			d.done.Done()
		}
		return
	}
	t := tileIndex(id)
	d.chkDMA.Mark(d.eng.Now(), t)
	d.mTrigger.Inc()
	d.emit(EventDMATriggered)
	first, count, p := t, 1, 0
	if k := r.blockTiles; r.mirrorNext || k > 1 {
		// The mirror indexes tiles in production order, so the tile's phase
		// is its production phase.
		p = d.phaseOf(t)
		if k > 1 {
			// Block-granular DMA (§4.2.2): the completing tile marks its
			// block entry; the block transfers once every member tile has
			// fired. Block member tiles are contiguous, so the block is just
			// (first, count).
			ph := &d.phases[p]
			b := (t - ph.lo) / k
			idx := d.blockOff[p] + b
			d.blockFill[idx]++
			first = ph.lo + b*k
			count = min(first+k, ph.hi()) - first
			if d.blockFill[idx] < count {
				return
			}
			d.blockFill[idx] = 0
		}
	}
	op := d.getDelivery(cmd.DestDevice, first, count, p, units.Bytes(count)*r.tileBytes, true)
	d.mem.Transfer(memory.Read, memory.StreamComm, op.bytes, tileTag(first), op)
}

// lander returns the device a delivery to peer lands on: the peer itself,
// or on the mirror the one simulated device, which stands for every peer.
func (r *fusedRun) lander(peer int) *fusedDevice {
	if len(r.devs) == 1 {
		return r.devs[0]
	}
	return r.devs[peer]
}

// targets names the tile(s) here that a delivery of tile t, sent in phase
// p, lands on: the same tile, or on the mirror of a ring collective the
// matching tile(s) of phase p+1 (see mirrorTargets).
func (d *fusedDevice) targets(t, p int) (targets [2]int, n int) {
	if !d.r.mirrorNext {
		targets[0] = t
		return targets, 1
	}
	return d.mirrorTargets(t, p)
}

// mirrorTargets maps my tile of phase p to the corresponding tile(s) of
// phase p+1, the region my neighbor's identical send updates here. Boundary
// rounding can leave the last target tile without a source (or vice versa):
// a source fragment with no target yields no entries, and when the source
// phase is smaller than the target the last source tile also carries the
// target's final fragment. The result is returned by value ([2]int plus a
// count) so the per-delivery call allocates nothing.
func (d *fusedDevice) mirrorTargets(t, p int) (targets [2]int, n int) {
	src, dst := &d.phases[p], &d.phases[p+1]
	i := t - src.lo
	nextSize := dst.size()
	if i >= nextSize {
		return targets, 0
	}
	targets[0] = dst.lo + i
	n = 1
	if size := src.size(); i == size-1 && nextSize > size {
		targets[1] = dst.lo + nextSize - 1
		n = 2
	}
	return targets, n
}

// land credits b landed bytes of tile id to what c names.
func (d *fusedDevice) land(id TileID, b units.Bytes, c credit) {
	if c&creditTracker != 0 {
		if err := d.trk.Observe(id, b); err != nil && d.err == nil {
			d.err = err
		}
	}
	if c&creditDone != 0 {
		d.done.Done()
	}
}
