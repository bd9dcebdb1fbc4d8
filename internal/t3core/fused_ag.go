package t3core

import (
	"fmt"

	"t3sim/internal/check"
	"t3sim/internal/gpu"
	"t3sim/internal/interconnect"
	"t3sim/internal/memory"
	"t3sim/internal/sim"
	"t3sim/internal/units"
)

// This file implements the §7.1 collective variants of the fused runner:
// ring all-gather (a column-parallel producer's shard is distributed to all
// devices, no reductions) and all-to-all (the expert-parallel exchange of
// §7.2, where chunk j of the producer's output belongs to device j).
//
// Both reuse the single-GPU mirror methodology of RunFusedGEMMRS: the run
// models device 0 and generates incoming traffic by mirroring its own sends.

// RunFusedGEMMAG executes a fused GEMM→ring-all-gather: o.Grid is the
// producer's local shard (a column-parallel slice); as the GEMM produces
// shard tiles they are stored locally and remote-written to the next
// device, and every received tile is staged and forwarded hop by hop until
// all devices hold all shards. Stores are plain writes — the tracker's
// trigger condition is a single update per element (§7.1).
func RunFusedGEMMAG(o FusedOptions) (FusedResult, error) {
	if o.Collective != RingAllGather {
		return FusedResult{}, fmt.Errorf("t3core: RunFusedGEMMAG needs Collective=RingAllGather, got %v", o.Collective)
	}
	if err := validateFusedCommon(o); err != nil {
		return FusedResult{}, err
	}
	if !o.Topo.IsZero() && o.Topo.Kind != interconnect.TopoRing {
		return FusedResult{}, fmt.Errorf("t3core: single-GPU mirror runs model the ring implicitly; got a %v topology", o.Topo.Kind)
	}
	r := &agRun{o: o, eng: sim.NewEngine()}
	return r.run()
}

// RunFusedGEMMAllToAll executes a fused GEMM→all-to-all: chunk j of the
// producer's output is remote-written directly to device j as it is
// produced; the owned chunk is stored locally; nothing is reduced or
// forwarded (§7.1, §7.2 expert parallelism).
func RunFusedGEMMAllToAll(o FusedOptions) (FusedResult, error) {
	if o.Collective != AllToAll {
		return FusedResult{}, fmt.Errorf("t3core: RunFusedGEMMAllToAll needs Collective=AllToAll, got %v", o.Collective)
	}
	if err := validateFusedCommon(o); err != nil {
		return FusedResult{}, err
	}
	if !o.Topo.IsZero() && o.Topo.Kind != interconnect.TopoRing {
		return FusedResult{}, fmt.Errorf("t3core: single-GPU mirror runs model the ring implicitly; got a %v topology", o.Topo.Kind)
	}
	r := &a2aRun{o: o, eng: sim.NewEngine()}
	return r.run()
}

// validateFusedCommon checks the option fields shared by all fused runners.
func validateFusedCommon(o FusedOptions) error {
	if err := o.GPU.Validate(); err != nil {
		return err
	}
	if err := o.Memory.Validate(); err != nil {
		return err
	}
	if err := o.Link.Validate(); err != nil {
		return err
	}
	if err := o.Tracker.Validate(); err != nil {
		return err
	}
	if o.Devices < 2 {
		return fmt.Errorf("t3core: fused run needs >= 2 devices, got %d", o.Devices)
	}
	if err := o.Grid.Shape.Validate(); err != nil {
		return err
	}
	if err := o.Grid.Tiling.Validate(); err != nil {
		return err
	}
	if o.Grid.Tiling.SplitK != 1 {
		return fmt.Errorf("t3core: fused all-gather/all-to-all support SplitK=1 only")
	}
	tiles := o.Grid.NumWFs()
	if tiles < o.Devices {
		return fmt.Errorf("t3core: %d wavefront tiles cannot chunk across %d devices", tiles, o.Devices)
	}
	if err := o.validateArbitration(); err != nil {
		return err
	}
	return o.validateTopo()
}

// validateArbitration checks a pinned MCA threshold: it needs the MCA
// policy and is a positive limit or memory.MCANoLimit.
func (o FusedOptions) validateArbitration() error {
	if o.FixedMCAThreshold == 0 {
		return nil
	}
	if o.Arbitration != ArbMCA {
		return fmt.Errorf("t3core: FixedMCAThreshold %d needs MCA arbitration, got %v", o.FixedMCAThreshold, o.Arbitration)
	}
	if o.FixedMCAThreshold < memory.MCANoLimit {
		return fmt.Errorf("t3core: FixedMCAThreshold %d: want > 0 or memory.MCANoLimit (%d)", o.FixedMCAThreshold, memory.MCANoLimit)
	}
	return nil
}

// validateTopo checks the optional topology spec against the run's shape.
// The zero spec (the implicit RingTopo(Devices, Link)) is always valid.
func (o FusedOptions) validateTopo() error {
	if o.Topo.IsZero() {
		return nil
	}
	if err := o.Topo.Validate(); err != nil {
		return err
	}
	if o.Topo.Devices != o.Devices {
		return fmt.Errorf("t3core: %d-device topology for a %d-device run", o.Topo.Devices, o.Devices)
	}
	return nil
}

// newArbiter builds the configured arbitration policy, pinning the MCA's
// threshold when o.FixedMCAThreshold is set.
func newArbiter(o FusedOptions) (memory.Arbiter, error) {
	switch o.Arbitration {
	case ArbRoundRobin:
		return &memory.RoundRobin{}, nil
	case ArbMCA:
		mca := memory.NewMCA(memory.DefaultMCAConfig())
		if o.FixedMCAThreshold != 0 {
			mca.SetThreshold(o.FixedMCAThreshold)
		}
		return mca, nil
	case ArbComputeFirst:
		return memory.ComputeFirst{}, nil
	default:
		return nil, fmt.Errorf("t3core: unknown arbitration %v", o.Arbitration)
	}
}

// agRun is the fused all-gather mirror run. The producer's shard has T
// tiles; hop h ∈ 1..n-1 of tile t is the copy of some shard arriving after
// h ring hops. Virtual tile ids t + h·T keep the hops distinct in the
// tracker and DMA table.
type agRun struct {
	o    FusedOptions
	eng  *sim.Engine
	mem  *memory.Controller
	link *interconnect.Link
	trk  *Tracker
	dma  *DMATable

	tileBytes  units.Bytes
	shardTiles int
	wgCursor   int

	done   *sim.Fence
	result FusedResult
	err    error

	ledger *check.Ledger // wire-byte conservation witness (nil-safe)

	tilesBuf []int   // writeStage scratch, reused across stages
	agOps    []*agOp // freelist for link-delivery callbacks
}

// agOp carries one tile across a link delivery: production sends arrive as
// hop 1, forwarded DMAs as hop+1. Pooled; see fused_ops.go for the pattern.
type agOp struct {
	r         *agRun
	t, hop    int
	bytes     units.Bytes
	readDone  sim.Handler // prebuilt: forward-read complete → inject + send
	delivered sim.Handler // prebuilt: delivery → arrive(t, hop)
}

func (op *agOp) onRead() {
	r := op.r
	r.ledger.Add(int64(op.bytes))
	r.link.Send(op.bytes, op.delivered)
}

func (op *agOp) onDelivered() {
	r := op.r
	r.ledger.Sub(r.eng.Now(), int64(op.bytes))
	r.arrive(op.t, op.hop)
	r.agOps = append(r.agOps, op)
}

func (r *agRun) getAgOp(t, hop int, bytes units.Bytes) *agOp {
	if ln := len(r.agOps); ln > 0 {
		op := r.agOps[ln-1]
		r.agOps[ln-1] = nil
		r.agOps = r.agOps[:ln-1]
		op.t, op.hop, op.bytes = t, hop, bytes
		return op
	}
	op := &agOp{r: r, t: t, hop: hop, bytes: bytes}
	op.readDone = op.onRead
	op.delivered = op.onDelivered
	return op
}

// Complete implements memory.Completion: one hop's arriving tile has been
// staged in local memory; the tag carries its virtual (hop-encoded) id.
func (r *agRun) Complete(tag memory.Tag) {
	id := TileID{WG: tag.WG, WF: tag.WF}
	if err := r.trk.Observe(id, r.tileBytes); err != nil && r.err == nil {
		r.err = err
	}
	r.done.Done()
}

func (r *agRun) run() (FusedResult, error) {
	o := r.o
	if o.Metrics != nil && o.Memory.Metrics == nil {
		o.Memory.Metrics = o.Metrics
	}
	if o.Check != nil && o.Memory.Check == nil {
		o.Memory.Check = o.Check
	}
	r.eng.AttachChecker(o.Check)
	if o.Check != nil {
		r.ledger = o.Check.Ledger("t3core.ag.ring")
	}
	arb, err := newArbiter(o)
	if err != nil {
		return FusedResult{}, err
	}
	mc, err := memory.NewController(r.eng, o.Memory, arb)
	if err != nil {
		return FusedResult{}, err
	}
	r.mem = mc
	link, err := interconnect.NewLink(r.eng, o.Link)
	if err != nil {
		return FusedResult{}, err
	}
	link.AttachMetrics(o.Metrics, "fwd0")
	if o.Check != nil {
		link.AttachChecker(o.Check, "fwd0")
	}
	r.link = link

	r.tileBytes = o.Grid.WFTileBytes()
	r.shardTiles = o.Grid.NumWFs()
	n := o.Devices

	trk, err := NewTracker(o.Tracker)
	if err != nil {
		return FusedResult{}, err
	}
	r.trk = trk
	r.dma = NewDMATable()
	// Hops 1..n-2 forward onward; hop n-1 is final. All stores are writes
	// with one expected update per element (§7.1).
	for h := 1; h < n-1; h++ {
		for t := 0; t < r.shardTiles; t++ {
			id := r.tileID(t, h)
			if err := r.dma.Program(id, DMACommand{
				DestDevice: 1, Op: memory.Write, Bytes: r.tileBytes,
			}); err != nil {
				return FusedResult{}, err
			}
		}
	}
	if err := trk.SetProgram(Program{
		WFTileBytes:       r.tileBytes,
		UpdatesPerElement: 1,
		OnReady:           r.onReady,
	}); err != nil {
		return FusedResult{}, err
	}

	// Completion: every hop's arrivals staged — (n-1) shards of T tiles.
	r.done = sim.NewFence((n-1)*r.shardTiles, func() {
		r.result.CollectiveDone = r.eng.Now()
		r.mem.WhenIdle(memory.StreamComm, func() { r.result.Done = r.eng.Now() })
	})

	kernel := &gpu.GEMMKernel{
		Eng:               r.eng,
		Mem:               mc,
		GPU:               o.GPU,
		Grid:              o.Grid,
		CUs:               o.GEMMCUs,
		OutputBypassesLLC: true,
		Monitor:           o.Arbitration == ArbMCA,
		WriteStage:        r.writeStage,
		DoubleBuffered:    o.DoubleBufferedGEMM,
		Metrics:           o.Metrics,
	}
	if err := kernel.Start(func() { r.result.GEMMDone = r.eng.Now() }); err != nil {
		return FusedResult{}, err
	}
	wall := r.eng.Run()
	r.endChecks(wall)
	if r.err != nil {
		return FusedResult{}, r.err
	}
	if !r.done.Fired() {
		return FusedResult{}, fmt.Errorf("t3core: fused all-gather stalled: %d arrivals outstanding", r.done.Remaining())
	}
	r.result.DRAM = *mc.Counters()
	r.result.LinkBytes = link.SentBytes()
	r.result.TrackerMaxLive = trk.MaxLive()
	r.result.DMATriggered = r.dma.Triggered()
	if mca, ok := arb.(*memory.MCA); ok {
		r.result.MCAThreshold = mca.Threshold()
	}
	r.result.StageReads = kernel.StageReads()
	return r.result, nil
}

// endChecks applies the all-gather's end-of-run laws.
func (r *agRun) endChecks(wall units.Time) {
	c := r.o.Check
	if !c.Enabled() {
		return
	}
	r.ledger.Close(wall)
	if live := r.trk.Live(); live != 0 {
		c.Violationf(wall, "t3core.ag.tracker", check.RuleConservation+"/drain",
			"%d live entries after drain, want 0", live)
	}
	if fired, want := r.trk.Fired(), int64((r.o.Devices-1)*r.shardTiles); fired != want {
		c.Violationf(wall, "t3core.ag.tracker", check.RuleConservation+"/fired",
			"%d tiles fired, want %d", fired, want)
	}
	if ml, limit := r.trk.MaxLive(), r.trk.Capacity(); ml > limit {
		c.Violationf(wall, "t3core.ag.tracker", check.RuleBound+"/occupancy",
			"%d live entries exceed sets×ways = %d", ml, limit)
	}
	if r.result.Done < r.result.CollectiveDone {
		c.Violationf(wall, "t3core.ag.spans", check.RuleOrdering+"/nesting",
			"drain done %v before collective done %v", r.result.Done, r.result.CollectiveDone)
	}
	if busy := r.link.BusyTime(); busy > wall {
		c.Violationf(wall, "t3core.ag.link", check.RuleBound+"/busy-time",
			"link busy %v exceeds wall time %v", busy, wall)
	}
}

func (r *agRun) tileID(t, hop int) TileID {
	g := hop*r.shardTiles + t
	return TileID{WG: g / 8, WF: g % 8}
}

// writeStage routes the producer's shard tiles: store locally (the shard is
// part of the device's own gathered output) and remote-write to the next
// device. The mirrored delivery is the previous neighbor's shard arriving
// as hop 1.
func (r *agRun) writeStage(_, wgs int, _ units.Bytes, onDone sim.Handler) {
	til := r.o.Grid.Tiling
	w0 := r.wgCursor
	r.wgCursor += wgs
	tiles := r.tilesBuf[:0]
	for w := w0; w < w0+wgs; w++ {
		for wf := 0; wf < til.WFPerWG; wf++ {
			if t := w*til.WFPerWG + wf; t < r.shardTiles {
				tiles = append(tiles, t)
			}
		}
	}
	r.tilesBuf = tiles
	fence := sim.NewFence(len(tiles), onDone)
	cb := &fenceCB{fence: fence} // one per stage, amortized over its tiles
	for _, t := range tiles {
		r.mem.TransferTo(memory.Write, memory.StreamCompute, r.tileBytes,
			memory.Tag{WG: t / 8, WF: t % 8}, cb)
		r.ledger.Add(int64(r.tileBytes))
		op := r.getAgOp(t, 1, r.tileBytes)
		r.link.Send(r.tileBytes, op.delivered)
	}
}

// arrive stages one hop's arriving tile; the Complete receiver lets the
// tracker trigger the forward.
func (r *agRun) arrive(t, hop int) {
	id := r.tileID(t, hop)
	r.mem.TransferTo(memory.Write, memory.StreamComm, r.tileBytes,
		memory.Tag{WG: id.WG, WF: id.WF}, r)
}

// onReady forwards a staged tile to the next device (hops 1..n-2); the
// mirrored delivery is the same tile arriving here as hop+1.
func (r *agRun) onReady(id TileID) {
	cmd, ok := r.dma.MarkReady(id)
	if !ok {
		return // final hop: nothing to forward
	}
	g := id.WG*8 + id.WF
	hop := g / r.shardTiles
	t := g % r.shardTiles
	op := r.getAgOp(t, hop+1, cmd.Bytes)
	r.mem.Transfer(memory.Read, memory.StreamComm, cmd.Bytes,
		memory.Tag{WG: id.WG, WF: id.WF}, op.readDone)
}

// a2aRun is the fused all-to-all mirror run: chunk j of the output goes to
// device j; no reductions, no forwarding.
type a2aRun struct {
	o    FusedOptions
	eng  *sim.Engine
	mem  *memory.Controller
	link *interconnect.Link

	tileBytes  units.Bytes
	totalTiles int
	phaseStart []int
	wgCursor   int

	done   *sim.Fence
	result FusedResult

	ledger *check.Ledger // wire-byte conservation witness (nil-safe)

	tilesBuf []int    // writeStage scratch, reused across stages
	a2aOps   []*a2aOp // freelist for link-delivery callbacks
}

// a2aOp carries one remote-written tile across its link delivery.
type a2aOp struct {
	r         *a2aRun
	t         int
	delivered sim.Handler
}

func (op *a2aOp) onDelivered() {
	r := op.r
	r.ledger.Sub(r.eng.Now(), int64(r.tileBytes))
	r.mem.TransferTo(memory.Write, memory.StreamComm, r.tileBytes,
		memory.Tag{WG: op.t / 8, WF: op.t % 8}, r)
	r.a2aOps = append(r.a2aOps, op)
}

func (r *a2aRun) getA2AOp(t int) *a2aOp {
	if ln := len(r.a2aOps); ln > 0 {
		op := r.a2aOps[ln-1]
		r.a2aOps[ln-1] = nil
		r.a2aOps = r.a2aOps[:ln-1]
		op.t = t
		return op
	}
	op := &a2aOp{r: r, t: t}
	op.delivered = op.onDelivered
	return op
}

// Complete implements memory.Completion: a mirrored peer tile for my chunk
// has been written locally.
func (r *a2aRun) Complete(memory.Tag) { r.done.Done() }

// a2aStageCB completes one stage's owned-chunk local stores: each store
// credits the stage fence and the run's completion fence.
type a2aStageCB struct {
	r     *a2aRun
	fence *sim.Fence
}

// Complete implements memory.Completion.
func (s *a2aStageCB) Complete(memory.Tag) {
	s.fence.Done()
	s.r.done.Done()
}

func (r *a2aRun) run() (FusedResult, error) {
	o := r.o
	if o.Metrics != nil && o.Memory.Metrics == nil {
		o.Memory.Metrics = o.Metrics
	}
	if o.Check != nil && o.Memory.Check == nil {
		o.Memory.Check = o.Check
	}
	r.eng.AttachChecker(o.Check)
	if o.Check != nil {
		r.ledger = o.Check.Ledger("t3core.a2a.ring")
	}
	arb, err := newArbiter(o)
	if err != nil {
		return FusedResult{}, err
	}
	mc, err := memory.NewController(r.eng, o.Memory, arb)
	if err != nil {
		return FusedResult{}, err
	}
	r.mem = mc
	link, err := interconnect.NewLink(r.eng, o.Link)
	if err != nil {
		return FusedResult{}, err
	}
	link.AttachMetrics(o.Metrics, "fwd0")
	if o.Check != nil {
		link.AttachChecker(o.Check, "fwd0")
	}
	r.link = link

	r.tileBytes = o.Grid.WFTileBytes()
	r.totalTiles = o.Grid.NumWFs()
	n := o.Devices
	r.phaseStart = make([]int, n+1)
	for p := 0; p <= n; p++ {
		r.phaseStart[p] = p * r.totalTiles / n
	}
	// Completion: the owned chunk stored + every peer's chunk received.
	owned := r.phaseStart[n] - r.phaseStart[n-1]
	incoming := r.totalTiles - owned
	r.done = sim.NewFence(owned+incoming, func() {
		r.result.CollectiveDone = r.eng.Now()
		r.mem.WhenIdle(memory.StreamComm, func() { r.result.Done = r.eng.Now() })
	})

	kernel := &gpu.GEMMKernel{
		Eng:               r.eng,
		Mem:               mc,
		GPU:               o.GPU,
		Grid:              o.Grid,
		CUs:               o.GEMMCUs,
		OutputBypassesLLC: true,
		Monitor:           o.Arbitration == ArbMCA,
		WriteStage:        r.writeStage,
		DoubleBuffered:    o.DoubleBufferedGEMM,
		Metrics:           o.Metrics,
	}
	if err := kernel.Start(func() { r.result.GEMMDone = r.eng.Now() }); err != nil {
		return FusedResult{}, err
	}
	wall := r.eng.Run()
	r.endChecks(wall)
	if !r.done.Fired() {
		return FusedResult{}, fmt.Errorf("t3core: fused all-to-all stalled: %d outstanding", r.done.Remaining())
	}
	r.result.DRAM = *mc.Counters()
	r.result.LinkBytes = link.SentBytes()
	if mca, ok := arb.(*memory.MCA); ok {
		r.result.MCAThreshold = mca.Threshold()
	}
	r.result.StageReads = kernel.StageReads()
	return r.result, nil
}

// endChecks applies the all-to-all's end-of-run laws (no tracker: nothing is
// reduced or forwarded, so only the wire ledger and timing laws apply).
func (r *a2aRun) endChecks(wall units.Time) {
	c := r.o.Check
	if !c.Enabled() {
		return
	}
	r.ledger.Close(wall)
	if r.result.Done < r.result.CollectiveDone {
		c.Violationf(wall, "t3core.a2a.spans", check.RuleOrdering+"/nesting",
			"drain done %v before collective done %v", r.result.Done, r.result.CollectiveDone)
	}
	if busy := r.link.BusyTime(); busy > wall {
		c.Violationf(wall, "t3core.a2a.link", check.RuleBound+"/busy-time",
			"link busy %v exceeds wall time %v", busy, wall)
	}
}

// writeStage routes each tile: the last chunk (production order) stays
// local ("the owned chunk is produced last", mirroring the RS staggering);
// every other chunk's tiles are remote-written to their owner, and the
// mirrored delivery is a peer's tile for my chunk arriving.
func (r *a2aRun) writeStage(_, wgs int, _ units.Bytes, onDone sim.Handler) {
	til := r.o.Grid.Tiling
	n := r.o.Devices
	w0 := r.wgCursor
	r.wgCursor += wgs
	tiles := r.tilesBuf[:0]
	for w := w0; w < w0+wgs; w++ {
		for wf := 0; wf < til.WFPerWG; wf++ {
			if t := w*til.WFPerWG + wf; t < r.totalTiles {
				tiles = append(tiles, t)
			}
		}
	}
	r.tilesBuf = tiles
	local := 0
	for _, t := range tiles {
		if t >= r.phaseStart[n-1] {
			local++
		}
	}
	fence := sim.NewFence(local, onDone)
	cb := &a2aStageCB{r: r, fence: fence} // one per stage, amortized
	for _, t := range tiles {
		if t >= r.phaseStart[n-1] {
			// Owned chunk: plain local store.
			r.mem.TransferTo(memory.Write, memory.StreamCompute, r.tileBytes,
				memory.Tag{WG: t / 8, WF: t % 8}, cb)
			continue
		}
		// Remote-mapped: not written locally at all (§7.1). The mirror is a
		// peer's tile for my inbound region arriving as a comm-stream write.
		r.ledger.Add(int64(r.tileBytes))
		op := r.getA2AOp(t)
		r.link.Send(r.tileBytes, op.delivered)
	}
}
