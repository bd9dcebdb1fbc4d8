package t3core

import (
	"fmt"

	"t3sim/internal/check"
	"t3sim/internal/gemm"
	"t3sim/internal/gpu"
	"t3sim/internal/interconnect"
	"t3sim/internal/memory"
	"t3sim/internal/metrics"
	"t3sim/internal/sim"
	"t3sim/internal/units"
)

// Arbitration selects the memory-controller policy for a fused run (§5.3's
// T3 vs T3-MCA configurations).
type Arbitration int

// Arbitration policies.
const (
	// ArbRoundRobin is the baseline round-robin-with-fallback policy (the
	// plain T3 configuration).
	ArbRoundRobin Arbitration = iota
	// ArbMCA is the communication-aware dynamic policy of §4.5 (T3-MCA).
	ArbMCA
	// ArbComputeFirst always prioritizes the compute stream (ablation).
	ArbComputeFirst
)

// String implements fmt.Stringer.
func (a Arbitration) String() string {
	switch a {
	case ArbRoundRobin:
		return "round-robin"
	case ArbMCA:
		return "mca"
	case ArbComputeFirst:
		return "compute-first"
	default:
		return fmt.Sprintf("Arbitration(%d)", int(a))
	}
}

// FusedOptions parameterizes a fused GEMM→collective timing run.
type FusedOptions struct {
	GPU     gpu.Config
	Memory  memory.Config
	Link    interconnect.Config
	Tracker TrackerConfig
	// Topo, when non-zero, generalizes the interconnect of the explicit
	// multi-device run (RunFusedGEMMRSMultiDevice) from the implicit
	// bidirectional ring to an arbitrary topology graph — ring, 2D torus,
	// fully-connected switch, or hierarchical two-level network. Every
	// neighbor send is routed over the graph's deterministic shortest
	// paths, store-and-forwarding at intermediate hops, and the cluster
	// path's conservative lookahead becomes the topology's minimum link
	// latency. The zero spec is the implicit RingTopo(Devices, Link).
	// Single-GPU mirror runs model the ring implicitly and reject a
	// non-ring Topo.
	Topo interconnect.TopoSpec
	// Devices is the tensor-parallel degree (ring size).
	Devices int
	// Grid is the (already K-sliced) producer GEMM.
	Grid gemm.Grid
	// Arbitration picks the MC policy; ArbMCA also enables the §4.5 monitor
	// window during the GEMM's first stage.
	Arbitration Arbitration
	// Collective selects the fused collective; RingReduceScatter and
	// DirectReduceScatter are supported by the timing model.
	Collective Collective
	// GEMMCUs restricts the producer's CU allocation (0 = all). T3 itself
	// never steals CUs; this exists for ablations.
	GEMMCUs int
	// FixedMCAThreshold pins the MCA's DRAM-queue occupancy limit for
	// communication instead of calibrating it from the monitor window (the
	// §6.1.3 fixed-threshold ablation). 0 keeps the dynamic MCA, n > 0 pins
	// n, and memory.MCANoLimit pins "unlimited". Non-zero values need
	// Arbitration == ArbMCA.
	FixedMCAThreshold int
	// DMATilesPerBlock sets the DMA block granularity in wavefront tiles
	// (§4.2.2: "the granularity of the DMA block/table entry is set to be
	// equal to or larger than the Tracker granularity"). 0 or 1 means one
	// tile per DMA; larger blocks make communication burstier.
	DMATilesPerBlock int
	// DoubleBufferedGEMM runs the producer with operand prefetching
	// (software pipelining) instead of the conservative read-then-compute
	// stage schedule.
	DoubleBufferedGEMM bool
	// Metrics, if non-nil, is threaded through every model in the run: the
	// memory controller, the producer kernel, and the ring links register
	// their instruments on it, and the run adds a "t3core" timeline track
	// with gemm/reduce-scatter/drain spans plus one instant per fused-run
	// event, named by its EventKind (read back with Track.Instants). A nil
	// sink records nothing and costs nothing. If Memory.Metrics is already
	// set it wins for the controller.
	Metrics metrics.Sink
	// ParWorkers is the worker-goroutine budget of the explicit
	// multi-device run (RunFusedGEMMRSMultiDevice only; single-GPU mirror
	// runs ignore it). Every device runs on its own sim.Cluster engine,
	// advanced in conservative windows bounded by the minimum link latency;
	// 0 and 1 both run every window inline on the calling goroutine, and a
	// larger value uses up to ParWorkers goroutines per window. Results are
	// byte-identical at every value — the knob trades wall-clock time only —
	// so it is excluded from the experiment memo key (policySkip).
	ParWorkers int
	// Check, if non-nil, is threaded through every model the same way
	// Metrics is: the engine witnesses event-time monotonicity, the memory
	// channels witness service non-overlap and queue-depth bounds, the ring
	// links witness serialization non-overlap, and the run itself closes the
	// books at the end — ring bytes delivered equal bytes injected, the
	// tracker drained to zero live entries and fired once per tile within
	// its sets×ways budget, each DMA triggered exactly once per tile, spans
	// nest (GEMMDone ≤ CollectiveDone ≤ Done), and no link was busy longer
	// than the wall clock. A nil checker records nothing and costs nothing
	// (pinned by the nil-cost integration test). If Memory.Check is already
	// set it wins for the controller.
	Check *check.Checker
}

// Validate reports whether the options are usable.
func (o FusedOptions) Validate() error {
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
	if o.Collective != RingReduceScatter && o.Collective != DirectReduceScatter {
		return fmt.Errorf("t3sim: timing model supports ring and direct reduce-scatter, not %v", o.Collective)
	}
	if err := o.validateArbitration(); err != nil {
		return err
	}
	if err := o.validateTopo(); err != nil {
		return err
	}
	if !o.Topo.IsZero() && o.Topo.Kind != interconnect.TopoRing {
		return fmt.Errorf("t3core: single-GPU mirror runs model the ring implicitly; use RunFusedGEMMRSMultiDevice for a %v topology", o.Topo.Kind)
	}
	tiles := o.Grid.NumWFs() / o.Grid.Tiling.SplitK
	if tiles < o.Devices {
		return fmt.Errorf("t3core: %d wavefront tiles cannot chunk across %d devices", tiles, o.Devices)
	}
	return nil
}

// FusedResult reports a fused run's timing and traffic.
type FusedResult struct {
	// GEMMDone is when the producer kernel finished (all stores accepted).
	GEMMDone units.Time
	// CollectiveDone is when the device's owned chunk completed (its
	// reduce-scatter postcondition held).
	CollectiveDone units.Time
	// Done is CollectiveDone plus the communication-stream drain at the
	// kernel boundary (§4.5).
	Done units.Time
	// DRAM is the device's memory traffic.
	DRAM memory.Counters
	// LinkBytes is the traffic the device pushed onto its forward ring link.
	LinkBytes units.Bytes
	// TrackerMaxLive is the tracker's live-entry high-water mark.
	TrackerMaxLive int
	// DMATriggered counts triggered DMA commands.
	DMATriggered int64
	// MCAThreshold is the calibrated occupancy limit (0 if not MCA; -1 if
	// unlimited).
	MCAThreshold int
	// StageReads echoes the GEMM's per-stage DRAM read bytes.
	StageReads []units.Bytes
}

// fusedRun is the single-GPU mirror simulation of §5.1.1: all devices in a
// tensor-parallel group execute identically, so the run models device 0 and
// generates its incoming traffic by mirroring its own outgoing sends — each
// delivered send also stands for the identical send of the previous
// neighbor arriving here, targeting the next production phase's chunk.
type fusedRun struct {
	o       FusedOptions
	eng     *sim.Engine
	mem     *memory.Controller
	links   []*interconnect.Link // 1 for ring; n-1 dedicated for direct-RS
	tracker *Tracker
	dma     *DMATable

	tileBytes  units.Bytes
	totalTiles int
	phaseStart []int // tile index where each phase's chunk begins

	wgCursor int // production cursor for the GEMM sink

	// blockFill counts fired tiles per DMA block when DMATilesPerBlock > 1.
	// Blocks are dense: blockOff[p] is phase p's first block index, so block
	// b of phase p lives at blockFill[blockOff[p]+b] — a flat array probe on
	// the trigger path instead of the map the counts used to live in.
	blockFill []int
	blockOff  []int

	// Direct-RS slice geometry, fixed per run (see sendDirect).
	sliceBytes units.Bytes
	localSlice units.Bytes
	dirLocal   *obsCB // completion for the locally-kept slice
	dirSlice   *obsCB // completion for an arriving peer slice

	// Freelists for the pooled per-event callbacks of the trigger/forward
	// path; steady state allocates nothing (see fused_ops.go).
	dmaOps    []*dmaOp
	remoteOps []*remoteOp
	directOps []*directOp
	stageCBs  []*stageCB

	updatesBuf []int // writeStage scratch, reused across stages

	ownedFence *sim.Fence
	result     FusedResult
	err        error

	kernel *gpu.GEMMKernel
	arb    memory.Arbiter

	mtrack   *metrics.Track   // "t3core" timeline (nil-safe)
	mTrigger *metrics.Counter // tracker-fired DMA triggers
	mRemote  *metrics.Counter // remote-mapped production stores

	// Invariant-checker handles (nil-safe; nil without FusedOptions.Check).
	chkRing *check.Ledger // wire bytes: injected into ring links vs delivered
	chkDMA  *check.Once   // one triggered DMA per dma_mapped tile

	// testDropIncoming, when positive, silently discards that many mirrored
	// incoming updates — a deliberately injected conservation bug used by the
	// checker's falsifiability test. Never set outside tests.
	testDropIncoming int
}

// emit records a fused-run event as an instant on the "t3core" timeline, so
// tracker fires and DMA triggers show up in Perfetto next to the model spans.
func (r *fusedRun) emit(kind EventKind) {
	if r.mtrack != nil {
		r.mtrack.Instant(kind.String(), r.eng.Now())
	}
}

// RunFusedGEMMRS executes a fused GEMM→reduce-scatter and returns its
// timing and traffic. This is the paper's T3 (Arbitration=ArbRoundRobin) or
// T3-MCA (ArbMCA) configuration for one sub-layer.
func RunFusedGEMMRS(o FusedOptions) (FusedResult, error) {
	r, err := newFusedRun(o)
	if err != nil {
		return FusedResult{}, err
	}
	return r.run()
}

// newFusedRun validates the options and builds the run: engine, memory
// controller, ring links, tracker/DMA programming, and the producer kernel —
// everything except starting the simulation. Tests construct runs directly to
// inject faults before run().
func newFusedRun(o FusedOptions) (*fusedRun, error) {
	if err := o.Validate(); err != nil {
		return nil, err
	}
	if o.Metrics != nil && o.Memory.Metrics == nil {
		o.Memory.Metrics = o.Metrics
	}
	if o.Check != nil && o.Memory.Check == nil {
		o.Memory.Check = o.Check
	}
	r := &fusedRun{o: o, eng: sim.NewEngine()}
	r.eng.AttachChecker(o.Check)
	if m := o.Metrics; m != nil {
		r.mtrack = m.Track("t3core")
		r.mTrigger = m.Counter("t3core.tracker.triggers")
		r.mRemote = m.Counter("t3core.remote_write_tiles")
	}
	if c := o.Check; c != nil {
		r.chkRing = c.Ledger("t3core.ring")
		r.chkDMA = c.Once("t3core.dma")
	}

	arb, err := newArbiter(o)
	if err != nil {
		return nil, err
	}
	r.arb = arb
	mc, err := memory.NewController(r.eng, o.Memory, arb)
	if err != nil {
		return nil, err
	}
	r.mem = mc
	nLinks := 1
	if o.Collective == DirectReduceScatter {
		nLinks = o.Devices - 1 // fully-connected: a dedicated link per peer
	}
	for i := 0; i < nLinks; i++ {
		link, err := interconnect.NewLink(r.eng, o.Link)
		if err != nil {
			return nil, err
		}
		name := "fwd0"
		if o.Collective == DirectReduceScatter {
			name = fmt.Sprintf("link%d", i)
		}
		if o.Metrics != nil {
			link.AttachMetrics(o.Metrics, name)
		}
		if o.Check != nil {
			link.AttachChecker(o.Check, name)
		}
		r.links = append(r.links, link)
	}

	if err := r.setupTiles(); err != nil {
		return nil, err
	}
	if err := r.setupTracker(); err != nil {
		return nil, err
	}

	r.kernel = &gpu.GEMMKernel{
		Eng:               r.eng,
		Mem:               mc,
		GPU:               o.GPU,
		Grid:              o.Grid,
		CUs:               o.GEMMCUs,
		OutputBypassesLLC: true, // §4.3: fused outputs are uncached
		Monitor:           o.Arbitration == ArbMCA,
		WriteStage:        r.writeStage,
		DoubleBuffered:    o.DoubleBufferedGEMM,
		Metrics:           o.Metrics,
		OnStageComputed: func(int, int) {
			r.emit(EventStageComputed)
		},
	}
	return r, nil
}

// run starts the producer, drains the engine, applies the end-of-run
// invariant checks, and assembles the result.
func (r *fusedRun) run() (FusedResult, error) {
	o := r.o
	if err := r.kernel.Start(func() {
		r.result.GEMMDone = r.eng.Now()
		r.emit(EventGEMMDone)
		if r.mtrack != nil {
			r.mtrack.Span("gemm", 0, r.eng.Now())
		}
	}); err != nil {
		return FusedResult{}, err
	}
	wall := r.eng.Run()
	// End-of-run laws are checked before the stall/error returns below: a
	// stalled run is exactly the kind the violations explain.
	r.endChecks(wall)
	if r.err != nil {
		return FusedResult{}, r.err
	}
	if !r.ownedFence.Fired() {
		return FusedResult{}, fmt.Errorf("t3core: fused run stalled: %d owned tiles outstanding",
			r.ownedFence.Remaining())
	}
	r.result.DRAM = *r.mem.Counters()
	for _, l := range r.links {
		r.result.LinkBytes += l.SentBytes()
	}
	r.result.TrackerMaxLive = r.tracker.MaxLive()
	r.result.DMATriggered = r.dma.Triggered()
	if mca, ok := r.arb.(*memory.MCA); ok {
		r.result.MCAThreshold = mca.Threshold()
	}
	r.result.StageReads = r.kernel.StageReads()
	if m := o.Metrics; m != nil {
		m.Gauge("t3core.tracker.max_live").Set(int64(r.result.TrackerMaxLive))
		m.Gauge("t3core.dma.triggered").Set(r.result.DMATriggered)
	}
	return r.result, nil
}

// endChecks applies the laws that only hold once the simulation has drained.
func (r *fusedRun) endChecks(wall units.Time) {
	c := r.o.Check
	if !c.Enabled() {
		return
	}
	r.chkRing.Close(wall)
	if live := r.tracker.Live(); live != 0 {
		c.Violationf(wall, "t3core.tracker", check.RuleConservation+"/drain",
			"%d live entries after drain, want 0", live)
	}
	if fired, want := r.tracker.Fired(), int64(r.trackedTiles()); fired != want {
		c.Violationf(wall, "t3core.tracker", check.RuleConservation+"/fired",
			"%d tiles fired, want %d", fired, want)
	}
	if ml, limit := r.tracker.MaxLive(), r.tracker.Capacity(); ml > limit {
		c.Violationf(wall, "t3core.tracker", check.RuleBound+"/occupancy",
			"%d live entries exceed sets×ways = %d", ml, limit)
	}
	if r.result.CollectiveDone < r.result.GEMMDone {
		c.Violationf(wall, "t3core.spans", check.RuleOrdering+"/nesting",
			"collective done %v before gemm done %v", r.result.CollectiveDone, r.result.GEMMDone)
	}
	if r.result.Done < r.result.CollectiveDone {
		c.Violationf(wall, "t3core.spans", check.RuleOrdering+"/nesting",
			"drain done %v before collective done %v", r.result.Done, r.result.CollectiveDone)
	}
	for i, l := range r.links {
		if busy := l.BusyTime(); busy > wall {
			c.Violationf(wall, fmt.Sprintf("t3core.link%d", i), check.RuleBound+"/busy-time",
				"link busy %v exceeds wall time %v", busy, wall)
		}
	}
}

// setupTiles chunks the wavefront-tile space across devices.
func (r *fusedRun) setupTiles() error {
	g := r.o.Grid
	r.tileBytes = g.WFTileBytes()
	r.totalTiles = g.NumWFs() / g.Tiling.SplitK
	n := r.o.Devices
	r.phaseStart = make([]int, n+1)
	for p := 0; p <= n; p++ {
		r.phaseStart[p] = p * r.totalTiles / n
	}
	if k := r.o.DMATilesPerBlock; k > 1 {
		// Block-granular DMA: lay the per-block fill counters out densely,
		// one run of ceil(phaseSize/k) blocks per phase.
		r.blockOff = make([]int, n+1)
		for p := 0; p < n; p++ {
			r.blockOff[p+1] = r.blockOff[p] + (r.phaseSize(p)+k-1)/k
		}
		r.blockFill = make([]int, r.blockOff[n])
	}
	if r.o.Collective == DirectReduceScatter {
		r.sliceBytes = r.tileBytes / units.Bytes(n)
		r.localSlice = r.tileBytes - units.Bytes(n-1)*r.sliceBytes // absorbs remainder
		r.dirLocal = &obsCB{r: r, bytes: r.localSlice}
		r.dirSlice = &obsCB{r: r, bytes: r.sliceBytes}
	}
	return nil
}

func (r *fusedRun) phaseOf(tile int) int {
	// Phases are near-equal contiguous ranges; derive then fix up rounding.
	n := r.o.Devices
	p := tile * n / r.totalTiles
	for p > 0 && tile < r.phaseStart[p] {
		p--
	}
	for p < n-1 && tile >= r.phaseStart[p+1] {
		p++
	}
	return p
}

func (r *fusedRun) phaseSize(p int) int { return r.phaseStart[p+1] - r.phaseStart[p] }

// setupTracker programs the tracker and DMA table per the §4.4 address map.
func (r *fusedRun) setupTracker() error {
	tr, err := NewTracker(r.o.Tracker)
	if err != nil {
		return err
	}
	r.tracker = tr
	r.dma = NewDMATable()
	n := r.o.Devices
	updates := 1 + r.o.Grid.Tiling.SplitK // incoming + one local per K-slice (§7.7)
	if r.o.Collective == DirectReduceScatter {
		// Direct-RS: only the owned 1/n slice of each tile lands in local
		// memory, but it arrives from all n devices (and SplitK K-slices),
		// totaling exactly SplitK tile footprints at the controller.
		updates = r.o.Grid.Tiling.SplitK
	}
	err = tr.SetProgram(Program{
		WFTileBytes:       r.tileBytes,
		UpdatesPerElement: updates,
		OnReady:           r.onTileReady,
	})
	if err != nil {
		return err
	}
	if r.o.Collective == RingReduceScatter {
		// dma_map phases 1..n-2 forward to the next neighbor.
		next := 1 % n // device 0's forward neighbor
		for p := 1; p < n-1; p++ {
			for t := r.phaseStart[p]; t < r.phaseStart[p+1]; t++ {
				err := r.dma.Program(r.tileIDOf(t), DMACommand{
					DestDevice: next,
					Op:         memory.Update,
					Bytes:      r.tileBytes,
				})
				if err != nil {
					return err
				}
			}
		}
	}
	r.ownedFence = sim.NewFence(r.ownedTiles(), func() {
		r.result.CollectiveDone = r.eng.Now()
		r.emit(EventCollectiveDone)
		if r.mtrack != nil {
			r.mtrack.Span("reduce-scatter", 0, r.eng.Now())
		}
		// §4.5: the communication stream drains at the kernel boundary.
		r.mem.WhenIdle(memory.StreamComm, func() {
			r.result.Done = r.eng.Now()
			if r.mtrack != nil {
				r.mtrack.Span("drain", r.result.CollectiveDone, r.eng.Now())
			}
		})
	})
	return nil
}

// trackedTiles returns how many tiles the local tracker must fire over a full
// run. Ring-RS phase-0 tiles are remote-mapped — their stores leave over the
// link without touching the local tracker — so only phases 1..n-1 count;
// direct-RS observes every tile's owned slice locally.
func (r *fusedRun) trackedTiles() int {
	if r.o.Collective == DirectReduceScatter {
		return r.totalTiles
	}
	return r.totalTiles - r.phaseSize(0)
}

// ownedTiles returns how many tiles the device's owned region holds: the
// last production phase for ring-RS; every tile's owned slice for direct-RS.
func (r *fusedRun) ownedTiles() int {
	if r.o.Collective == DirectReduceScatter {
		return r.totalTiles
	}
	return r.phaseSize(r.o.Devices - 1)
}

func (r *fusedRun) tileIDOf(t int) TileID {
	return TileID{WG: t / 8, WF: t % 8}
}

func (r *fusedRun) tileOf(id TileID) int { return id.WG*8 + id.WF }

// writeStage is the GEMM's output sink: it routes each of the stage's
// wavefront-tile updates per the address-space configuration. With split-K,
// consecutive K-slice WGs update the same tile, each writing the full tile
// footprint of partial sums (§7.7). onDone runs when the stage's local
// stores are accepted (remote stores are fire-and-forget peer writes).
func (r *fusedRun) writeStage(_, wgs int, _ units.Bytes, onDone sim.Handler) {
	til := r.o.Grid.Tiling
	w0 := r.wgCursor
	r.wgCursor += wgs

	updates := r.updatesBuf[:0] // one entry per tile update this stage performs
	for w := w0; w < w0+wgs; w++ {
		base := (w / til.SplitK) * til.WFPerWG
		for wf := 0; wf < til.WFPerWG; wf++ {
			if t := base + wf; t < r.totalTiles {
				updates = append(updates, t)
			}
		}
	}
	r.updatesBuf = updates
	local := 0
	for _, t := range updates {
		if !r.treatRemote(t) {
			local++
		}
	}
	if local == 0 {
		// Matches NewFence(0, onDone)'s fire-at-creation: the stage callback
		// runs before the remote sends are issued.
		onDone()
		for _, t := range updates {
			r.sendRemote(t)
		}
		return
	}
	cb := getStageCB(&r.stageCBs, r, local, onDone)
	for _, t := range updates {
		if r.treatRemote(t) {
			r.sendRemote(t)
			continue
		}
		r.mem.TransferTo(memory.Update, memory.StreamCompute, r.tileBytes,
			memory.Tag{WG: t / 8, WF: t % 8}, cb)
	}
}

// treatRemote reports whether a tile's production stores are remote-mapped.
func (r *fusedRun) treatRemote(t int) bool {
	if r.o.Collective == DirectReduceScatter {
		// All stores are sliced across peers; the local share is handled in
		// sendRemote's accounting. Treat every tile as remote-ish and model
		// the owned fraction separately.
		return true
	}
	return r.phaseOf(t) == 0
}

// sendRemote models one remote-mapped tile store: it goes over the link as
// the GEMM produces it; by mirror symmetry each delivery also represents the
// previous neighbor's identical store arriving here.
func (r *fusedRun) sendRemote(t int) {
	if r.o.Collective == DirectReduceScatter {
		r.sendDirect(t)
		return
	}
	r.mRemote.Inc()
	r.emit(EventRemoteWrite)
	r.chkRing.Add(int64(r.tileBytes))
	op := r.getRemoteOp(t)
	r.links[0].Send(r.tileBytes, op.delivered)
}

// sendDirect models one direct-RS tile store: (n-1)/n of the tile scatters
// to peers over dedicated links, 1/n stays local; by mirror symmetry each
// remote delivery is a peer's slice of my owned region arriving. The tile's
// owned slice completes when all n contributions land — exactly one tile
// footprint at the controller.
func (r *fusedRun) sendDirect(t int) {
	n := r.o.Devices
	r.mem.TransferTo(memory.Update, memory.StreamCompute, r.localSlice,
		memory.Tag{WG: t / 8, WF: t % 8}, r.dirLocal)
	if r.sliceBytes == 0 {
		return
	}
	for p := 1; p < n; p++ {
		r.chkRing.Add(int64(r.sliceBytes))
		op := r.getDirectOp(t)
		r.links[p-1].Send(r.sliceBytes, op.delivered)
	}
}

// mirrorTargets maps my tile of phase p to the corresponding tile(s) of
// phase p+1, the region my neighbor's identical send updates here. Boundary
// rounding can leave the last target tile without a source (or vice versa):
// a source fragment with no target yields no entries, and when the source
// phase is smaller than the target the last source tile also carries the
// target's final fragment.
// The result is returned by value ([2]int plus a count) so the per-delivery
// call allocates nothing.
func (r *fusedRun) mirrorTargets(t, p int) (targets [2]int, n int) {
	i := t - r.phaseStart[p]
	nextSize := r.phaseSize(p + 1)
	if i >= nextSize {
		return targets, 0
	}
	targets[0] = r.phaseStart[p+1] + i
	n = 1
	if i == r.phaseSize(p)-1 && nextSize > r.phaseSize(p) {
		targets[1] = r.phaseStart[p+1] + nextSize - 1
		n = 2
	}
	return targets, n
}

// incomingUpdate stages an arriving (mirrored) update in local memory on the
// communication stream and lets the tracker count it.
func (r *fusedRun) incomingUpdate(target int) {
	if r.testDropIncoming > 0 {
		r.testDropIncoming--
		return
	}
	r.mem.TransferTo(memory.Update, memory.StreamComm, r.tileBytes,
		memory.Tag{WG: target / 8, WF: target % 8}, r)
}

func (r *fusedRun) observe(id TileID) { r.observeBytes(id, r.tileBytes) }

func (r *fusedRun) observeBytes(id TileID, b units.Bytes) {
	if err := r.tracker.Observe(id, b); err != nil && r.err == nil {
		r.err = err
	}
}

// onTileReady is the tracker trigger: forward dma_mapped tiles, count owned
// ones.
func (r *fusedRun) onTileReady(id TileID) {
	t := r.tileOf(id)
	if r.o.Collective == DirectReduceScatter {
		// Completion of a tile means its owned slice (and mirrored peers')
		// finished; no forwarding exists in direct-RS.
		r.ownedFence.Done()
		return
	}
	p := r.phaseOf(t)
	if p == r.o.Devices-1 {
		r.emit(EventOwnedTileDone)
		r.ownedFence.Done()
		return
	}
	cmd, ok := r.dma.MarkReady(id)
	if !ok {
		r.err = fmt.Errorf("t3core: tile %+v (phase %d) ready but no DMA command", id, p)
		return
	}
	r.chkDMA.Mark(r.eng.Now(), t)
	r.mTrigger.Inc()
	r.emit(EventDMATriggered)
	k := r.o.DMATilesPerBlock
	if k <= 1 {
		r.dmaSend(p, t, 1, cmd.Bytes)
		return
	}
	// Block-granular DMA (§4.2.2): the completing tile marks its block
	// entry; the block transfers once every member tile has fired. Block
	// member tiles are contiguous, so the block is just (first, count).
	i := t - r.phaseStart[p]
	b := i / k
	idx := r.blockOff[p] + b
	r.blockFill[idx]++
	first := r.phaseStart[p] + b*k
	last := first + k
	if end := r.phaseStart[p+1]; last > end {
		last = end
	}
	if r.blockFill[idx] < last-first {
		return
	}
	r.blockFill[idx] = 0
	r.dmaSend(p, first, last-first, units.Bytes(last-first)*r.tileBytes)
}

// dmaSend performs one triggered DMA over the contiguous block of count
// tiles starting at first: read the reduced tiles locally, push them over
// the ring; the mirrored delivery is the neighbor's DMA arriving for my next
// phase, updating memory and crediting each target tile.
func (r *fusedRun) dmaSend(p, first, count int, total units.Bytes) {
	op := r.getDMAOp(p, first, count, total)
	r.mem.Transfer(memory.Read, memory.StreamComm, total,
		memory.Tag{WG: first / 8, WF: first % 8}, op.readDone)
}
