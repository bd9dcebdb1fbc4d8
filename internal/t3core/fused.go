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
	// Single-GPU mirror runs (RunFused) model the ring implicitly and
	// reject a non-ring Topo.
	Topo interconnect.TopoSpec
	// Devices is the tensor-parallel degree (ring size).
	Devices int
	// Grid is the (already K-sliced) producer GEMM.
	Grid gemm.Grid
	// Arbitration picks the MC policy; ArbMCA also enables the §4.5 monitor
	// window during the GEMM's first stage.
	Arbitration Arbitration
	// Collective selects the fused collective RunFused simulates: ring or
	// direct reduce-scatter, ring all-gather, or all-to-all. The explicit
	// multi-device run supports ring reduce-scatter only.
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
	// tile per DMA; larger blocks make communication burstier. Only ring
	// reduce-scatter mirror runs group tiles into blocks.
	DMATilesPerBlock int
	// DoubleBufferedGEMM runs the producer with operand prefetching
	// (software pipelining) instead of the conservative read-then-compute
	// stage schedule.
	DoubleBufferedGEMM bool
	// Metrics, if non-nil, is threaded through every model in the run: the
	// memory controller, the producer kernel, and the ring links register
	// their instruments on it, and the run adds a "t3core" timeline track
	// with gemm/collective/drain spans plus one instant per fused-run
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
	// books at the end — ring bytes delivered equal bytes injected, each
	// device's tracker drained to zero live entries and fired once per
	// tracked tile within its sets×ways budget, each DMA triggered exactly
	// once per tile, spans nest (GEMMDone ≤ CollectiveDone ≤ Done), and no
	// link was busy longer than the wall clock. A nil checker records
	// nothing and costs nothing (pinned by the nil-cost integration test).
	// If Memory.Check is already set it wins for the controller.
	Check *check.Checker
}

// Validate reports whether RunFused runs the options. The explicit
// multi-device run (RunFusedGEMMRSMultiDevice) has its own rules: ring
// reduce-scatter at SplitK=1 on any topology with a positive minimum link
// latency.
func (o FusedOptions) Validate() error { return o.validate(false) }

// validate checks the options of a mirror run, or of the explicit
// multi-device run when explicit is set.
func (o FusedOptions) validate(explicit bool) error {
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
	switch {
	case explicit && o.Collective != RingReduceScatter:
		return fmt.Errorf("t3core: multi-device run supports ring reduce-scatter, got %v", o.Collective)
	case o.Collective < RingReduceScatter || o.Collective > AllToAll:
		return fmt.Errorf("t3core: unknown collective %v", o.Collective)
	}
	if o.Grid.Tiling.SplitK != 1 && (explicit || o.Collective == RingAllGather || o.Collective == AllToAll) {
		return fmt.Errorf("t3core: SplitK=%d: the explicit run, all-gather and all-to-all support SplitK=1 only",
			o.Grid.Tiling.SplitK)
	}
	if err := o.validateArbitration(); err != nil {
		return err
	}
	if err := o.validateTopo(); err != nil {
		return err
	}
	if !explicit && !o.Topo.IsZero() && o.Topo.Kind != interconnect.TopoRing {
		return fmt.Errorf("t3core: single-GPU mirror runs model the ring implicitly; use RunFusedGEMMRSMultiDevice for a %v topology", o.Topo.Kind)
	}
	tiles := o.Grid.NumWFs() / o.Grid.Tiling.SplitK
	if tiles < o.Devices {
		return fmt.Errorf("t3core: %d wavefront tiles cannot chunk across %d devices", tiles, o.Devices)
	}
	if explicit {
		// The cluster's lookahead is the graph's minimum link latency, and a
		// conservative window needs it positive.
		if minLat := o.topoSpec().MinLinkLatency(); minLat <= 0 {
			return fmt.Errorf(
				"t3core: multi-device run needs a positive minimum link latency as the cluster lookahead, got %v", minLat)
		}
	}
	return nil
}

// topoSpec returns the run's interconnect: o.Topo, or the implicit ring.
func (o FusedOptions) topoSpec() interconnect.TopoSpec {
	if o.Topo.IsZero() {
		return interconnect.RingTopo(o.Devices, o.Link)
	}
	return o.Topo
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

// FusedResult reports a fused run's timing and traffic.
type FusedResult struct {
	// GEMMDone is when the producer kernel finished (all stores accepted).
	GEMMDone units.Time
	// CollectiveDone is when the device's collective completed (for
	// reduce-scatter, when its owned chunk was fully reduced).
	CollectiveDone units.Time
	// Done is CollectiveDone plus the communication-stream drain at the
	// kernel boundary (§4.5).
	Done units.Time
	// DRAM is the device's memory traffic.
	DRAM memory.Counters
	// LinkBytes is the traffic the device pushed onto its links.
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

// device is the per-GPU skeleton both timed runners build: the memory
// controller under its arbitration policy, the tracker, the §4.2.2 DMA
// command table and the producer kernel.
type device struct {
	eng    *sim.Engine
	arb    memory.Arbiter
	mem    *memory.Controller
	trk    *Tracker
	dma    *DMATable
	kernel *gpu.GEMMKernel
}

// deviceSpec is what a runner decides about one device before building it.
type deviceSpec struct {
	sink    metrics.Sink // the kernel's metrics, and the controller's unless o.Memory sets one
	amap    AddressMap   // its dma_map phases program the DMA table
	span    func(PhaseMap) (lo, hi int)
	updates int // the tracker's trigger count per element
	// updatesFor, if non-nil, overrides updates per tile.
	updatesFor func(TileID) int
	onReady    func(TileID)
	write      gpu.WriteStageFunc
}

// newDevice builds one device on eng. Each dma_map phase of s.amap
// programs a command per tile of the span its chunk occupies, forwarding
// the tile to the phase's destination with the phase's access kind.
func newDevice(eng *sim.Engine, o FusedOptions, s deviceSpec) (device, error) {
	if o.Memory.Metrics == nil {
		o.Memory.Metrics = s.sink
	}
	if o.Memory.Check == nil {
		o.Memory.Check = o.Check
	}
	d := device{eng: eng}
	var err error
	if d.arb, err = newArbiter(o); err != nil {
		return d, err
	}
	if d.mem, err = memory.NewController(eng, o.Memory, d.arb); err != nil {
		return d, err
	}
	if d.trk, err = NewTracker(o.Tracker); err != nil {
		return d, err
	}
	tileBytes := o.Grid.WFTileBytes()
	if err := d.trk.SetProgram(Program{
		WFTileBytes:       tileBytes,
		UpdatesPerElement: s.updates,
		Updates:           s.updatesFor,
		OnReady:           s.onReady,
	}); err != nil {
		return d, err
	}
	tiles := 0
	for _, pm := range s.amap.Phases {
		if _, hi := s.span(pm); pm.Treatment == TreatDMA && hi > tiles {
			tiles = hi
		}
	}
	d.dma = NewDMATable(tiles)
	for _, pm := range s.amap.Phases {
		if pm.Treatment != TreatDMA {
			continue
		}
		lo, hi := s.span(pm)
		for t := lo; t < hi; t++ {
			if err := d.dma.Program(tileID(t), DMACommand{
				DestDevice: pm.Dest, Op: pm.Op, Bytes: tileBytes,
			}); err != nil {
				return d, err
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
		WriteStage:        s.write,
		DoubleBuffered:    o.DoubleBufferedGEMM,
		Metrics:           s.sink,
	}
	return d, nil
}

// endChecks applies one device's end-of-run laws under c: the tracker
// drained to zero live entries, fired once per tracked tile and stayed
// within its sets×ways budget, and the producer finished no later than the
// collective. name prefixes the checked components.
func (d *device) endChecks(c *check.Checker, wall units.Time, name string, tracked int, gemmDone, collDone units.Time) {
	if live := d.trk.Live(); live != 0 {
		c.Violationf(wall, name+".tracker", check.RuleConservation+"/drain",
			"%d live entries after drain, want 0", live)
	}
	if fired, want := d.trk.Fired(), int64(tracked); fired != want {
		c.Violationf(wall, name+".tracker", check.RuleConservation+"/fired",
			"%d tiles fired, want %d", fired, want)
	}
	if ml, limit := d.trk.MaxLive(), d.trk.Capacity(); ml > limit {
		c.Violationf(wall, name+".tracker", check.RuleBound+"/occupancy",
			"%d live entries exceed sets×ways = %d", ml, limit)
	}
	if collDone < gemmDone {
		c.Violationf(wall, name+".spans", check.RuleOrdering+"/nesting",
			"collective done %v before gemm done %v", collDone, gemmDone)
	}
}

// tileID maps a linear tile index to its tracker identity (see
// dmaWFStride).
func tileID(t int) TileID { return TileID{WG: t / dmaWFStride, WF: t % dmaWFStride} }

// tileIndex is tileID's inverse.
func tileIndex(id TileID) int { return id.WG*dmaWFStride + id.WF }

func tileTag(t int) memory.Tag { return memory.Tag{WG: t / dmaWFStride, WF: t % dmaWFStride} }

// credit names what a landed transfer counts toward.
type credit uint8

const (
	creditTracker credit = 1 << iota // the tile's tracker entry
	creditDone                       // the run's completion fence
)

// phaseRoute is where the mirror device sends a tile it produces in one
// phase (§4.4): a local store on the compute stream, a remote send over its
// links, or both.
type phaseRoute struct{ store, send bool }

// fusedRun is the single-GPU mirror simulation of §5.1.1: all devices in a
// group execute identically, so the run models device 0 and generates its
// incoming traffic by mirroring its own outgoing sends — each delivered
// send also stands for the identical send of a peer arriving here.
//
// The collective is data, fixed in setup. Tiles are indexed in production
// order and split into n near-equal phases. route says what happens to a
// produced tile; mirrorNext says whether a delivery lands on the matching
// tile of the next phase (ring RS and AG, the region the previous
// neighbor's identical send updates) or on the same tile (direct RS and
// all-to-all, a peer's contribution to my copy); the credits say what a
// landed store or arrival counts toward; the address map's dma_map phases
// forward each fired tile to the next phase; and the completion fence waits
// for a fixed count of tracker fires or arrivals. All-gather's tile space
// covers n shards: phase 0 is the produced shard, phase h the copy that
// arrives after h ring hops.
type fusedRun struct {
	o FusedOptions
	device
	links []*interconnect.Link // 1 for the ring; n-1 dedicated for direct RS

	kind       memory.AccessKind // Update for reductions, Write for data movement
	route      []phaseRoute      // by production phase
	mirrorNext bool
	isDMA      []bool // by phase: fired tiles forward over the ring

	// Credits of a local production store and of an arrival. When arrivals
	// credit the completion fence, tracker fires do not.
	storeCredit  credit
	arriveCredit credit

	tileBytes  units.Bytes
	sendBytes  units.Bytes // one remote send (a 1/n slice for direct RS)
	prodTiles  int         // tiles the GEMM produces
	totalTiles int         // tiles in the phase space
	phaseStart []int       // tile index where each phase begins
	tracked    int         // tiles the tracker must fire over the run
	spanName   string      // the collective's timeline span

	wgCursor int // production cursor for the GEMM sink

	// blockFill counts fired tiles per DMA block when blockTiles > 1 (ring
	// RS only). Blocks are dense: blockOff[p] is phase p's first block
	// index, so block b of phase p lives at blockFill[blockOff[p]+b].
	blockTiles int
	blockFill  []int
	blockOff   []int

	arrival landing // an arriving send or DMA update
	kept    landing // direct RS: the tile's own 1/n slice, stored locally
	keep    units.Bytes

	// Freelists for the pooled per-event callbacks (see fused_ops.go);
	// steady state allocates nothing.
	sendOps  []*sendOp
	dmaOps   []*dmaOp
	stageCBs []*stageCB

	updatesBuf []int // writeStage scratch, reused across stages

	done   *sim.Fence
	result FusedResult
	err    error

	mtrack   *metrics.Track   // "t3core" timeline (nil-safe)
	mTrigger *metrics.Counter // tracker-fired DMA triggers
	mRemote  *metrics.Counter // remote-mapped production stores

	// Invariant-checker handles (nil-safe; nil without FusedOptions.Check).
	chkRing *check.Ledger // wire bytes: injected into links vs delivered
	chkDMA  *check.Once   // one triggered DMA per dma_mapped tile

	// testDropIncoming, when positive, silently discards that many mirrored
	// incoming sends — a deliberately injected conservation bug used by the
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

// RunFused executes a fused GEMM→collective on the single-GPU mirror model
// and returns its timing and traffic. o.Collective picks the datapath: ring
// reduce-scatter (the paper's T3 with Arbitration=ArbRoundRobin, T3-MCA
// with ArbMCA), direct reduce-scatter, ring all-gather (o.Grid is the
// producer's local shard) or all-to-all (§7.1, §7.2).
func RunFused(o FusedOptions) (FusedResult, error) {
	r, err := newFusedRun(o)
	if err != nil {
		return FusedResult{}, err
	}
	return r.run()
}

// newFusedRun validates the options and builds the run: engine, device,
// links and the collective's routing — everything except starting the
// simulation. Tests construct runs directly to inject faults before run().
func newFusedRun(o FusedOptions) (*fusedRun, error) {
	if err := o.Validate(); err != nil {
		return nil, err
	}
	r := &fusedRun{o: o}
	eng := sim.NewEngine()
	eng.AttachChecker(o.Check)
	if m := o.Metrics; m != nil {
		r.mtrack = m.Track("t3core")
		r.mTrigger = m.Counter("t3core.tracker.triggers")
		r.mRemote = m.Counter("t3core.remote_write_tiles")
	}
	if c := o.Check; c != nil {
		r.chkRing = c.Ledger("t3core.ring")
		r.chkDMA = c.Once("t3core.dma")
	}

	n := o.Devices
	g := o.Grid
	r.tileBytes = g.WFTileBytes()
	r.sendBytes = r.tileBytes
	r.prodTiles = g.NumWFs() / g.Tiling.SplitK
	r.totalTiles = r.prodTiles
	if o.Collective == RingAllGather {
		r.totalTiles = n * r.prodTiles // the n shards' hop copies
	}
	r.phaseStart = make([]int, n+1)
	for p := 0; p <= n; p++ {
		r.phaseStart[p] = p * r.totalTiles / n
	}
	amap, updates, updatesFor := r.setupCollective()
	r.isDMA = make([]bool, n)
	for _, pm := range amap.Phases {
		r.isDMA[pm.Phase] = pm.Treatment == TreatDMA
	}
	r.arrival = landing{r: r, bytes: r.sendBytes, credit: r.arriveCredit}
	r.kept = landing{r: r, bytes: r.keep, credit: creditTracker}
	if k := r.blockTiles; k > 1 {
		// Block-granular DMA: lay the per-block fill counters out densely,
		// one run of ceil(phaseSize/k) blocks per phase.
		r.blockOff = make([]int, n+1)
		for p := 0; p < n; p++ {
			r.blockOff[p+1] = r.blockOff[p] + (r.phaseSize(p)+k-1)/k
		}
		r.blockFill = make([]int, r.blockOff[n])
	}

	var err error
	r.device, err = newDevice(eng, o, deviceSpec{
		sink: o.Metrics,
		amap: amap,
		span: func(pm PhaseMap) (int, int) {
			return r.phaseStart[pm.Phase], r.phaseStart[pm.Phase+1]
		},
		updates:    updates,
		updatesFor: updatesFor,
		onReady:    r.onReady,
		write:      r.writeStage,
	})
	if err != nil {
		return nil, err
	}
	r.kernel.OnStageComputed = func(int, int) { r.emit(EventStageComputed) }
	nLinks := 1
	if o.Collective == DirectReduceScatter {
		nLinks = n - 1 // fully-connected: a dedicated link per peer
	}
	for i := 0; i < nLinks; i++ {
		link, err := interconnect.NewLink(eng, o.Link)
		if err != nil {
			return nil, err
		}
		name := "fwd0"
		if o.Collective == DirectReduceScatter {
			name = fmt.Sprintf("link%d", i)
		}
		link.AttachMetrics(o.Metrics, name)
		link.AttachChecker(o.Check, name)
		r.links = append(r.links, link)
	}
	return r, nil
}

// setupCollective fixes the collective's routing data and returns the
// device-0 address map whose dma_map phases the DMA table forwards, with
// the tracker's trigger count per element (and, when phases differ, a
// per-tile count). The mirror follows the ring maps phase for phase; direct
// RS and all-to-all program no DMA, and their routes differ from their
// maps' chunk order (see DirectReduceScatterMap and AllToAllMap).
func (r *fusedRun) setupCollective() (AddressMap, int, func(TileID) int) {
	o := r.o
	n := o.Devices
	r.route = make([]phaseRoute, n)
	r.kind = memory.Update
	r.blockTiles = 1
	completions := 0
	var amap AddressMap
	updates := 1
	var updatesFor func(TileID) int
	switch o.Collective {
	case RingReduceScatter:
		// Phase 0 is remote-written; phases 1..n-1 are local NMC updates,
		// each expecting one local update per K-slice plus what arrives
		// (§7.7); phases 1..n-2 forward, phase n-1 is owned. Phase 1's
		// arrivals are the neighbor's phase-0 remote writes, one per
		// K-slice, so its tiles see 2·SplitK updates; a later phase's is
		// the one DMA update its predecessor forwards, so 1+SplitK.
		amap = RingReduceScatterMap(0, n)
		k := o.Grid.Tiling.SplitK
		updates = 1 + k
		if k > 1 {
			updatesFor = func(id TileID) int {
				if r.phaseOf(tileIndex(id)) == 1 {
					return 2 * k
				}
				return 1 + k
			}
		}
		r.route[0].send = true
		for p := 1; p < n; p++ {
			r.route[p].store = true
		}
		r.mirrorNext = true
		r.storeCredit, r.arriveCredit = creditTracker, creditTracker
		r.tracked = r.totalTiles - r.phaseSize(0)
		completions = r.phaseSize(n - 1)
		r.blockTiles = max(o.DMATilesPerBlock, 1)
		r.spanName = "reduce-scatter"
	case DirectReduceScatter:
		// Every tile is sliced 1/n per device: the own slice stays local,
		// n-1 slices go to the peers over dedicated links, and the mirror
		// is each peer's slice of my copy of the tile arriving. A tile's
		// owned slice totals SplitK tile footprints at the controller.
		amap = DirectReduceScatterMap(0, n)
		updates = o.Grid.Tiling.SplitK
		for p := range r.route {
			r.route[p].send = true
		}
		r.sendBytes = r.tileBytes / units.Bytes(n)
		r.keep = r.tileBytes - units.Bytes(n-1)*r.sendBytes // absorbs remainder
		r.arriveCredit = creditTracker
		r.tracked = r.totalTiles
		completions = r.totalTiles
		r.spanName = "reduce-scatter"
	case RingAllGather:
		// The produced shard is written locally and remote-written onward;
		// each arriving hop copy is a plain write the tracker counts once
		// (§7.1), forwarded for hops 1..n-2. Local shard stores only
		// fence the stage, and the collective completes on arrivals.
		amap = RingAllGatherMap(0, n)
		r.kind = memory.Write
		r.route[0] = phaseRoute{store: true, send: true}
		r.mirrorNext = true
		r.arriveCredit = creditTracker | creditDone
		r.tracked = r.totalTiles - r.phaseSize(0)
		completions = r.tracked
		r.spanName = "all-gather"
	case AllToAll:
		// Chunk j goes to device j: the owned chunk, produced last, is
		// stored locally; every other chunk is remote-written and the
		// mirror is a peer's tile for my chunk arriving. Nothing is
		// tracked; stores and arrivals both count toward completion.
		amap = AllToAllMap(0, n)
		r.kind = memory.Write
		for p := 0; p < n-1; p++ {
			r.route[p].send = true
		}
		r.route[n-1].store = true
		r.storeCredit, r.arriveCredit = creditDone, creditDone
		completions = r.totalTiles
		r.spanName = "all-to-all"
	}
	r.done = sim.NewFence(completions, r.collectiveDone)
	return amap, updates, updatesFor
}

// collectiveDone runs when the completion fence fires: the collective is
// over, and §4.5's communication stream drains at the kernel boundary.
func (r *fusedRun) collectiveDone() {
	r.result.CollectiveDone = r.eng.Now()
	r.emit(EventCollectiveDone)
	if r.mtrack != nil {
		r.mtrack.Span(r.spanName, 0, r.eng.Now())
	}
	r.mem.WhenIdle(memory.StreamComm, func() {
		r.result.Done = r.eng.Now()
		if r.mtrack != nil {
			r.mtrack.Span("drain", r.result.CollectiveDone, r.eng.Now())
		}
	})
}

// run starts the producer, drains the engine, applies the end-of-run
// invariant checks, and assembles the result.
func (r *fusedRun) run() (FusedResult, error) {
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
	if !r.done.Fired() {
		return FusedResult{}, fmt.Errorf("t3core: fused %v stalled: %d completions outstanding",
			r.o.Collective, r.done.Remaining())
	}
	r.result.DRAM = *r.mem.Counters()
	for _, l := range r.links {
		r.result.LinkBytes += l.SentBytes()
	}
	r.result.TrackerMaxLive = r.trk.MaxLive()
	r.result.DMATriggered = r.dma.Triggered()
	if mca, ok := r.arb.(*memory.MCA); ok {
		r.result.MCAThreshold = mca.Threshold()
	}
	r.result.StageReads = r.kernel.StageReads()
	if m := r.o.Metrics; m != nil {
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
	r.device.endChecks(c, wall, "t3core", r.tracked, r.result.GEMMDone, r.result.CollectiveDone)
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

// writeStage is the GEMM's output sink: it routes each of the stage's
// wavefront-tile updates per the collective's phase routes. With split-K,
// consecutive K-slice WGs update the same tile, each writing the full tile
// footprint of partial sums (§7.7). onDone runs when the stage's local
// stores are accepted (remote sends are fire-and-forget peer writes); a
// stage without local stores completes at once, before its sends issue.
func (r *fusedRun) writeStage(_, wgs int, _ units.Bytes, onDone sim.Handler) {
	til := r.o.Grid.Tiling
	w0 := r.wgCursor
	r.wgCursor += wgs

	updates := r.updatesBuf[:0] // one entry per tile update this stage performs
	for w := w0; w < w0+wgs; w++ {
		base := (w / til.SplitK) * til.WFPerWG
		for wf := 0; wf < til.WFPerWG; wf++ {
			if t := base + wf; t < r.prodTiles {
				updates = append(updates, t)
			}
		}
	}
	r.updatesBuf = updates
	local := 0
	for _, t := range updates {
		if r.route[r.phaseOf(t)].store {
			local++
		}
	}
	var cb *stageCB
	if local == 0 {
		onDone()
	} else {
		cb = getStageCB(&r.stageCBs, r, local, onDone)
	}
	for _, t := range updates {
		rt := r.route[r.phaseOf(t)]
		if rt.store {
			r.mem.TransferTo(r.kind, memory.StreamCompute, r.tileBytes, tileTag(t), cb)
		}
		if rt.send {
			r.send(t)
		}
	}
}

// send models one remote-mapped tile store: it goes over the links as the
// GEMM produces it (direct RS keeps its own slice locally and sends one
// slice per peer); by mirror symmetry each delivery also stands for a
// peer's identical send arriving here.
func (r *fusedRun) send(t int) {
	r.mRemote.Inc()
	r.emit(EventRemoteWrite)
	if r.keep > 0 {
		r.mem.TransferTo(r.kind, memory.StreamCompute, r.keep, tileTag(t), &r.kept)
	}
	if r.sendBytes == 0 {
		return
	}
	for _, l := range r.links {
		r.chkRing.Add(int64(r.sendBytes))
		l.Send(r.sendBytes, r.getSendOp(t).delivered)
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

// incoming stages one mirrored arrival on tile target in local memory on
// the communication stream; its landing credits the tile.
func (r *fusedRun) incoming(target int) {
	if r.testDropIncoming > 0 {
		r.testDropIncoming--
		return
	}
	r.mem.TransferTo(r.kind, memory.StreamComm, r.sendBytes, tileTag(target), &r.arrival)
}

// observe credits one completed local store of tile id (the stageCB
// callback).
func (r *fusedRun) observe(id TileID) { r.land(id, r.tileBytes, r.storeCredit) }

// land credits b landed bytes of tile id to what c names.
func (r *fusedRun) land(id TileID, b units.Bytes, c credit) {
	if c&creditTracker != 0 {
		if err := r.trk.Observe(id, b); err != nil && r.err == nil {
			r.err = err
		}
	}
	if c&creditDone != 0 {
		r.done.Done()
	}
}

// onReady is the tracker trigger: forward dma_mapped tiles; in a run that
// completes on fires, count the others.
func (r *fusedRun) onReady(id TileID) {
	t := tileIndex(id)
	p := r.phaseOf(t)
	if !r.isDMA[p] {
		if r.arriveCredit&creditDone == 0 {
			r.emit(EventOwnedTileDone)
			r.done.Done()
		}
		return
	}
	if _, ok := r.dma.MarkReady(id); !ok {
		r.err = fmt.Errorf("t3core: tile %+v (phase %d) ready but no DMA command", id, p)
		return
	}
	r.chkDMA.Mark(r.eng.Now(), t)
	r.mTrigger.Inc()
	r.emit(EventDMATriggered)
	k := r.blockTiles
	if k == 1 {
		r.dmaSend(p, t, 1)
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
	last := min(first+k, r.phaseStart[p+1])
	if r.blockFill[idx] < last-first {
		return
	}
	r.blockFill[idx] = 0
	r.dmaSend(p, first, last-first)
}

// dmaSend performs one triggered DMA over the contiguous block of count
// tiles starting at first: read the tiles locally, push them over the ring;
// the mirrored delivery is the neighbor's DMA arriving for my next phase,
// landing in memory and crediting each target tile.
func (r *fusedRun) dmaSend(p, first, count int) {
	op := r.getDMAOp(p, first, count, units.Bytes(count)*r.tileBytes)
	r.mem.Transfer(memory.Read, memory.StreamComm, op.total, tileTag(first), op.readDone)
}
