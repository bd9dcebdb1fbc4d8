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
	// paths, store-and-forwarding at intermediate hops, and the cluster's
	// conservative lookahead becomes the topology's minimum link latency.
	// The zero spec is the implicit RingTopo(Devices, Link). The mirror run
	// (RunFused) always builds its graph from Link — a ring, or a switch
	// for direct reduce-scatter — sends only on device 0's out-links, and
	// rejects a non-ring Topo.
	Topo interconnect.TopoSpec
	// Devices is the tensor-parallel degree (ring size).
	Devices int
	// Grid is the (already K-sliced) producer GEMM.
	Grid gemm.Grid
	// Arbitration picks the MC policy; ArbMCA also enables the §4.5 monitor
	// window during the GEMM's first stage.
	Arbitration Arbitration
	// Collective selects the fused collective: ring or direct
	// reduce-scatter, ring all-gather (o.Grid is then the producer's local
	// shard), or all-to-all. The explicit multi-device run supports ring
	// reduce-scatter only.
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
	// reduce-scatter mirror runs group tiles into blocks; the explicit run
	// forwards tile by tile.
	DMATilesPerBlock int
	// DoubleBufferedGEMM runs the producer with operand prefetching
	// (software pipelining) instead of the conservative read-then-compute
	// stage schedule.
	DoubleBufferedGEMM bool
	// Metrics, if non-nil, is threaded through every model in the run: the
	// memory controller, the producer kernel, and the links register their
	// instruments on it, and the run adds a "t3core" timeline track with
	// gemm/collective/drain spans plus one instant per fused-run event,
	// named by its EventKind (read back with Track.Instants). The explicit
	// run records each device's instruments under its own "dev<i>" scope. A
	// nil sink records nothing and costs nothing. If Memory.Metrics is
	// already set it wins for a mirror run's controller.
	Metrics metrics.Sink
	// ParWorkers is the worker-goroutine budget of the explicit
	// multi-device run, which simulates every device on its own sim.Cluster
	// engine, advanced in conservative windows bounded by the minimum link
	// latency; the mirror run simulates one device on one engine and
	// ignores it. 0 and 1 both run every window inline on the calling
	// goroutine, and a larger value uses up to ParWorkers goroutines per
	// window. Results are byte-identical at every value — the knob trades
	// wall-clock time only — so it is excluded from the experiment memo key
	// (policySkip).
	ParWorkers int
	// Check, if non-nil, is threaded through every model the same way
	// Metrics is: the engines witness event-time monotonicity, the memory
	// channels witness service non-overlap and queue-depth bounds, the links
	// witness serialization non-overlap, and the run itself closes the books
	// at the end — on the mirror's one engine, link bytes delivered equal
	// bytes injected; on every device, the tracker drained to zero live
	// entries and fired once per tracked tile within its sets×ways budget,
	// each DMA triggered exactly once per tile, and spans nest (GEMMDone ≤
	// CollectiveDone ≤ Done); and no link was busy longer than the wall
	// clock. A nil checker records nothing and costs nothing (pinned by the
	// nil-cost integration test). If Memory.Check is already set it wins for
	// the controllers.
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

// MultiDeviceResult reports an explicit N-device fused run. It exists to
// validate the single-GPU mirror methodology (§5.1.1): under homogeneous
// execution every device should complete at (nearly) the same time, and
// that time should match the mirror run.
type MultiDeviceResult struct {
	// GEMMDone / CollectiveDone per device.
	GEMMDone       []units.Time
	CollectiveDone []units.Time
	// Done is the latest device's CollectiveDone. Unlike the mirror run's
	// FusedResult.Done, it adds no communication-stream drain.
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
		lo, hi = min(lo, t), max(hi, t)
	}
	return hi - lo
}

// RunFused executes a fused GEMM→collective on the single-GPU mirror model
// and returns its timing and traffic. o.Collective picks the datapath: ring
// reduce-scatter (the paper's T3 with Arbitration=ArbRoundRobin, T3-MCA
// with ArbMCA), direct reduce-scatter, ring all-gather (o.Grid is the
// producer's local shard) or all-to-all (§7.1, §7.2).
func RunFused(o FusedOptions) (FusedResult, error) {
	r, err := newFusedRun(o, false)
	if err != nil {
		return FusedResult{}, err
	}
	if err := r.run(); err != nil {
		return FusedResult{}, err
	}
	d := r.devs[0]
	res := FusedResult{
		GEMMDone:       d.gemmDone,
		CollectiveDone: d.collectiveDone,
		Done:           d.drained,
		DRAM:           *d.mem.Counters(),
		LinkBytes:      r.topo.SentBytes(),
		TrackerMaxLive: d.trk.MaxLive(),
		DMATriggered:   d.dma.Triggered(),
		MCAThreshold:   d.mcaThreshold(),
		StageReads:     d.kernel.StageReads(),
	}
	return res, nil
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
	r, err := newFusedRun(o, true)
	if err != nil {
		return MultiDeviceResult{}, err
	}
	if err := r.run(); err != nil {
		return MultiDeviceResult{}, err
	}
	res := MultiDeviceResult{
		LinkBytes:    r.topo.SentBytes(),
		MCAThreshold: r.devs[0].mcaThreshold(),
		Cluster:      r.cl.Stats(),
	}
	for _, d := range r.devs {
		res.GEMMDone = append(res.GEMMDone, d.gemmDone)
		res.CollectiveDone = append(res.CollectiveDone, d.collectiveDone)
		cnt := d.mem.Counters()
		res.PerDeviceDRAM = append(res.PerDeviceDRAM, *cnt)
		for k := 0; k < 3; k++ {
			for s := 0; s < 2; s++ {
				res.DRAM.Bytes[k][s] += cnt.Bytes[k][s]
				res.DRAM.Requests[k][s] += cnt.Requests[k][s]
			}
		}
		res.TrackerMaxLive = max(res.TrackerMaxLive, d.trk.MaxLive())
		res.Done = max(res.Done, d.collectiveDone)
	}
	return res, nil
}
