// Package t3sim is a from-scratch Go reproduction of "T3: Transparent
// Tracking & Triggering for Fine-grained Overlap of Compute & Collectives"
// (Pati et al., ASPLOS 2024).
//
// The package is organized in three layers, all re-exported here as the
// public API:
//
//   - functional collectives (RingAllReduce, RingReduceScatter, ...) and the
//     functional T3 protocol (RunFunctionalFusedReduceScatter) that move
//     real float32 data and define the semantics the timing models must
//     match;
//
//   - the timing layer: a deterministic discrete-event simulation of the
//     Table 1 machine — 80-CU GPU with a staged tiled-GEMM model, 1 TB/s
//     HBM with near-memory compute and dual-stream memory controllers, a
//     150 GB/s ring — over which RunFusedGEMMRS executes the paper's fused
//     GEMM→reduce-scatter with the hardware tracker, triggered DMAs, and
//     the MCA arbitration policy;
//
//   - the evaluation layer: one driver per paper table and figure
//     (Fig4..Fig20, Table1..Table3), returning typed rows and rendering the
//     same series the paper plots.
//
// Quick start:
//
//	opts := t3sim.FusedOptions{
//	    GPU:     t3sim.DefaultGPUConfig(),
//	    Memory:  t3sim.DefaultMemoryConfig(),
//	    Link:    t3sim.DefaultLinkConfig(),
//	    Tracker: t3sim.DefaultTrackerConfig(),
//	    Devices: 4,
//	    Grid:    grid, // a gemm launch built with NewGrid
//	    Collective:  t3sim.RingReduceScatterCollective,
//	    Arbitration: t3sim.ArbMCA,
//	}
//	res, err := t3sim.RunFusedGEMMRS(opts)
//
// See examples/ for runnable programs and DESIGN.md for the full system
// inventory and the per-experiment index.
package t3sim

import (
	"t3sim/internal/check"
	"t3sim/internal/collective"
	"t3sim/internal/gemm"
	"t3sim/internal/gpu"
	"t3sim/internal/interconnect"
	"t3sim/internal/memory"
	"t3sim/internal/metrics"
	"t3sim/internal/sim"
	"t3sim/internal/t3core"
	"t3sim/internal/transformer"
	"t3sim/internal/units"
)

// Physical quantity types shared across the API.
type (
	// Time is a duration or timestamp in picoseconds.
	Time = units.Time
	// Bytes is a data size.
	Bytes = units.Bytes
	// Bandwidth is bytes per second.
	Bandwidth = units.Bandwidth
	// Frequency is a clock rate in hertz.
	Frequency = units.Frequency
)

// Common unit constants.
const (
	Nanosecond  = units.Nanosecond
	Microsecond = units.Microsecond
	Millisecond = units.Millisecond
	Second      = units.Second
	KiB         = units.KiB
	MiB         = units.MiB
	GiB         = units.GiB
	GBps        = units.GBps
	TBps        = units.TBps
	GHz         = units.GHz
)

// GEMM launch description.
type (
	// GEMMShape is C[M×N] += A[M×K]·B[K×N] with element size and operand
	// layouts.
	GEMMShape = gemm.Shape
	// GEMMTiling is the workgroup/wavefront blocking of a tiled kernel.
	GEMMTiling = gemm.Tiling
	// GEMMGrid is a launch: shape × tiling with the derived geometry.
	GEMMGrid = gemm.Grid
)

// NewGrid derives the launch geometry for a shape under a tiling.
func NewGrid(s GEMMShape, t GEMMTiling) (GEMMGrid, error) { return gemm.NewGrid(s, t) }

// DefaultTiling is the 128×128 macro-tile, 4-wavefront blocking the
// evaluated BLAS kernels use.
func DefaultTiling() GEMMTiling { return gemm.DefaultTiling() }

// GEMMEfficiency estimates the fraction of peak MAC throughput a launch
// sustains.
func GEMMEfficiency(g GEMMGrid) float64 { return gemm.Efficiency(g) }

// Hardware configurations (Table 1).
type (
	// GPUConfig describes the modeled GPU.
	GPUConfig = gpu.Config
	// MemoryConfig describes the HBM stack.
	MemoryConfig = memory.Config
	// BankConfig enables the bank-group-level DRAM timing model.
	BankConfig = memory.BankConfig
	// LinkConfig describes one ring link.
	LinkConfig = interconnect.Config
	// TrackerConfig sizes the T3 tracker hardware.
	TrackerConfig = t3core.TrackerConfig
)

// DefaultGPUConfig mirrors Table 1 (80 CUs at 1.4 GHz, 16 MiB LLC).
func DefaultGPUConfig() GPUConfig { return gpu.DefaultConfig() }

// DefaultMemoryConfig mirrors Table 1 (1 TB/s HBM2, NMC op-and-store).
func DefaultMemoryConfig() MemoryConfig { return memory.DefaultConfig() }

// DefaultBankConfig mirrors Table 1's HBM2 bank-group timing row.
func DefaultBankConfig() BankConfig { return memory.DefaultBankConfig() }

// DefaultLinkConfig mirrors Table 1 (150 GB/s bidirectional ring, 500 ns).
func DefaultLinkConfig() LinkConfig { return interconnect.DefaultConfig() }

// DefaultTrackerConfig mirrors §4.2.1 (256 sets × 8 ways).
func DefaultTrackerConfig() TrackerConfig { return t3core.DefaultTrackerConfig() }

// The T3 mechanism (§4).
type (
	// Tracker is the §4.2.1 track-&-trigger counter table.
	Tracker = t3core.Tracker
	// TrackerProgram is the driver-written launch configuration.
	TrackerProgram = t3core.Program
	// TileID identifies one wavefront's output tile.
	TileID = t3core.TileID
	// DMATable is the §4.2.2 pre-programmed command table.
	DMATable = t3core.DMATable
	// DMACommand is one pre-programmed transfer.
	DMACommand = t3core.DMACommand
	// AddressMap is the §4.4 producer output configuration.
	AddressMap = t3core.AddressMap
	// PhaseMap is one production phase's treatment within an AddressMap.
	PhaseMap = t3core.PhaseMap
	// FusedOptions parameterizes a fused GEMM→collective timing run.
	FusedOptions = t3core.FusedOptions
	// FusedResult reports a fused run's timing and traffic.
	FusedResult = t3core.FusedResult
	// FunctionalFusedResult reports the functional protocol run.
	FunctionalFusedResult = t3core.FunctionalResult
	// Arbitration selects the memory-controller policy.
	Arbitration = t3core.Arbitration
	// FusedCollective selects which collective a fused run performs.
	FusedCollective = t3core.Collective
)

// Arbitration policies.
const (
	// ArbRoundRobin is the baseline policy (the plain T3 configuration).
	ArbRoundRobin = t3core.ArbRoundRobin
	// ArbMCA is the §4.5 communication-aware policy (T3-MCA).
	ArbMCA = t3core.ArbMCA
	// ArbComputeFirst always prioritizes the compute stream (ablation).
	ArbComputeFirst = t3core.ArbComputeFirst
)

// Fused collectives.
const (
	// RingReduceScatterCollective is the paper's primary target.
	RingReduceScatterCollective = t3core.RingReduceScatter
	// RingAllGatherCollective is the §7.1 all-gather fusion.
	RingAllGatherCollective = t3core.RingAllGather
	// DirectReduceScatterCollective is the §7.1 fully-connected variant.
	DirectReduceScatterCollective = t3core.DirectReduceScatter
	// AllToAllCollective is the §7.1/§7.2 expert-parallel exchange.
	AllToAllCollective = t3core.AllToAll
)

// FusedEventKind classifies fused-run events. A run given a metrics sink
// (FusedOptions.Metrics) with the timeline enabled records each event as an
// instant on its "t3core" track, named by the kind's String; read the times
// back with Track("t3core").Instants(kind.String()).
type FusedEventKind = t3core.EventKind

// Fused event kinds.
const (
	EventStageComputed  = t3core.EventStageComputed
	EventRemoteWrite    = t3core.EventRemoteWrite
	EventDMATriggered   = t3core.EventDMATriggered
	EventOwnedTileDone  = t3core.EventOwnedTileDone
	EventGEMMDone       = t3core.EventGEMMDone
	EventCollectiveDone = t3core.EventCollectiveDone
)

// Unified observability (the metrics subsystem).
type (
	// MetricsSink is where models register counters, gauges, series and
	// timeline tracks; attach one via FusedOptions.Metrics or the
	// experiment Setup. Nil sinks cost nothing.
	MetricsSink = metrics.Sink
	// MetricsRegistry is the root MetricsSink: it owns every instrument and
	// exports metrics JSON (WriteMetrics) and Chrome trace-event / Perfetto
	// timelines (WriteTrace).
	MetricsRegistry = metrics.Registry
	// MetricsCounter is a monotonically increasing int64 instrument.
	MetricsCounter = metrics.Counter
	// MetricsGauge is a last/max-value int64 instrument.
	MetricsGauge = metrics.Gauge
	// MetricsTimeSeries is a fixed-width bucketed int64 series.
	MetricsTimeSeries = metrics.TimeSeries
	// MetricsTrack is one named timeline lane of spans and instants.
	MetricsTrack = metrics.Track
)

// NewMetricsRegistry returns an empty registry. Call EnableTimeline before
// running to record spans; export with WriteMetrics / WriteTrace.
func NewMetricsRegistry() *MetricsRegistry { return metrics.NewRegistry() }

// Simulation invariant checking (the check subsystem).
type (
	// Checker collects invariant violations from every simulation it is
	// attached to (via FusedOptions.Check, the collective Options, or the
	// experiment Setup). A nil *Checker is valid everywhere and costs
	// nothing on the simulation hot paths.
	Checker = check.Checker
	// CheckViolation is one recorded invariant violation: the simulated
	// time, the model path, the rule id, and a message.
	CheckViolation = check.Violation
)

// NewChecker returns a checker that records violations for post-run
// inspection via Violations and Err.
func NewChecker() *Checker { return check.New() }

// NewStrictChecker returns a checker that panics on the first violation,
// capturing the failing simulation's stack at the moment the invariant broke.
func NewStrictChecker() *Checker { return check.NewStrict() }

// MemoryAccessKind classifies DRAM requests (reads, plain stores, NMC
// op-and-store updates).
type MemoryAccessKind = memory.AccessKind

// Memory access kinds.
const (
	MemoryRead   = memory.Read
	MemoryWrite  = memory.Write
	MemoryUpdate = memory.Update
)

// NewTracker builds an empty tracker.
func NewTracker(cfg TrackerConfig) (*Tracker, error) { return t3core.NewTracker(cfg) }

// NewDMATable returns an empty DMA command table.
func NewDMATable() *DMATable { return t3core.NewDMATable() }

// RingReduceScatterMap builds the §4.4 address map for a fused ring
// reduce-scatter.
func RingReduceScatterMap(device, devices int) AddressMap {
	return t3core.RingReduceScatterMap(device, devices)
}

// RingAllGatherMap builds the §7.1 all-gather address map.
func RingAllGatherMap(device, devices int) AddressMap {
	return t3core.RingAllGatherMap(device, devices)
}

// DirectReduceScatterMap builds the §7.1 fully-connected address map.
func DirectReduceScatterMap(device, devices int) AddressMap {
	return t3core.DirectReduceScatterMap(device, devices)
}

// AllToAllMap builds the §7.1 all-to-all address map.
func AllToAllMap(device, devices int) AddressMap {
	return t3core.AllToAllMap(device, devices)
}

// RunFusedGEMMRS executes a fused GEMM→reduce-scatter on the timing model
// and returns its completion times and traffic. Arbitration ArbRoundRobin is
// the paper's T3 configuration; ArbMCA is T3-MCA.
func RunFusedGEMMRS(o FusedOptions) (FusedResult, error) { return t3core.RunFusedGEMMRS(o) }

// RunFusedGEMMAG executes a fused GEMM→ring-all-gather (§7.1): the
// producer's shard is distributed to every device with no reductions.
func RunFusedGEMMAG(o FusedOptions) (FusedResult, error) { return t3core.RunFusedGEMMAG(o) }

// RunFusedGEMMAllToAll executes a fused GEMM→all-to-all (§7.1/§7.2, expert
// parallelism): chunk j of the output is remote-written to device j.
func RunFusedGEMMAllToAll(o FusedOptions) (FusedResult, error) {
	return t3core.RunFusedGEMMAllToAll(o)
}

// MultiDeviceResult reports an explicit N-device fused run.
type MultiDeviceResult = t3core.MultiDeviceResult

// ClusterStats summarizes the cluster scheduler's windowing behaviour for
// one explicit multi-device run: coordinator rounds, per-engine window
// executions, and total simulated time advanced (AvgWindowWidth derives the
// mean advance per window). RunFusedGEMMRSMultiDevice reports it as
// MultiDeviceResult.Cluster; it is identical at every ParWorkers value.
type ClusterStats = sim.ClusterStats

// RunFusedGEMMRSMultiDevice executes the fused GEMM→reduce-scatter with
// every device simulated explicitly (no mirroring); it validates the
// §5.1.1 single-GPU methodology.
func RunFusedGEMMRSMultiDevice(o FusedOptions) (MultiDeviceResult, error) {
	return t3core.RunFusedGEMMRSMultiDevice(o)
}

// RunFunctionalFusedReduceScatter executes the complete T3 protocol on real
// data (staggered production, remote writes, NMC updates, tracker-triggered
// DMAs) and returns the per-device buffers; device d's owned chunk holds the
// full element-wise sum.
func RunFunctionalFusedReduceScatter(contributions [][]float32, tileElems int, seed int64) (*FunctionalFusedResult, error) {
	return t3core.RunFunctionalFusedReduceScatter(contributions, tileElems, seed)
}

// RunFunctionalFusedAllGather executes the §7.1 fused all-gather protocol
// on real data: every device ends with the concatenation of all shards.
func RunFunctionalFusedAllGather(shards [][]float32, tileElems int, seed int64) (*FunctionalFusedResult, error) {
	return t3core.RunFunctionalFusedAllGather(shards, tileElems, seed)
}

// Functional collectives on real data.
var (
	// RingReduceScatter performs an in-place ring reduce-scatter.
	RingReduceScatter = collective.RingReduceScatter
	// RingAllGather performs an in-place ring all-gather.
	RingAllGather = collective.RingAllGather
	// RingAllReduce performs reduce-scatter followed by all-gather.
	RingAllReduce = collective.RingAllReduce
	// DirectReduceScatter performs the fully-connected reduce-scatter.
	DirectReduceScatter = collective.DirectReduceScatter
	// AllToAll exchanges chunk j of every device to device j.
	AllToAll = collective.AllToAll
	// HalvingDoublingAllReduce is the recursive halving/doubling all-reduce.
	HalvingDoublingAllReduce = collective.HalvingDoublingAllReduce
	// ReferenceAllReduce returns the element-wise sum across devices.
	ReferenceAllReduce = collective.ReferenceAllReduce
)

// ChunkBounds splits an array of length n into parts contiguous chunks.
func ChunkBounds(n, parts int) [][2]int { return collective.ChunkBounds(n, parts) }

// OwnedChunk returns the chunk device d owns after a ring reduce-scatter.
func OwnedChunk(d, n int) int { return collective.OwnedChunk(d, n) }

// Transformer workloads (Table 2).
type (
	// Model is one Transformer configuration.
	Model = transformer.Model
	// SubLayerKind names an AR-feeding sub-layer (OP, FC2, FC1-bwd, IP-bwd).
	SubLayerKind = transformer.SubLayerKind
	// SubLayer is one tensor-sliced GEMM→all-reduce pair.
	SubLayer = transformer.SubLayer
	// IterationModel is the analytical per-iteration breakdown.
	IterationModel = transformer.IterationModel
	// ExecutionPhase selects training or prompt inference.
	ExecutionPhase = transformer.Phase
	// HWModel bundles the analytical model's hardware parameters.
	HWModel = transformer.HW
)

// Sub-layer kinds and phases.
const (
	OutProj         = transformer.OutProj
	FC2             = transformer.FC2
	FC1Bwd          = transformer.FC1Bwd
	InProjBwd       = transformer.InProjBwd
	Training        = transformer.Training
	PromptInference = transformer.PromptInference
)

// Models returns the Table 2 model zoo.
func Models() []Model { return append([]Model(nil), transformer.Models...) }

// FuturisticModels returns the 1T and 10T configurations.
func FuturisticModels() []Model { return append([]Model(nil), transformer.FuturisticModels...) }

// ModelByName finds a model by its Table 2 name.
func ModelByName(name string) (Model, error) { return transformer.ModelByName(name) }

// AllSubLayers lists the four AR-feeding sub-layers.
func AllSubLayers() []SubLayerKind {
	return append([]SubLayerKind(nil), transformer.AllSubLayers...)
}

// SubLayerGEMM returns the sliced GEMM→AR pair for a model sub-layer.
func SubLayerGEMM(m Model, kind SubLayerKind, tp int) (SubLayer, error) {
	return transformer.SubLayerGEMM(m, kind, tp)
}

// NewIterationModel builds the per-iteration analytical breakdown.
func NewIterationModel(m Model, tp int, phase ExecutionPhase, hw HWModel) (*IterationModel, error) {
	return transformer.NewIterationModel(m, tp, phase, hw)
}

// DefaultHW mirrors Table 1 for the analytical model.
func DefaultHW() HWModel { return transformer.DefaultHW() }

// Topology-general interconnect (beyond the implicit Table 1 ring).
type (
	// TopoSpec declares an interconnect graph — ring, 2D torus,
	// fully-connected switch, or two-level hierarchy. Its zero value means
	// the implicit RingTopo(Devices, Link); set FusedOptions.Topo or
	// ExperimentSetup.Topo to route over another graph.
	TopoSpec = interconnect.TopoSpec
	// TopoKind names a topology family.
	TopoKind = interconnect.TopoKind
	// Topology is a built graph: timed links on an engine (or a parallel
	// cluster) plus deterministic shortest-path routing and
	// store-and-forward Send.
	Topology = interconnect.Topology
	// CollectiveAlgorithm names a topology-general collective schedule.
	CollectiveAlgorithm = collective.Algorithm
	// CollectiveOp is the operation a schedule performs.
	CollectiveOp = collective.Op
)

// Topology families.
const (
	TopoRing         = interconnect.TopoRing
	TopoTorus        = interconnect.TopoTorus
	TopoSwitch       = interconnect.TopoSwitch
	TopoHierarchical = interconnect.TopoHierarchical
)

// Topology-general collective algorithms and operations.
const (
	// AlgoRing is the bandwidth-optimal N−1-round rotation.
	AlgoRing = collective.AlgoRing
	// AlgoTree is the binomial reduce-to-root + scatter tree.
	AlgoTree = collective.AlgoTree
	// AlgoHalvingDoubling is recursive halving/doubling (power-of-two only).
	AlgoHalvingDoubling = collective.AlgoHalvingDoubling
	// AlgoDirect sends every chunk straight to its owner in one round.
	AlgoDirect = collective.AlgoDirect

	ReduceScatterOp = collective.ReduceScatterOp
	AllGatherOp     = collective.AllGatherOp
	AllReduceOp     = collective.AllReduceOp
)

// RingTopo declares an n-device bidirectional ring.
func RingTopo(n int, link LinkConfig) TopoSpec { return interconnect.RingTopo(n, link) }

// TorusTopo declares a rows×cols 2D torus with wraparound in both
// dimensions.
func TorusTopo(rows, cols int, link LinkConfig) TopoSpec {
	return interconnect.TorusTopo(rows, cols, link)
}

// SwitchTopo declares an n-device fully-connected (switched) topology.
func SwitchTopo(n int, link LinkConfig) TopoSpec { return interconnect.SwitchTopo(n, link) }

// HierarchicalTopo declares a two-level hierarchy: nodes rings of perNode
// devices on intra links, node leaders ringed by inter links.
func HierarchicalTopo(nodes, perNode int, intra, inter LinkConfig) TopoSpec {
	return interconnect.HierarchicalTopo(nodes, perNode, intra, inter)
}

// SelectCollectiveAlgorithm picks the fastest candidate algorithm for an
// all-reduce of the given size on a topology — the Tessera-style
// size/topology policy, realized as an analytic argmin.
func SelectCollectiveAlgorithm(bytes Bytes, spec TopoSpec) (CollectiveAlgorithm, error) {
	return collective.SelectAlgorithm(bytes, spec)
}

// CandidateCollectiveAlgorithms lists the algorithms runnable on a topology
// (halving-doubling requires a power-of-two device count).
func CandidateCollectiveAlgorithms(spec TopoSpec) []CollectiveAlgorithm {
	return collective.CandidateAlgorithms(spec)
}

// AnalyticTopoTimeBounds brackets a graph collective's timed-DES completion
// between a work-conserving per-link lower bound and a store-and-forward
// upper bound; the bounds coincide on single-hop routes.
func AnalyticTopoTimeBounds(algo CollectiveAlgorithm, op CollectiveOp, spec TopoSpec,
	o AnalyticCollectiveOptions) (lo, hi Time, err error) {
	return collective.AnalyticTopoTimeBounds(algo, op, spec, o)
}

// AnalyticTopoAllReduceTime is the lower-bound all-reduce prediction the
// selection policy minimizes.
func AnalyticTopoAllReduceTime(algo CollectiveAlgorithm, spec TopoSpec,
	o AnalyticCollectiveOptions) (Time, error) {
	return collective.AnalyticTopoAllReduceTime(algo, spec, o)
}
