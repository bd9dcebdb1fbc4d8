package t3sim

import (
	"t3sim/internal/collective"
	"t3sim/internal/experiments"
	"t3sim/internal/sim"
	"t3sim/internal/store"
)

// Experiment drivers: one per paper table and figure. Each returns typed
// rows plus a Render method producing the same series the paper plots.
type (
	// ExperimentSetup is the machine configuration experiments run on.
	ExperimentSetup = experiments.Setup
	// Evaluator runs and memoizes per-sub-layer scheme comparisons. It is
	// safe for concurrent use: racing Evaluate calls for one case are
	// deduplicated, and EvaluateAll fans a case list out over a worker pool
	// (bounded by the Parallelism field; 0 means GOMAXPROCS) with results in
	// input order. Every simulation owns a private single-goroutine engine,
	// so results are bit-identical at any parallelism.
	Evaluator = experiments.Evaluator
	// SubCase names one evaluated sub-layer (model, kind, TP).
	SubCase = experiments.SubCase
	// SublayerResult is the full scheme comparison for one case.
	SublayerResult = experiments.SublayerResult
	// DRAMBreakdown itemizes per-device DRAM traffic (Figure 18).
	DRAMBreakdown = experiments.DRAMBreakdown

	// Fig4Result is the iteration-breakdown reproduction.
	Fig4Result = experiments.Fig4Result
	// Fig6Result is the CU-sharing study.
	Fig6Result = experiments.Fig6Result
	// Fig14Result is the reduce-scatter simulation validation.
	Fig14Result = experiments.Fig14Result
	// Fig15Result is the sub-layer runtime distribution.
	Fig15Result = experiments.Fig15Result
	// Fig16Result is the sub-layer speedup comparison.
	Fig16Result = experiments.Fig16Result
	// Fig17Result is the DRAM traffic timeline pair.
	Fig17Result = experiments.Fig17Result
	// Fig18Result is the DRAM access comparison.
	Fig18Result = experiments.Fig18Result
	// Fig19Result is the end-to-end model speedups.
	Fig19Result = experiments.Fig19Result
	// Fig20Result is the future-hardware study.
	Fig20Result = experiments.Fig20Result
)

// DefaultExperimentSetup mirrors Table 1 (with the enlarged tracker noted in
// DESIGN.md).
func DefaultExperimentSetup() ExperimentSetup { return experiments.DefaultSetup() }

// NewEvaluator builds a memoizing, concurrency-safe sub-layer evaluator for
// the setup. Evaluate one case at a time, or fan a whole case list out with
// EvaluateAll; set Parallelism = 1 for a fully serial evaluator.
func NewEvaluator(s ExperimentSetup) (*Evaluator, error) { return experiments.NewEvaluator(s) }

// SmallModelCases returns the Figure 15/16/18 case list.
func SmallModelCases() []SubCase { return experiments.SmallModelCases() }

// LargeModelCases returns the §6.4 case list.
func LargeModelCases() []SubCase { return experiments.LargeModelCases() }

// Fig4 reproduces Figure 4 (iteration time breakdown).
func Fig4(setup ExperimentSetup) (*Fig4Result, error) { return experiments.Fig4(setup) }

// Fig6 reproduces Figure 6 (CU sharing between GEMM and overlapped AR).
func Fig6(ev *Evaluator) (*Fig6Result, error) { return experiments.Fig6(ev) }

// Fig14 reproduces Figures 13/14 (multi-GPU reduce-scatter validation).
func Fig14(setup ExperimentSetup) (*Fig14Result, error) { return experiments.Fig14(setup) }

// Fig15 reproduces Figure 15 (sub-layer runtime distribution).
func Fig15(ev *Evaluator) (*Fig15Result, error) { return experiments.Fig15(ev) }

// Fig16 reproduces Figure 16 (sub-layer speedups).
func Fig16(ev *Evaluator) (*Fig16Result, error) { return experiments.Fig16(ev) }

// Fig16Large reproduces the §6.4 large-model speedups.
func Fig16Large(ev *Evaluator) (*Fig16Result, error) { return experiments.Fig16Large(ev) }

// Fig17 reproduces Figure 17 (DRAM traffic timelines).
func Fig17(setup ExperimentSetup) (*Fig17Result, error) { return experiments.Fig17(setup) }

// Fig18 reproduces Figure 18 (DRAM access breakdown).
func Fig18(ev *Evaluator) (*Fig18Result, error) { return experiments.Fig18(ev) }

// Fig19 reproduces Figure 19 (end-to-end speedups).
func Fig19(ev *Evaluator) (*Fig19Result, error) { return experiments.Fig19(ev) }

// Fig19Large reproduces the §6.4 end-to-end speedups.
func Fig19Large(ev *Evaluator) (*Fig19Result, error) { return experiments.Fig19Large(ev) }

// Fig20 reproduces Figure 20 (2× compute future hardware).
func Fig20(ev *Evaluator) (*Fig20Result, error) { return experiments.Fig20(ev) }

// GenerationResult is the §7.3 token-generation study.
type GenerationResult = experiments.GenerationResult

// Generation evaluates the auto-regressive decode phase: batched GEMVs with
// small, latency-bound all-reduces (§7.3).
func Generation(ev *Evaluator) (*GenerationResult, error) { return experiments.Generation(ev) }

// MirrorResult validates the §5.1.1 single-GPU mirror methodology against
// explicit multi-device simulation.
type MirrorResult = experiments.MirrorResult

// MirrorValidation runs the mirror-vs-explicit comparison.
func MirrorValidation(setup ExperimentSetup) (*MirrorResult, error) {
	return experiments.MirrorValidation(setup)
}

// LayerValidationResult cross-validates the DES operator simulations
// against the analytic iteration model underpinning Figures 4/19.
type LayerValidationResult = experiments.LayerValidationResult

// LayerValidation simulates a full forward Transformer layer operator by
// operator and compares each against the analytic model.
func LayerValidation(setup ExperimentSetup) (*LayerValidationResult, error) {
	return experiments.LayerValidation(setup)
}

// CoarseOverlapResult is the §3.2.2/§7.2 coarse-grained contention study.
type CoarseOverlapResult = experiments.CoarseOverlapResult

// CoarseOverlap runs an independent GEMM concurrently with a gradient
// reduce-scatter on shared memory systems, across arbitration policies and
// NMC settings, on both the Table 1 machine and a bandwidth-constrained one.
func CoarseOverlap(setup ExperimentSetup) (*CoarseOverlapResult, error) {
	return experiments.CoarseOverlap(setup)
}

// TopoSweepResult is the topology sweep (ROADMAP item 1): collective
// algorithm auto-selection across message sizes, the timed graph DES against
// its analytic envelope, and the fused GEMM→reduce-scatter overlap routed
// over each graph.
type TopoSweepResult = experiments.TopoSweepResult

// TopoSweep runs the topology sweep; a non-zero setup.Topo restricts it to
// that single graph.
func TopoSweep(setup ExperimentSetup) (*TopoSweepResult, error) {
	return experiments.TopoSweep(setup)
}

// TopoSpecFor builds the named topology family (ring|torus|switch|hier) over
// n devices from the base link — the parser behind the CLIs' -topo flag.
func TopoSpecFor(kind string, n int, link LinkConfig) (TopoSpec, error) {
	return experiments.TopoSpecFor(kind, n, link)
}

// DefaultTopoSpecs is the topology sweep's default ladder at the Table 1 TP
// degree: an 8-ring, a 2x4 torus, an 8-way switch, and a 2x4 hierarchy.
func DefaultTopoSpecs(link LinkConfig) []TopoSpec {
	return experiments.DefaultTopoSpecs(link)
}

// Ablation studies (design-choice sweeps beyond the paper's figures).
type (
	// AblationArbResult sweeps the §4.5 arbitration design space.
	AblationArbResult = experiments.AblationArbResult
	// AblationNMCResult sweeps the NMC op-and-store cost.
	AblationNMCResult = experiments.AblationNMCResult
	// AblationDMAResult sweeps the §4.2.2 DMA block granularity.
	AblationDMAResult = experiments.AblationDMAResult
	// AblationLinkResult sweeps link bandwidth into the §7.8 regime.
	AblationLinkResult = experiments.AblationLinkResult
	// AblationDRAMResult compares the flat and bank-group DRAM models.
	AblationDRAMResult = experiments.AblationDRAMResult
	// AblationPipelineResult compares producer stage schedules.
	AblationPipelineResult = experiments.AblationPipelineResult
)

// AblationArbitration runs the arbitration-policy sweep.
func AblationArbitration(ev *Evaluator) (*AblationArbResult, error) {
	return experiments.AblationArbitration(ev)
}

// AblationNMCCost runs the NMC cost sweep.
func AblationNMCCost(ev *Evaluator) (*AblationNMCResult, error) {
	return experiments.AblationNMCCost(ev)
}

// AblationDMABlock runs the DMA granularity sweep.
func AblationDMABlock(ev *Evaluator) (*AblationDMAResult, error) {
	return experiments.AblationDMABlock(ev)
}

// AblationLinkBandwidth runs the link-bandwidth sweep.
func AblationLinkBandwidth(ev *Evaluator) (*AblationLinkResult, error) {
	return experiments.AblationLinkBandwidth(ev)
}

// AblationDRAMModel compares the flat service model against the bank-group
// timing model (Table 1's CCDL/CCDWL detail).
func AblationDRAMModel(ev *Evaluator) (*AblationDRAMResult, error) {
	return experiments.AblationDRAMModel(ev)
}

// AblationGEMMPipeline compares the producer's read-then-compute schedule
// against double buffering, in the fused T3-MCA run.
func AblationGEMMPipeline(ev *Evaluator) (*AblationPipelineResult, error) {
	return experiments.AblationGEMMPipeline(ev)
}

// The experiment catalogue: the canonical list of every runnable experiment,
// shared by cmd/t3sim and the golden regression harness so the CLI and the
// snapshot tests can never drift apart.
type (
	// ExperimentRenderable is any experiment result that can print itself.
	ExperimentRenderable = experiments.Renderable
	// ExperimentTextResult wraps plain-text results (the tables).
	ExperimentTextResult = experiments.TextResult
	// ExperimentRunner shares one setup and one memoizing evaluator across
	// catalogue entries in a process.
	ExperimentRunner = experiments.Runner
	// ExperimentCatalogueEntry is one runnable experiment: its -exp id, a
	// one-line description, and the driver.
	ExperimentCatalogueEntry = experiments.CatalogueEntry
)

// ExperimentCatalogue returns every experiment in canonical print order.
func ExperimentCatalogue() []ExperimentCatalogueEntry { return experiments.Catalogue() }

// ExperimentByName finds one experiment by its -exp id.
func ExperimentByName(name string) (ExperimentCatalogueEntry, bool) {
	return experiments.CatalogueEntryByName(name)
}

// NewExperimentRunner returns a runner over the setup; jobs bounds the shared
// evaluator's parallelism (1 = fully serial, 0 = GOMAXPROCS).
func NewExperimentRunner(setup ExperimentSetup, jobs int) *ExperimentRunner {
	return experiments.NewRunner(setup, jobs)
}

// Table1 renders the simulation setup.
func Table1(setup ExperimentSetup) string { return experiments.Table1(setup) }

// Table2 renders the studied models.
func Table2() string { return experiments.Table2() }

// Table3 renders the qualitative prior-work comparison.
func Table3() string { return experiments.Table3() }

// The persistent content-addressed result store (ROADMAP item 5): the
// second tier under the in-memory memo cache. Open a store on a directory,
// attach it to a MemoCache, and every experiment warm-starts from results
// any earlier process of the same build persisted there. Corrupted, stale
// or concurrently-written entries degrade to misses, never errors.
type (
	// ExperimentMemoCache is the process-wide content-addressed result
	// cache shared across a Runner's evaluators and drivers.
	ExperimentMemoCache = experiments.MemoCache
	// ResultStore is the on-disk tier (internal/store).
	ResultStore = store.Store
	// ResultStoreMode selects read-write or read-only access.
	ResultStoreMode = store.Mode
	// ResultStoreStats counts a store's traffic (hits, misses, corrupt
	// entries, puts, bytes).
	ResultStoreStats = store.Stats
	// ResultStoreDiskStats summarizes a cache directory's contents.
	ResultStoreDiskStats = store.DiskStats
)

const (
	// StoreReadWrite serves hits and persists new results.
	StoreReadWrite = store.ReadWrite
	// StoreReadOnly serves hits but never writes.
	StoreReadOnly = store.ReadOnly
)

// NewExperimentMemoCache returns an empty in-memory result cache; attach a
// store with AttachStore to make it persistent.
func NewExperimentMemoCache() *ExperimentMemoCache { return experiments.NewMemoCache() }

// ResultStoreVersion is this build's code-identity version string: VCS
// revision (or a deterministic fallback) plus a structural fingerprint of
// every persisted result type. Entries under any other version are
// invisible.
func ResultStoreVersion() string { return experiments.StoreVersion() }

// OpenResultStore opens dir as a persistent result store under this build's
// version.
func OpenResultStore(dir string, mode ResultStoreMode) (*ResultStore, error) {
	return experiments.OpenStore(dir, mode)
}

// EnginesBuilt returns how many simulation engines this process has built
// (cluster engines included). Its difference across a warm replay is zero
// when every result came from the cache.
func EnginesBuilt() int64 { return sim.EnginesBuilt() }

// ParseResultStoreMode parses the CLIs' -cache-mode value (rw|ro|off); off
// reports true in the second result.
func ParseResultStoreMode(s string) (ResultStoreMode, bool, error) {
	return experiments.ParseStoreMode(s)
}

// Analytic ring-collective cost models (the Figure 14 reference).
type AnalyticCollectiveOptions = collective.AnalyticOptions

// AnalyticRingReduceScatterTime predicts a ring reduce-scatter's duration.
func AnalyticRingReduceScatterTime(o AnalyticCollectiveOptions) (Time, error) {
	return collective.AnalyticRingReduceScatterTime(o)
}

// AnalyticRingAllGatherTime predicts a ring all-gather's duration.
func AnalyticRingAllGatherTime(o AnalyticCollectiveOptions) (Time, error) {
	return collective.AnalyticRingAllGatherTime(o)
}

// AnalyticRingAllReduceTime predicts a ring all-reduce's duration.
func AnalyticRingAllReduceTime(o AnalyticCollectiveOptions) (Time, error) {
	return collective.AnalyticRingAllReduceTime(o)
}
