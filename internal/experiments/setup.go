// Package experiments contains one driver per table and figure of the
// paper's evaluation. Each driver returns typed rows and can render the same
// series the paper plots; cmd/t3sim and the root bench suite are thin
// wrappers around these drivers.
package experiments

import (
	"fmt"

	"t3sim/internal/check"
	"t3sim/internal/gpu"
	"t3sim/internal/interconnect"
	"t3sim/internal/memory"
	"t3sim/internal/metrics"
	"t3sim/internal/t3core"
	"t3sim/internal/transformer"
	"t3sim/internal/units"
)

// Setup bundles the machine configuration every experiment runs on
// (Table 1 plus the derived throughput constants).
type Setup struct {
	GPU     gpu.Config
	Memory  memory.Config
	Link    interconnect.Config
	Tracker t3core.TrackerConfig
	// Topo, when non-zero, restricts the topology sweep (the topo-sweep
	// catalogue entry) to this single interconnect graph instead of its
	// default ring/torus/switch/hier ladder, and is threaded into the
	// sweep's fused multi-device runs. The paper experiments model the
	// Table 1 ring and ignore it. CLI flag -topo.
	Topo interconnect.TopoSpec
	// BlockBytes is the timed collectives' software pipelining granularity.
	BlockBytes units.Bytes
	// CollectiveCUs is the CU allocation of standalone collective kernels.
	CollectiveCUs int
	// PerCUMemBandwidth bounds a kernel's CU-side memory throughput.
	PerCUMemBandwidth units.Bandwidth
	// Metrics, if non-nil, receives every experiment simulation's
	// instruments, each run under its own scope (e.g. "fused-t3/<case>",
	// "fig17/baseline"), so a single registry collects a whole experiment
	// sweep deterministically at any -j. Nil costs nothing.
	Metrics metrics.Sink
	// Check, if non-nil, is threaded into every simulation an experiment
	// runs (fused runners, timed collectives, isolated kernels), collecting
	// invariant violations across the whole sweep; a single checker is safe
	// to share at any -j. Nil costs nothing.
	Check *check.Checker
	// MultiDeviceWorkers is the goroutine budget of explicit multi-device
	// simulations. The fused multi-device runs (mirror, multi64, multi256,
	// topo-sweep's fused rows) always simulate each device on its own
	// cluster engine, and 0 or 1 drives that cluster serially on the
	// calling goroutine. The timed baseline collectives always run on one
	// shared engine and ignore it. Output is byte-identical at every value — the knob
	// trades wall-clock time only — so it is excluded from the memo key and
	// safe to flip per invocation (-par on the CLIs).
	MultiDeviceWorkers int
	// ServeQPS, when non-empty, overrides the serving sweep's offered-load
	// ladder (requests/s); empty uses the built-in default. CLI flag -qps.
	ServeQPS []float64
	// ServeSLO, when positive, overrides the serving sweep's p99 TTFT
	// service-level objective; zero uses the built-in default. CLI flag -slo.
	ServeSLO units.Time
	// Memo, if non-nil, is the process-wide content-addressed result cache:
	// sub-layer evaluations and single-GPU fused runs are keyed by a
	// canonical hash of every timing-relevant option (see memo.go), so
	// identical simulations across catalogue entries — and across derived
	// setups that copy this Setup, like the ablation link sweep — run once.
	// NewRunner installs one automatically; leave nil to force every run to
	// simulate. Cached results are shared: treat them as immutable.
	Memo *MemoCache
}

// DefaultSetup mirrors Table 1. The tracker keeps the paper's 256 sets but
// allows 64 ways instead of 8: with communication-bound sub-layers (e.g.
// Mega-GPT-2's OP), tiles whose local updates finished wait whole phases for
// their incoming DMA updates, and the live-entry high-water mark exceeds the
// paper's 2048-slot budget — a sizing finding this reproduction surfaces
// (recorded per run in SublayerResult.TrackerMaxLive and EXPERIMENTS.md).
func DefaultSetup() Setup {
	tracker := t3core.DefaultTrackerConfig()
	tracker.Ways = 64
	return Setup{
		GPU:               gpu.DefaultConfig(),
		Memory:            memory.DefaultConfig(),
		Link:              interconnect.DefaultConfig(),
		Tracker:           tracker,
		BlockBytes:        32 * units.KiB,
		CollectiveCUs:     80,
		PerCUMemBandwidth: 16 * units.GBps,
	}
}

// Validate reports whether the setup is usable.
func (s Setup) Validate() error {
	if err := s.GPU.Validate(); err != nil {
		return err
	}
	if err := s.Memory.Validate(); err != nil {
		return err
	}
	if err := s.Link.Validate(); err != nil {
		return err
	}
	if err := s.Tracker.Validate(); err != nil {
		return err
	}
	if !s.Topo.IsZero() {
		if err := s.Topo.Validate(); err != nil {
			return err
		}
	}
	if s.BlockBytes <= 0 {
		return fmt.Errorf("experiments: BlockBytes = %v", s.BlockBytes)
	}
	if s.CollectiveCUs <= 0 || s.CollectiveCUs > s.GPU.CUs {
		return fmt.Errorf("experiments: CollectiveCUs = %d", s.CollectiveCUs)
	}
	if s.PerCUMemBandwidth <= 0 {
		return fmt.Errorf("experiments: PerCUMemBandwidth = %v", s.PerCUMemBandwidth)
	}
	return nil
}

// HW converts the setup into the transformer package's hardware bundle.
func (s Setup) HW() transformer.HW {
	return transformer.HW{
		GPU:               s.GPU,
		Link:              s.Link,
		MemBandwidth:      s.Memory.TotalBandwidth,
		CollectiveCUs:     s.CollectiveCUs,
		PerCUMemBandwidth: s.PerCUMemBandwidth,
	}
}

// SubCase names one evaluated sub-layer: (model, sub-layer kind, TP degree).
type SubCase struct {
	Model transformer.Model
	Kind  transformer.SubLayerKind
	TP    int
}

// String renders "Model/kind/TP-n".
func (c SubCase) String() string {
	return fmt.Sprintf("%s/%v/TP-%d", c.Model.Name, c.Kind, c.TP)
}

// SmallModelCases returns the Figure 15/16/18 case list: all four AR
// sub-layers of Mega-GPT-2 and T-NLG at TP 8 and 16.
func SmallModelCases() []SubCase {
	var cases []SubCase
	for _, name := range []string{"Mega-GPT-2", "T-NLG"} {
		m, err := transformer.ModelByName(name)
		if err != nil {
			panic(err)
		}
		for _, tp := range m.TPDegrees {
			for _, kind := range transformer.AllSubLayers {
				cases = append(cases, SubCase{Model: m, Kind: kind, TP: tp})
			}
		}
	}
	return cases
}

// LargeModelCases returns the §6.4 case list: GPT-3, PALM and MT-NLG at
// TP 32, all four AR sub-layers.
func LargeModelCases() []SubCase {
	var cases []SubCase
	for _, name := range []string{"GPT-3", "PALM", "MT-NLG"} {
		m, err := transformer.ModelByName(name)
		if err != nil {
			panic(err)
		}
		for _, kind := range transformer.AllSubLayers {
			cases = append(cases, SubCase{Model: m, Kind: kind, TP: 32})
		}
	}
	return cases
}
