package experiments

import (
	"fmt"

	"t3sim/internal/memory"
	"t3sim/internal/t3core"
	"t3sim/internal/transformer"
	"t3sim/internal/units"
)

// This file holds the ablation studies DESIGN.md calls out: they probe the
// design choices the paper fixes (arbitration policy and thresholds §4.5,
// NMC cost assumptions §4.3/§7.4, DMA block granularity §4.2.2) and the
// §7.8 slower-link regime.

// ablationCase returns the default ablation workload: T-NLG FC-2 at TP 8, a
// large memory-pressured sub-layer where contention effects are visible.
func ablationCase() (SubCase, error) {
	m, err := transformer.ModelByName("T-NLG")
	if err != nil {
		return SubCase{}, err
	}
	return SubCase{Model: m, Kind: transformer.FC2, TP: 8}, nil
}

// fusedOptionsFor builds the fused-run options for a case on a setup.
func fusedOptionsFor(s Setup, c SubCase) (t3core.FusedOptions, transformer.SubLayer, error) {
	sl, err := transformer.SubLayerGEMM(c.Model, c.Kind, c.TP)
	if err != nil {
		return t3core.FusedOptions{}, transformer.SubLayer{}, err
	}
	return t3core.FusedOptions{
		GPU:        s.GPU,
		Memory:     s.Memory,
		Link:       s.Link,
		Tracker:    s.Tracker,
		Devices:    c.TP,
		Grid:       sl.Grid,
		Collective: t3core.RingReduceScatter,
		Check:      s.Check,
	}, sl, nil
}

// AblationArbRow is one arbitration policy's outcome.
type AblationArbRow struct {
	Policy string
	// Done is the fused completion; Speedup is over the sequential baseline.
	Done    units.Time
	Speedup float64
	// Threshold is the effective MCA occupancy limit (0 = not MCA).
	Threshold int
}

// AblationArbResult sweeps the §4.5 design space: compute-first,
// round-robin, the dynamic MCA, and every fixed threshold.
type AblationArbResult struct {
	Case SubCase
	Rows []AblationArbRow
}

// AblationArbitration runs the arbitration-policy sweep.
func AblationArbitration(ev *Evaluator) (*AblationArbResult, error) {
	c, err := ablationCase()
	if err != nil {
		return nil, err
	}
	base, err := ev.Evaluate(c)
	if err != nil {
		return nil, err
	}
	res := &AblationArbResult{Case: c}
	add := func(policy string, opts t3core.FusedOptions) error {
		run, err := memoFused(ev.Setup.Memo, opts)
		if err != nil {
			return err
		}
		done := run.Done + base.AG
		res.Rows = append(res.Rows, AblationArbRow{
			Policy:    policy,
			Done:      done,
			Speedup:   float64(base.Sequential) / float64(done),
			Threshold: run.MCAThreshold,
		})
		return nil
	}

	for _, pol := range []struct {
		name string
		arb  t3core.Arbitration
	}{
		{"compute-first", t3core.ArbComputeFirst},
		{"round-robin (T3)", t3core.ArbRoundRobin},
		{"MCA dynamic (T3-MCA)", t3core.ArbMCA},
	} {
		opts, _, err := fusedOptionsFor(ev.Setup, c)
		if err != nil {
			return nil, err
		}
		opts.Arbitration = pol.arb
		if err := add(pol.name, opts); err != nil {
			return nil, err
		}
	}
	for _, th := range []int{5, 10, 30, memory.MCANoLimit} {
		opts, _, err := fusedOptionsFor(ev.Setup, c)
		if err != nil {
			return nil, err
		}
		opts.Arbitration = t3core.ArbMCA
		opts.FixedMCAThreshold = th
		label := fmt.Sprintf("MCA fixed %d", th)
		if th < 0 {
			label = "MCA no-limit"
		}
		if err := add(label, opts); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// Render formats the sweep.
func (r *AblationArbResult) Render() string {
	t := &Table{
		Title:  fmt.Sprintf("Ablation: MC arbitration policy, %s", r.Case),
		Header: []string{"policy", "fused+AG", "speedup", "threshold"},
	}
	for _, row := range r.Rows {
		th := "-"
		if row.Threshold != 0 {
			th = fmt.Sprintf("%d", row.Threshold)
		}
		t.AddRow(row.Policy, row.Done.String(), fmt.Sprintf("%.3fx", row.Speedup), th)
	}
	t.AddFooter("paper §4.5/§6.1.3: dynamic MCA picks the threshold per kernel memory intensity;")
	t.AddFooter("fixed thresholds over- or under-throttle communication for some kernels")
	return t.String()
}

// AblationNMCRow is one NMC cost point.
type AblationNMCRow struct {
	UpdateFactor float64
	Done         units.Time
	Speedup      float64
}

// AblationNMCResult sweeps the near-memory op-and-store cost: 1.0x models
// free in-DRAM reduction, 2.0x the paper's CCDWL assumption, and larger
// factors approximate slower substrates such as the §7.4 system-wide
// atomics fallback.
type AblationNMCResult struct {
	Case SubCase
	Rows []AblationNMCRow
}

// AblationNMCCost runs the NMC cost sweep.
func AblationNMCCost(ev *Evaluator) (*AblationNMCResult, error) {
	c, err := ablationCase()
	if err != nil {
		return nil, err
	}
	base, err := ev.Evaluate(c)
	if err != nil {
		return nil, err
	}
	res := &AblationNMCResult{Case: c}
	for _, factor := range []float64{1.0, 2.0, 4.0, 8.0} {
		opts, _, err := fusedOptionsFor(ev.Setup, c)
		if err != nil {
			return nil, err
		}
		opts.Memory.UpdateFactor = factor
		opts.Arbitration = t3core.ArbMCA
		run, err := memoFused(ev.Setup.Memo, opts)
		if err != nil {
			return nil, err
		}
		done := run.Done + base.AG
		res.Rows = append(res.Rows, AblationNMCRow{
			UpdateFactor: factor,
			Done:         done,
			Speedup:      float64(base.Sequential) / float64(done),
		})
	}
	return res, nil
}

// Render formats the sweep.
func (r *AblationNMCResult) Render() string {
	t := &Table{
		Title:  fmt.Sprintf("Ablation: NMC op-and-store cost, %s", r.Case),
		Header: []string{"update cost (x write)", "fused+AG", "speedup"},
	}
	for _, row := range r.Rows {
		t.AddRow(fmt.Sprintf("%.1fx", row.UpdateFactor), row.Done.String(),
			fmt.Sprintf("%.3fx", row.Speedup))
	}
	t.AddFooter("paper §7.4: T3 tolerates slower reduction substrates (system-wide atomics)")
	t.AddFooter("without significant loss — speedups should degrade gracefully")
	return t.String()
}

// AblationDMARow is one DMA block granularity point.
type AblationDMARow struct {
	TilesPerBlock int
	Done          units.Time
	Speedup       float64
}

// AblationDMAResult sweeps the §4.2.2 DMA block granularity.
type AblationDMAResult struct {
	Case SubCase
	Rows []AblationDMARow
}

// AblationDMABlock runs the DMA granularity sweep.
func AblationDMABlock(ev *Evaluator) (*AblationDMAResult, error) {
	c, err := ablationCase()
	if err != nil {
		return nil, err
	}
	base, err := ev.Evaluate(c)
	if err != nil {
		return nil, err
	}
	res := &AblationDMAResult{Case: c}
	for _, k := range []int{1, 2, 4, 8, 16} {
		opts, _, err := fusedOptionsFor(ev.Setup, c)
		if err != nil {
			return nil, err
		}
		opts.Arbitration = t3core.ArbMCA
		opts.DMATilesPerBlock = k
		run, err := memoFused(ev.Setup.Memo, opts)
		if err != nil {
			return nil, err
		}
		done := run.Done + base.AG
		res.Rows = append(res.Rows, AblationDMARow{
			TilesPerBlock: k,
			Done:          done,
			Speedup:       float64(base.Sequential) / float64(done),
		})
	}
	return res, nil
}

// Render formats the sweep.
func (r *AblationDMAResult) Render() string {
	t := &Table{
		Title:  fmt.Sprintf("Ablation: DMA block granularity, %s", r.Case),
		Header: []string{"wf-tiles per DMA", "fused+AG", "speedup"},
	}
	for _, row := range r.Rows {
		t.AddRow(fmt.Sprintf("%d", row.TilesPerBlock), row.Done.String(),
			fmt.Sprintf("%.3fx", row.Speedup))
	}
	t.AddFooter("paper §4.2.2: DMA blocks >= tracker granularity; larger blocks batch the")
	t.AddFooter("communication into burstier, higher-utilization transfers")
	return t.String()
}

// AblationLinkRow is one link-bandwidth point.
type AblationLinkRow struct {
	LinkBandwidth units.Bandwidth
	GEMM          units.Time
	RS            units.Time
	FusedDone     units.Time
	Speedup       float64
	// ExposedComm is the communication left on the critical path.
	ExposedComm units.Time
}

// AblationLinkResult sweeps per-direction link bandwidth down into the
// §7.8 multi-node regime, where communication dominates and fine-grained
// overlap can only hide the GEMM's worth of it.
type AblationLinkResult struct {
	Case SubCase
	Rows []AblationLinkRow
}

// AblationLinkBandwidth runs the link sweep.
func AblationLinkBandwidth(ev *Evaluator) (*AblationLinkResult, error) {
	c, err := ablationCase()
	if err != nil {
		return nil, err
	}
	res := &AblationLinkResult{Case: c}
	for _, bw := range []units.Bandwidth{300 * units.GBps, 150 * units.GBps,
		75 * units.GBps, 37.5 * units.GBps, 18.75 * units.GBps} {
		s := ev.Setup
		s.Link.LinkBandwidth = bw
		// Each derived evaluator names its runs by case, as the shared
		// one does, under its own scope.
		sub, err := ev.derive(s, fmt.Sprintf("ablation-link/%gGBps", float64(bw)/float64(units.GBps)))
		if err != nil {
			return nil, err
		}
		r, err := sub.Evaluate(c)
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, AblationLinkRow{
			LinkBandwidth: bw,
			GEMM:          r.GEMM,
			RS:            r.RS,
			FusedDone:     r.T3MCA - r.AG,
			Speedup:       r.SpeedupT3MCA(),
			ExposedComm:   maxTime(0, (r.T3MCA-r.AG)-r.GEMM),
		})
	}
	return res, nil
}

// Render formats the sweep.
func (r *AblationLinkResult) Render() string {
	t := &Table{
		Title:  fmt.Sprintf("Ablation: link bandwidth (multi-node regime, §7.8), %s", r.Case),
		Header: []string{"per-dir link", "GEMM", "RS", "fused GEMM-RS", "exposed comm", "speedup"},
	}
	for _, row := range r.Rows {
		t.AddRow(row.LinkBandwidth.String(), row.GEMM.String(), row.RS.String(),
			row.FusedDone.String(), row.ExposedComm.String(),
			fmt.Sprintf("%.3fx", row.Speedup))
	}
	t.AddFooter("paper §7.8: once the GEMM is fully overlapped, remaining communication is")
	t.AddFooter("exposed — T3 still hides the GEMM's worth of it on slow links")
	return t.String()
}
