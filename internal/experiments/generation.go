package experiments

import (
	"fmt"

	"t3sim/internal/collective"
	"t3sim/internal/t3core"
	"t3sim/internal/transformer"
	"t3sim/internal/units"
)

// GenerationRow is one sub-layer of the §7.3 study: the auto-regressive
// decode phase's GEMV-shaped producer and its small, latency-bound
// all-reduce.
type GenerationRow struct {
	Model string
	TP    int
	Kind  transformer.SubLayerKind
	// GEMV is the weight-streaming producer time; RS/AG the collective.
	GEMV units.Time
	RS   units.Time
	AG   units.Time
	// Fused is the T3-MCA fused GEMV→RS completion (plus AG).
	Fused   units.Time
	Speedup float64
}

// GenerationResult is the §7.3 reproduction.
type GenerationResult struct {
	Rows []GenerationRow
	// EndToEnd estimates the per-token decode speedup per (model, TP).
	EndToEnd []Fig19Row
}

// Generation evaluates the token-generation phase: per-token batched GEMVs
// with tensor parallelism providing aggregate memory bandwidth, and T3
// overlapping the resulting small all-reduces (§7.3).
func Generation(ev *Evaluator) (*GenerationResult, error) {
	var tab *memoTable[GenerationResult]
	if ev.Setup.Memo != nil {
		tab = &ev.Setup.Memo.gen
	}
	return memoExperiment(tab, ev.Setup, func() (*GenerationResult, error) {
		return generation(ev)
	})
}

func generation(ev *Evaluator) (*GenerationResult, error) {
	hw := ev.Setup.HW()
	res := &GenerationResult{}
	for _, name := range []string{"Mega-GPT-2", "T-NLG"} {
		m, err := transformer.ModelByName(name)
		if err != nil {
			return nil, err
		}
		if err := res.addModel(ev, hw, m); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// addModel evaluates every TP degree of one model: higher TP slices the
// weights further, so per-token GEMV time drops with the aggregate memory
// bandwidth TP provides — the §7.3 motivation for decode-phase TP.
func (res *GenerationResult) addModel(ev *Evaluator, hw transformer.HW, m transformer.Model) error {
	s := ev.Setup
	for _, tp := range m.TPDegrees {
		tokens := transformer.PhaseTokens(transformer.TokenGeneration, m)
		ratios := map[transformer.SubLayerKind]float64{}
		for _, kind := range transformer.ActiveSubLayers(transformer.TokenGeneration) {
			sl, err := transformer.SubLayerGEMMTokens(m, kind, tp, tokens)
			if err != nil {
				return err
			}
			gemv, _, err := ev.isolatedGEMM(sl, false, nil)
			if err != nil {
				return err
			}
			colOpts := collective.AnalyticOptions{
				Devices:           tp,
				TotalBytes:        sl.ARBytes,
				Link:              s.Link,
				MemBandwidth:      s.Memory.TotalBandwidth,
				CUs:               s.CollectiveCUs,
				PerCUMemBandwidth: s.PerCUMemBandwidth,
			}
			rs, err := collective.AnalyticRingReduceScatterTime(colOpts)
			if err != nil {
				return err
			}
			ag, err := collective.AnalyticRingAllGatherTime(colOpts)
			if err != nil {
				return err
			}
			fusedRun, err := memoFusedRS(s.Memo, t3core.FusedOptions{
				GPU:         s.GPU,
				Memory:      s.Memory,
				Link:        s.Link,
				Tracker:     s.Tracker,
				Devices:     tp,
				Grid:        sl.Grid,
				Collective:  t3core.RingReduceScatter,
				Arbitration: t3core.ArbMCA,
				Check:       s.Check,
			})
			if err != nil {
				return err
			}
			seq := gemv + rs + ag
			fused := fusedRun.Done + ag
			res.Rows = append(res.Rows, GenerationRow{
				Model: m.Name, TP: tp, Kind: kind,
				GEMV: gemv, RS: rs, AG: ag,
				Fused:   fused,
				Speedup: float64(seq) / float64(fused),
			})
			ratios[kind] = float64(fusedRun.Done) / float64(gemv+rs)
		}
		// End-to-end decode-step estimate via the iteration model.
		it, err := transformer.NewIterationModel(m, tp, transformer.TokenGeneration, hw)
		if err != nil {
			return err
		}
		fused := map[transformer.SubLayerKind]units.Time{}
		for kind, sub := range it.Sub {
			fused[kind] = units.Time(float64(sub.GEMM+sub.RS) * ratios[kind])
		}
		res.EndToEnd = append(res.EndToEnd, Fig19Row{
			Model: m.Name, TP: tp, Phase: transformer.TokenGeneration,
			T3MCA: it.Speedup(fused),
			T3:    it.Speedup(fused),
		})
	}
	return nil
}

// Render formats the study.
func (r *GenerationResult) Render() string {
	t := &Table{
		Title:  "Generation phase (§7.3): per-token GEMVs with small all-reduces",
		Header: []string{"sub-layer", "GEMV", "RS", "AG", "fused+AG", "speedup"},
	}
	for _, row := range r.Rows {
		t.AddRow(fmt.Sprintf("%s/%v/TP-%d", row.Model, row.Kind, row.TP),
			row.GEMV.String(), row.RS.String(), row.AG.String(),
			row.Fused.String(), fmt.Sprintf("%.3fx", row.Speedup))
	}
	for _, e := range r.EndToEnd {
		t.AddFooter("%s TP-%d decode-step speedup: %.3fx", e.Model, e.TP, e.T3MCA)
	}
	t.AddFooter("paper §7.3: decode-phase all-reduces are small and latency-bound but can")
	t.AddFooter("still be overlapped with the weight-streaming GEMV executions")
	return t.String()
}
