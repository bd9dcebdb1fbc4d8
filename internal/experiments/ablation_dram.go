package experiments

import (
	"fmt"

	"t3sim/internal/memory"
	"t3sim/internal/t3core"
	"t3sim/internal/units"
)

// AblationDRAMRow is one DRAM-model fidelity point.
type AblationDRAMRow struct {
	Model string
	// GEMMDone/Done are the fused run's completions under this model.
	GEMMDone units.Time
	Done     units.Time
	Speedup  float64
}

// AblationDRAMResult compares the calibrated flat service model against the
// bank-group-level timing model (Table 1's CCDL/CCDWL/bank-group detail).
// The flat model charges every NMC update 2× write service; the detailed
// model shows group interleaving hiding most of CCDWL — so the flat model is
// the conservative choice for T3's headline numbers.
type AblationDRAMResult struct {
	Case SubCase
	Rows []AblationDRAMRow
}

// AblationDRAMModel runs the fused T3-MCA case under both DRAM models.
func AblationDRAMModel(ev *Evaluator) (*AblationDRAMResult, error) {
	c, err := ablationCase()
	if err != nil {
		return nil, err
	}
	base, err := ev.Evaluate(c)
	if err != nil {
		return nil, err
	}
	res := &AblationDRAMResult{Case: c}
	configs := []struct {
		name  string
		banks *memory.BankConfig
	}{
		{"flat (bytes/bandwidth, updates 2x)", nil},
		{"bank-group (CCDL/CCDWL, row buffers)", func() *memory.BankConfig {
			b := memory.DefaultBankConfig()
			return &b
		}()},
	}
	for _, cfg := range configs {
		opts, _, err := fusedOptionsFor(ev.Setup, c)
		if err != nil {
			return nil, err
		}
		opts.Arbitration = t3core.ArbMCA
		opts.Memory.Banks = cfg.banks
		run, err := memoFused(ev.Setup.Memo, opts)
		if err != nil {
			return nil, err
		}
		done := run.Done + base.AG
		res.Rows = append(res.Rows, AblationDRAMRow{
			Model:    cfg.name,
			GEMMDone: run.GEMMDone,
			Done:     done,
			Speedup:  float64(base.Sequential) / float64(done),
		})
	}
	return res, nil
}

// Render formats the comparison.
func (r *AblationDRAMResult) Render() string {
	t := &Table{
		Title:  fmt.Sprintf("Ablation: DRAM timing model fidelity, %s", r.Case),
		Header: []string{"model", "GEMM done", "fused+AG", "speedup"},
	}
	for _, row := range r.Rows {
		t.AddRow(row.Model, row.GEMMDone.String(), row.Done.String(),
			fmt.Sprintf("%.3fx", row.Speedup))
	}
	t.AddFooter("the bank-group model interleaves CCDWL across groups, so NMC updates cost")
	t.AddFooter("near write speed; the flat model's uniform 2x is the conservative bound")
	return t.String()
}

// AblationPipelineRow is one GEMM-schedule point.
type AblationPipelineRow struct {
	Schedule string
	GEMM     units.Time
	Done     units.Time
	Speedup  float64
}

// AblationPipelineResult compares the producer's stage schedules: the
// conservative read-then-compute pipeline (whose traffic shape matches
// Figure 17a) against operand-prefetching double buffering, in isolation
// and inside the fused T3-MCA run.
type AblationPipelineResult struct {
	Case SubCase
	Rows []AblationPipelineRow
}

// AblationGEMMPipeline runs the schedule comparison.
func AblationGEMMPipeline(ev *Evaluator) (*AblationPipelineResult, error) {
	c, err := ablationCase()
	if err != nil {
		return nil, err
	}
	base, err := ev.Evaluate(c)
	if err != nil {
		return nil, err
	}
	res := &AblationPipelineResult{Case: c}
	for _, db := range []bool{false, true} {
		opts, _, err := fusedOptionsFor(ev.Setup, c)
		if err != nil {
			return nil, err
		}
		opts.Arbitration = t3core.ArbMCA
		opts.DoubleBufferedGEMM = db
		run, err := memoFused(ev.Setup.Memo, opts)
		if err != nil {
			return nil, err
		}
		name := "read-then-compute"
		if db {
			name = "double-buffered"
		}
		done := run.Done + base.AG
		res.Rows = append(res.Rows, AblationPipelineRow{
			Schedule: name,
			GEMM:     run.GEMMDone,
			Done:     done,
			Speedup:  float64(base.Sequential) / float64(done),
		})
	}
	return res, nil
}

// Render formats the comparison.
func (r *AblationPipelineResult) Render() string {
	t := &Table{
		Title:  fmt.Sprintf("Ablation: producer stage schedule, %s", r.Case),
		Header: []string{"schedule", "GEMM done", "fused+AG", "speedup"},
	}
	for _, row := range r.Rows {
		t.AddRow(row.Schedule, row.GEMM.String(), row.Done.String(),
			fmt.Sprintf("%.3fx", row.Speedup))
	}
	t.AddFooter("double buffering hides operand reads behind MACs, shortening the producer;")
	t.AddFooter("T3's overlap benefit persists under either schedule")
	return t.String()
}
