package experiments

import (
	"fmt"

	"t3sim/internal/transformer"
)

// Fig20Row compares T3-MCA's benefit on today's GPU vs the GPU-2X-CU
// configuration (double the CUs, same memory and network, §7.5).
type Fig20Row struct {
	Case SubCase
	// Speedup1x / Speedup2x are T3-MCA speedups over sequential on each
	// hardware generation.
	Speedup1x float64
	Speedup2x float64
}

// Fig20Result is the Figure 20 reproduction.
type Fig20Result struct {
	Rows []Fig20Row
}

// Fig20 evaluates the future-hardware study on the OP and FC-2 sub-layers of
// the five Table 2 models (at their largest TP degree). It shares ev1's
// cached evaluations for the 1x hardware and builds the 2x-CU twin itself.
func Fig20(ev1 *Evaluator) (*Fig20Result, error) {
	setup2x := ev1.Setup
	setup2x.GPU.CUs = 2 * ev1.Setup.GPU.CUs
	// The twin names its runs by case, as ev1 does, under its own scope.
	ev2, err := ev1.derive(setup2x, "fig20-2x")
	if err != nil {
		return nil, err
	}

	var cases []SubCase
	for _, name := range []string{"Mega-GPT-2", "T-NLG", "GPT-3", "PALM", "MT-NLG"} {
		m, err := transformer.ModelByName(name)
		if err != nil {
			return nil, err
		}
		tp := m.TPDegrees[len(m.TPDegrees)-1]
		for _, kind := range []transformer.SubLayerKind{transformer.OutProj, transformer.FC2} {
			cases = append(cases, SubCase{Model: m, Kind: kind, TP: tp})
		}
	}
	rows1, err := ev1.EvaluateAll(cases)
	if err != nil {
		return nil, err
	}
	rows2, err := ev2.EvaluateAll(cases)
	if err != nil {
		return nil, err
	}

	res := &Fig20Result{}
	for i, c := range cases {
		res.Rows = append(res.Rows, Fig20Row{
			Case:      c,
			Speedup1x: rows1[i].SpeedupT3MCA(),
			Speedup2x: rows2[i].SpeedupT3MCA(),
		})
	}
	return res, nil
}

// Render formats the comparison.
func (r *Fig20Result) Render() string {
	t := &Table{
		Title:  "Figure 20: T3-MCA on future hardware with 2x compute (GPU-2X-CU)",
		Header: []string{"sub-layer", "T3-MCA @1x CUs", "T3-MCA @2x CUs"},
	}
	for _, row := range r.Rows {
		t.AddRow(row.Case.String(),
			fmt.Sprintf("%.2fx", row.Speedup1x),
			fmt.Sprintf("%.2fx", row.Speedup2x))
	}
	t.AddFooter("paper: FC-2 (compute-dominated) benefits more with 2x CUs;")
	t.AddFooter("OP (balanced) benefits less as faster compute exposes communication")
	return t.String()
}
