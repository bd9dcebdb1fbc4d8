package experiments

import (
	"fmt"

	"t3sim/internal/collective"
	"t3sim/internal/gemm"
	"t3sim/internal/gpu"
	"t3sim/internal/interconnect"
	"t3sim/internal/memory"
	"t3sim/internal/sim"
	"t3sim/internal/stats"
	"t3sim/internal/transformer"
	"t3sim/internal/units"
)

// LayerOpRow is one operator of the layer validation: the discrete-event
// simulation of a full forward Transformer layer versus the analytic
// operator model that Figures 4 and 19 are built on.
type LayerOpRow struct {
	Name      string
	Simulated units.Time
	Analytic  units.Time
	RelError  float64
}

// LayerValidationResult cross-validates the two modeling layers.
type LayerValidationResult struct {
	Model string
	TP    int
	Rows  []LayerOpRow
	// TotalSimulated/TotalAnalytic are the layer sums.
	TotalSimulated units.Time
	TotalAnalytic  units.Time
	TotalRelError  float64
}

// LayerValidation simulates one forward Transformer layer of T-NLG at TP=8
// operator by operator on the discrete-event simulator — every GEMM as a
// staged kernel, every elementwise pass as memory traffic, every all-reduce
// as the timed multi-GPU collective — and compares each operator against
// the analytic iteration model. Close agreement justifies using the
// analytic breakdown for the end-to-end figures, the same layered
// methodology as the paper's §5.1.2.
func LayerValidation(setup Setup) (*LayerValidationResult, error) {
	if err := setup.Validate(); err != nil {
		return nil, err
	}
	var tab *memoTable[LayerValidationResult]
	if setup.Memo != nil {
		tab = &setup.Memo.layer
	}
	return memoExperiment(tab, setup, func() (*LayerValidationResult, error) {
		return layerValidation(setup)
	})
}

func layerValidation(setup Setup) (*LayerValidationResult, error) {
	m, err := transformer.ModelByName("T-NLG")
	if err != nil {
		return nil, err
	}
	const tp = 8
	hw := setup.HW()
	it, err := transformer.NewIterationModel(m, tp, transformer.PromptInference, hw)
	if err != nil {
		return nil, err
	}

	res := &LayerValidationResult{Model: m.Name, TP: tp}
	sim := &layerSim{setup: setup}

	tokens := m.Tokens()
	e := units.Bytes(2)
	heads := m.Hidden / 64 / tp
	if heads < 1 {
		heads = 1
	}

	// The analytic model's per-operator references, mirroring
	// transformer.otherTime's structure.
	type op struct {
		name     string
		simulate func() (units.Time, error)
		analytic units.Time
	}
	analyticGEMM := func(s gemm.Shape) units.Time {
		g, err := gemm.NewGrid(s, gemm.DefaultTiling())
		if err != nil {
			return 0
		}
		eff := gemm.Efficiency(g)
		compute := units.FromSeconds(float64(s.FLOPs()) / (setup.GPU.PeakFlops() * eff))
		mem := setup.Memory.TotalBandwidth.TransferTime(s.InputBytes() + s.OutputBytes())
		if mem > compute {
			return mem
		}
		return compute
	}

	qkv := gemm.Shape{M: tokens, N: 3 * m.Hidden / tp, K: m.Hidden, ElemBytes: 2, TransB: true}
	scores := gemm.Shape{M: tokens, N: m.SeqLen, K: m.Hidden / tp, ElemBytes: 2}
	context := gemm.Shape{M: tokens, N: m.Hidden / tp, K: m.SeqLen, ElemBytes: 2}
	fc1 := gemm.Shape{M: tokens, N: m.FFMult * m.Hidden / tp, K: m.Hidden, ElemBytes: 2, TransB: true}

	opSL, err := transformer.SubLayerGEMM(m, transformer.OutProj, tp)
	if err != nil {
		return nil, err
	}
	fc2SL, err := transformer.SubLayerGEMM(m, transformer.FC2, tp)
	if err != nil {
		return nil, err
	}

	attnBytes := units.Bytes(int64(heads)*int64(tokens)*int64(m.SeqLen)) * e
	geluBytes := units.Bytes(int64(tokens)*int64(m.FFMult*m.Hidden/tp)) * e
	actBytes := units.Bytes(int64(tokens)*int64(m.Hidden)) * e

	ops := []op{
		{"QKV projection", sim.gemm(qkv), analyticGEMM(qkv)},
		{"attention scores", sim.gemm(scores), analyticGEMM(scores)},
		{"softmax+mask+dropout", sim.elementwise(6 * attnBytes), hw.MemBandwidth.TransferTime(6 * attnBytes)},
		{"attention context", sim.gemm(context), analyticGEMM(context)},
		{"output projection", sim.gemm(opSL.Grid.Shape), it.Sub[transformer.OutProj].GEMM},
		{"OP all-reduce", sim.allReduce(opSL.ARBytes, tp),
			it.Sub[transformer.OutProj].RS + it.Sub[transformer.OutProj].AG},
		{"residual+LN (x2)", sim.elementwise(8 * actBytes), hw.MemBandwidth.TransferTime(8 * actBytes)},
		{"FC-1", sim.gemm(fc1), analyticGEMM(fc1)},
		{"GeLU", sim.elementwise(2 * geluBytes), hw.MemBandwidth.TransferTime(2 * geluBytes)},
		{"FC-2", sim.gemm(fc2SL.Grid.Shape), it.Sub[transformer.FC2].GEMM},
		{"FC-2 all-reduce", sim.allReduce(fc2SL.ARBytes, tp),
			it.Sub[transformer.FC2].RS + it.Sub[transformer.FC2].AG},
	}
	for _, o := range ops {
		simT, err := o.simulate()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", o.name, err)
		}
		res.Rows = append(res.Rows, LayerOpRow{
			Name:      o.name,
			Simulated: simT,
			Analytic:  o.analytic,
			RelError:  stats.RelError(float64(simT), float64(o.analytic)),
		})
		res.TotalSimulated += simT
		res.TotalAnalytic += o.analytic
	}
	res.TotalRelError = stats.RelError(float64(res.TotalSimulated), float64(res.TotalAnalytic))
	return res, nil
}

// layerSim builds per-operator discrete-event runs.
type layerSim struct {
	setup Setup
}

// gemm returns a runner simulating one GEMM kernel in isolation.
func (l *layerSim) gemm(shape gemm.Shape) func() (units.Time, error) {
	return func() (units.Time, error) {
		g, err := gemm.NewGrid(shape, gemm.DefaultTiling())
		if err != nil {
			return 0, err
		}
		eng := sim.NewEngine()
		mc, err := memory.NewController(eng, l.setup.Memory, memory.ComputeFirst{})
		if err != nil {
			return 0, err
		}
		k := &gpu.GEMMKernel{Eng: eng, Mem: mc, GPU: l.setup.GPU, Grid: g}
		if err := k.Start(nil); err != nil {
			return 0, err
		}
		eng.Run()
		return k.Finished(), nil
	}
}

// elementwise returns a runner simulating a memory-bound pass.
func (l *layerSim) elementwise(bytes units.Bytes) func() (units.Time, error) {
	return func() (units.Time, error) {
		eng := sim.NewEngine()
		mc, err := memory.NewController(eng, l.setup.Memory, memory.ComputeFirst{})
		if err != nil {
			return 0, err
		}
		var done units.Time
		mc.Transfer(memory.Read, memory.StreamCompute, bytes, memory.Tag{}, memory.CompletionFunc(func(memory.Tag) { done = eng.Now() }))
		eng.Run()
		return done, nil
	}
}

// allReduce returns a runner simulating the timed multi-GPU RS+AG.
func (l *layerSim) allReduce(bytes units.Bytes, tp int) func() (units.Time, error) {
	return func() (units.Time, error) {
		run := func(op collective.Op) (units.Time, error) {
			eng := sim.NewEngine()
			topo, err := interconnect.RingTopo(tp, l.setup.Link).Build(eng)
			if err != nil {
				return 0, err
			}
			devs := make([]*collective.Device, tp)
			for i := range devs {
				mc, err := memory.NewController(eng, l.setup.Memory, memory.ComputeFirst{})
				if err != nil {
					return 0, err
				}
				devs[i] = &collective.Device{ID: i, Mem: mc}
			}
			var done units.Time
			err = collective.StartTopoCollective(eng, collective.AlgoRing, op, collective.TopoOptions{
				Topo:              topo,
				Devices:           devs,
				TotalBytes:        bytes,
				BlockBytes:        l.setup.BlockBytes,
				CUs:               l.setup.CollectiveCUs,
				PerCUMemBandwidth: l.setup.PerCUMemBandwidth,
				Stream:            memory.StreamComm,
			}, func() { done = eng.Now() })
			if err != nil {
				return 0, err
			}
			eng.Run()
			if done == 0 {
				return 0, fmt.Errorf("experiments: collective never completed")
			}
			return done, nil
		}
		rs, err := run(collective.ReduceScatterOp)
		if err != nil {
			return 0, err
		}
		ag, err := run(collective.AllGatherOp)
		if err != nil {
			return 0, err
		}
		return rs + ag, nil
	}
}

// Render formats the per-operator comparison.
func (r *LayerValidationResult) Render() string {
	t := &Table{
		Title: fmt.Sprintf("Layer validation: DES-simulated forward layer vs analytic model (%s, TP=%d)",
			r.Model, r.TP),
		Header: []string{"operator", "simulated", "analytic", "error"},
	}
	for _, row := range r.Rows {
		t.AddRow(row.Name, row.Simulated.String(), row.Analytic.String(),
			fmt.Sprintf("%.1f%%", 100*row.RelError))
	}
	t.AddFooter("layer total: simulated %v vs analytic %v (%.1f%%)",
		r.TotalSimulated, r.TotalAnalytic, 100*r.TotalRelError)
	t.AddFooter("the analytic model underpins Figures 4 and 19 (paper methodology §5.1.2)")
	return t.String()
}
