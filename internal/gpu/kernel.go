package gpu

import (
	"fmt"

	"t3sim/internal/gemm"
	"t3sim/internal/memory"
	"t3sim/internal/metrics"
	"t3sim/internal/sim"
	"t3sim/internal/units"
)

// WriteStageFunc is a GEMM kernel's output sink: it must move the stage's
// output bytes somewhere (local stores, NMC updates, remote writes over the
// ring, ...) and call onDone when the stage's output is fully accepted. T3's
// fused datapath installs its own sink; the default writes plain local
// stores on the compute stream.
type WriteStageFunc func(stage, wgs int, bytes units.Bytes, onDone sim.Handler)

// GEMMKernel executes one tiled GEMM on the simulator as a sequence of
// stages (waves of workgroups): per stage a read phase fetches the operand
// panels DRAM must supply, a compute phase runs at the launch's MAC
// efficiency, and a bursty write phase emits the stage's output tiles. Stage
// s+1's reads begin as soon as stage s's compute finishes, overlapping
// stage s's writes — the Figure 17(a) traffic shape.
type GEMMKernel struct {
	Eng  *sim.Engine
	Mem  *memory.Controller
	GPU  Config
	Grid gemm.Grid
	// CUs is the compute-unit allocation for this kernel; 0 means all.
	CUs int
	// OutputBypassesLLC marks uncached-output runs (T3/NMC, §4.3): writes
	// stop polluting the LLC, improving input caching.
	OutputBypassesLLC bool
	// Monitor runs the memory controller's MCA intensity window during
	// stage 0, the kernel's isolated execution (§4.5).
	Monitor bool
	// WriteStage overrides the output sink (nil = local plain stores).
	WriteStage WriteStageFunc
	// OnStageComputed, if set, is called when each stage's compute ends,
	// before its writes are issued.
	OnStageComputed func(stage, wgs int)
	// DoubleBuffered prefetches the next stage's operands while the current
	// stage computes (software pipelining): stage s+1's reads issue as soon
	// as stage s's reads complete, so a stage costs max(reads, compute)
	// instead of reads+compute. Real BLAS kernels double-buffer; the default
	// (off) is the conservative read-then-compute pipeline whose traffic
	// shape matches Figure 17(a).
	DoubleBuffered bool
	// Metrics, if non-nil, receives a "gpu" timeline track with one span per
	// stage read and compute phase plus operand/launch counters. Nil costs
	// nothing.
	Metrics metrics.Sink

	stages     []int
	stageReads []units.Bytes
	started    bool
	computeEnd units.Time
	finished   units.Time
	doneFence  *sim.Fence

	mtrack     *metrics.Track
	mReadBytes *metrics.Counter
	mWGs       *metrics.Counter
	mStages    *metrics.Gauge
}

// Validate reports whether the kernel is runnable.
func (k *GEMMKernel) Validate() error {
	if k.Eng == nil || k.Mem == nil {
		return fmt.Errorf("gpu: kernel missing engine or memory controller")
	}
	if err := k.GPU.Validate(); err != nil {
		return err
	}
	if err := k.Grid.Shape.Validate(); err != nil {
		return err
	}
	if err := k.Grid.Tiling.Validate(); err != nil {
		return err
	}
	if k.CUs < 0 || k.CUs > k.GPU.CUs {
		return fmt.Errorf("gpu: CUs = %d outside 0..%d", k.CUs, k.GPU.CUs)
	}
	return nil
}

// cus returns the effective CU allocation.
func (k *GEMMKernel) cus() int {
	if k.CUs == 0 {
		return k.GPU.CUs
	}
	return k.CUs
}

// Stages returns the per-stage WG counts (available after Start).
func (k *GEMMKernel) Stages() []int { return k.stages }

// StageReads returns the per-stage DRAM read bytes (available after Start).
func (k *GEMMKernel) StageReads() []units.Bytes { return k.stageReads }

// ComputeEnd returns when the last stage's compute finished (valid after the
// run completes).
func (k *GEMMKernel) ComputeEnd() units.Time { return k.computeEnd }

// Finished returns the kernel completion time (valid after the run
// completes).
func (k *GEMMKernel) Finished() units.Time { return k.finished }

// StageOutputBytes returns the output bytes stage s is responsible for.
// Stages share the exact output size proportionally to their WG counts, so
// the per-run total always equals Grid.Shape.OutputBytes().
func (k *GEMMKernel) StageOutputBytes(s int) units.Bytes {
	return proportionalShare(k.Grid.Shape.OutputBytes(), k.stages, s)
}

// Start schedules the kernel; onDone runs when every stage's output has been
// accepted by the output sink.
func (k *GEMMKernel) Start(onDone sim.Handler) error {
	if err := k.Validate(); err != nil {
		return err
	}
	if k.started {
		return fmt.Errorf("gpu: kernel already started")
	}
	k.started = true
	k.stages = k.Grid.Stages(k.GPU.StageWGs(k.cus()))
	rm := ReadModel{Grid: k.Grid, LLC: k.GPU.LLCBytes, OutputBypassesLLC: k.OutputBypassesLLC}
	k.stageReads = rm.StageReads(k.stages)
	if m := k.Metrics; m != nil {
		k.mtrack = m.Track("gpu")
		k.mReadBytes = m.Counter("gpu.operand_read_bytes")
		k.mWGs = m.Counter("gpu.wgs_launched")
		k.mStages = m.Gauge("gpu.stages")
		k.mStages.Set(int64(len(k.stages)))
	}

	k.doneFence = sim.NewFence(len(k.stages), func() {
		k.finished = k.Eng.Now()
		if onDone != nil {
			onDone()
		}
	})
	if k.DoubleBuffered {
		k.runPipelined()
	} else {
		k.runStage(0)
	}
	return nil
}

// runPipelined executes the double-buffered schedule. Stage s's compute
// waits on a two-input fence — its own operand reads and the previous
// stage's compute (the CUs free up) — and each stage's completed reads
// immediately prefetch the next stage's operands.
func (k *GEMMKernel) runPipelined() {
	n := len(k.stages)
	eff := gemm.Efficiency(k.Grid)
	// computeStart[s] fires when stage s may begin its MACs: 1 input for
	// stage 0 (just its reads), 2 for the rest (+ previous compute).
	computeStart := make([]*sim.Fence, n)
	for s := n - 1; s >= 0; s-- {
		s := s
		inputs := 2
		if s == 0 {
			inputs = 1
		}
		computeStart[s] = sim.NewFence(inputs, func() {
			compute := k.GPU.ComputeTime(k.Grid.WGFLOPs()*int64(k.stages[s]), k.cus(), eff)
			start := k.Eng.Now()
			k.Eng.After(compute, func() {
				k.computeEnd = k.Eng.Now()
				wgs := k.stages[s]
				k.noteStage(s, wgs, start)
				if k.OnStageComputed != nil {
					k.OnStageComputed(s, wgs)
				}
				if s == 0 && k.Monitor {
					k.Mem.EndMonitor()
				}
				k.writeStage(s, wgs)
				if s+1 < n {
					computeStart[s+1].Done() // the CUs are free
				}
			})
		})
	}
	// Read chain: stage s+1's prefetch issues when stage s's reads land.
	var issue func(s int)
	issue = func(s int) {
		k.issueReads(s, func() {
			computeStart[s].Done()
			if s+1 < n {
				issue(s + 1)
			}
		})
	}
	if k.Monitor {
		k.Mem.BeginMonitor()
	}
	issue(0)
}

func (k *GEMMKernel) runStage(s int) {
	wgs := k.stages[s]
	if s == 0 && k.Monitor {
		k.Mem.BeginMonitor()
	}
	k.issueReads(s, func() {
		eff := gemm.Efficiency(k.Grid)
		flops := k.Grid.WGFLOPs() * int64(wgs)
		compute := k.GPU.ComputeTime(flops, k.cus(), eff)
		start := k.Eng.Now()
		k.Eng.After(compute, func() {
			k.computeEnd = k.Eng.Now()
			k.noteStage(s, wgs, start)
			if k.OnStageComputed != nil {
				k.OnStageComputed(s, wgs)
			}
			if s == 0 && k.Monitor {
				k.Mem.EndMonitor()
			}
			k.writeStage(s, wgs)
			if s+1 < len(k.stages) {
				k.runStage(s + 1)
			}
		})
	})
}

// noteStage records one stage's compute span and WG-wave counters (no-op
// without a metrics sink).
func (k *GEMMKernel) noteStage(s, wgs int, start units.Time) {
	if k.mtrack != nil {
		k.mtrack.Span(fmt.Sprintf("stage%d.compute", s), start, k.Eng.Now())
	}
	k.mWGs.Add(int64(wgs))
}

// issueReads fetches the stage's DRAM-visible operand bytes on the compute
// stream; LLC hits cost nothing.
func (k *GEMMKernel) issueReads(s int, onDone sim.Handler) {
	bytes := k.stageReads[s]
	if bytes <= 0 {
		onDone()
		return
	}
	k.mReadBytes.Add(int64(bytes))
	if k.mtrack != nil {
		start := k.Eng.Now()
		name := fmt.Sprintf("stage%d.read", s)
		inner := onDone
		onDone = func() {
			k.mtrack.Span(name, start, k.Eng.Now())
			inner()
		}
	}
	// A kernel confined to few CUs also sustains less read throughput; model
	// this as issuing the stage's reads no faster than the CU-side rate.
	cuRate := units.Bandwidth(float64(k.GPU.PerCUMemBandwidth) * float64(k.cus()))
	floor := cuRate.TransferTime(bytes)
	fence := sim.NewFence(2, onDone)
	k.Eng.After(floor, fence.Done)
	k.Mem.Transfer(memory.Read, memory.StreamCompute, bytes, memory.Tag{}, memory.CompletionFunc(func(memory.Tag) { fence.Done() }))
}

func (k *GEMMKernel) writeStage(s, wgs int) {
	bytes := k.StageOutputBytes(s)
	if k.WriteStage != nil {
		k.WriteStage(s, wgs, bytes, k.doneFence.Done)
		return
	}
	done := k.doneFence
	k.Mem.Transfer(memory.Write, memory.StreamCompute, bytes, memory.Tag{}, memory.CompletionFunc(func(memory.Tag) { done.Done() }))
}

// proportionalShare splits total across weighted parts with the remainder
// folded into the final part, so shares always sum to total.
func proportionalShare(total units.Bytes, weights []int, i int) units.Bytes {
	sum := 0
	for _, w := range weights {
		sum += w
	}
	if sum == 0 {
		return 0
	}
	if i < len(weights)-1 {
		return units.Bytes(int64(total) * int64(weights[i]) / int64(sum))
	}
	var prior units.Bytes
	for j := 0; j < len(weights)-1; j++ {
		prior += units.Bytes(int64(total) * int64(weights[j]) / int64(sum))
	}
	return total - prior
}
