package memory

import (
	"testing"

	"t3sim/internal/sim"
	"t3sim/internal/units"
)

func bankedConfig() Config {
	cfg := DefaultConfig()
	cfg.Channels = 1
	cfg.TotalBandwidth = 32 * units.GBps
	banks := DefaultBankConfig()
	cfg.Banks = &banks
	return cfg
}

func TestBankConfigValidate(t *testing.T) {
	if err := DefaultBankConfig().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []func(*BankConfig){
		func(c *BankConfig) { c.Groups = 0 },
		func(c *BankConfig) { c.BanksPerGroup = 0 },
		func(c *BankConfig) { c.Clock = 0 },
		func(c *BankConfig) { c.BurstBytes = 0 },
		func(c *BankConfig) { c.BurstCycles = 0 },
		func(c *BankConfig) { c.CCDLCycles = 0 },
		func(c *BankConfig) { c.CCDWLCycles = 1 }, // below CCDL
		func(c *BankConfig) { c.RowBytes = 0 },
		func(c *BankConfig) { c.RowMissCycles = -1 },
	}
	for i, mutate := range bad {
		cfg := DefaultBankConfig()
		mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
	// An invalid bank config fails the controller config too.
	c := DefaultConfig()
	banks := DefaultBankConfig()
	banks.Groups = 0
	c.Banks = &banks
	if err := c.Validate(); err == nil {
		t.Error("invalid bank config accepted")
	}
}

func TestBankPeakBandwidth(t *testing.T) {
	// 64 B per 2 cycles at 1 GHz = 32 GB/s.
	got := DefaultBankConfig().PeakBandwidth()
	if got < 31.9*units.GBps || got > 32.1*units.GBps {
		t.Errorf("PeakBandwidth = %v, want ~32 GB/s", got)
	}
}

func TestBankedStreamingNearPeak(t *testing.T) {
	// Interleaved streaming reads should sustain close to the data-bus
	// peak: row reopenings hide behind the other banks.
	eng := sim.NewEngine()
	c, err := NewController(eng, bankedConfig(), ComputeFirst{})
	if err != nil {
		t.Fatal(err)
	}
	total := 4 * units.MiB
	var done units.Time
	c.Transfer(Read, StreamCompute, total, Tag{}, CompletionFunc(func(Tag) { done = eng.Now() }))
	eng.Run()
	ideal := DefaultBankConfig().PeakBandwidth().TransferTime(total)
	ratio := float64(done) / float64(ideal)
	if ratio < 1.0 || ratio > 1.25 {
		t.Errorf("streaming reads at %.2fx the bus-ideal time, want 1.0..1.25", ratio)
	}
}

func TestBankedUpdatesCheaperThanFlat2x(t *testing.T) {
	// The headline fidelity point: with bursts interleaved across the four
	// bank groups, CCDWL overlaps other groups' bursts and NMC updates cost
	// much less than the flat model's uniform 2x — the paper's claim that
	// NMC ops issue without significant DRAM-timing increase.
	run := func(kind AccessKind) units.Time {
		eng := sim.NewEngine()
		c, err := NewController(eng, bankedConfig(), ComputeFirst{})
		if err != nil {
			t.Fatal(err)
		}
		var done units.Time
		c.Transfer(kind, StreamCompute, 4*units.MiB, Tag{}, CompletionFunc(func(Tag) { done = eng.Now() }))
		eng.Run()
		return done
	}
	write := run(Write)
	update := run(Update)
	ratio := float64(update) / float64(write)
	if ratio < 1.0 || ratio > 1.3 {
		t.Errorf("banked update/write = %.2fx, want 1.0..1.3 (interleaving hides CCDWL)", ratio)
	}
}

func TestBankedRowMissesCostSomething(t *testing.T) {
	// Shrinking the row buffer to one burst forces a reopen per access and
	// must slow the stream.
	run := func(rowBytes units.Bytes) units.Time {
		cfg := bankedConfig()
		banks := DefaultBankConfig()
		banks.RowBytes = rowBytes
		banks.BanksPerGroup = 1 // few banks: reopens cannot hide
		cfg.Banks = &banks
		eng := sim.NewEngine()
		c, err := NewController(eng, cfg, ComputeFirst{})
		if err != nil {
			t.Fatal(err)
		}
		var done units.Time
		c.Transfer(Read, StreamCompute, 256*units.KiB, Tag{}, CompletionFunc(func(Tag) { done = eng.Now() }))
		eng.Run()
		return done
	}
	bigRows := run(DefaultBankConfig().RowBytes)
	tinyRows := run(64)
	if tinyRows <= bigRows {
		t.Errorf("per-burst row reopens (%v) not slower than streaming rows (%v)", tinyRows, bigRows)
	}
}

func TestBankedFlatAgreeOnStreaming(t *testing.T) {
	// The flat model was calibrated to the same peak; plain streaming loads
	// land within ~25% between the two models.
	flat := DefaultConfig()
	flat.Channels = 1
	flat.TotalBandwidth = 32 * units.GBps
	engF := sim.NewEngine()
	cF, err := NewController(engF, flat, ComputeFirst{})
	if err != nil {
		t.Fatal(err)
	}
	var doneF units.Time
	cF.Transfer(Read, StreamCompute, 4*units.MiB, Tag{}, CompletionFunc(func(Tag) { doneF = engF.Now() }))
	engF.Run()

	engB := sim.NewEngine()
	cB, err := NewController(engB, bankedConfig(), ComputeFirst{})
	if err != nil {
		t.Fatal(err)
	}
	var doneB units.Time
	cB.Transfer(Read, StreamCompute, 4*units.MiB, Tag{}, CompletionFunc(func(Tag) { doneB = engB.Now() }))
	engB.Run()

	ratio := float64(doneB) / float64(doneF)
	if ratio < 0.8 || ratio > 1.25 {
		t.Errorf("banked/flat streaming ratio = %.2f, want 0.8..1.25", ratio)
	}
}
