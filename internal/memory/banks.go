package memory

import (
	"fmt"

	"t3sim/internal/units"
)

// BankConfig enables the bank-group-level DRAM timing model the paper's
// Table 1 specifies (HBM2 at 1 GHz, 4 bank groups, CCDWL = 2×CCDL for NMC
// op-and-store, remaining timings after Chatterjee et al.). When attached
// to a Config, each request's service time is derived from its column
// commands — burst transfers spaced by the bank-group column-to-column
// constraints — instead of the flat bytes/bandwidth model.
//
// The detailed model captures an effect the flat model over-approximates:
// back-to-back NMC updates pay CCDWL only within one bank group, so a
// stream interleaved across all four groups sustains nearly full write
// bandwidth (the paper's §5.1.1 premise that NMC ops issue "without a
// significant increase in DRAM timings"), while the flat model charges
// every update 2× service.
type BankConfig struct {
	// Groups is the bank-group count (Table 1: 4).
	Groups int
	// BanksPerGroup is the banks within one group (HBM2: 4).
	BanksPerGroup int
	// Clock is the DRAM command clock (Table 1: 1 GHz).
	Clock units.Frequency
	// BurstBytes is one column command's data (HBM2 pseudo-channel: 64 B).
	BurstBytes units.Bytes
	// BurstCycles is the data-bus occupancy of one burst (BL4 DDR: 2).
	BurstCycles int
	// CCDLCycles is the same-group column-to-column spacing (4).
	CCDLCycles int
	// CCDSCycles is the cross-group spacing (2).
	CCDSCycles int
	// CCDWLCycles is the same-group spacing after an NMC op-and-store
	// (2×CCDL per the paper).
	CCDWLCycles int
	// RowBytes is the row-buffer size; streaming past it reopens a row.
	RowBytes units.Bytes
	// RowMissCycles is the activate+precharge penalty on a row reopen
	// (hidden when other banks keep the bus busy).
	RowMissCycles int
}

// DefaultBankConfig mirrors Table 1's HBM2 row.
func DefaultBankConfig() BankConfig {
	return BankConfig{
		Groups:        4,
		BanksPerGroup: 4,
		Clock:         1 * units.GHz,
		BurstBytes:    64,
		BurstCycles:   2,
		CCDLCycles:    4,
		CCDSCycles:    2,
		CCDWLCycles:   8,
		RowBytes:      1024,
		RowMissCycles: 14,
	}
}

// Validate reports whether the configuration is usable.
func (c BankConfig) Validate() error {
	switch {
	case c.Groups <= 0 || c.BanksPerGroup <= 0:
		return fmt.Errorf("memory: bank geometry %dx%d", c.Groups, c.BanksPerGroup)
	case c.Clock <= 0:
		return fmt.Errorf("memory: bank clock %v", c.Clock)
	case c.BurstBytes <= 0 || c.BurstCycles <= 0:
		return fmt.Errorf("memory: burst %v/%d", c.BurstBytes, c.BurstCycles)
	case c.CCDLCycles <= 0 || c.CCDSCycles <= 0 || c.CCDWLCycles < c.CCDLCycles:
		return fmt.Errorf("memory: CCD timings %d/%d/%d", c.CCDLCycles, c.CCDSCycles, c.CCDWLCycles)
	case c.RowBytes <= 0 || c.RowMissCycles < 0:
		return fmt.Errorf("memory: row model %v/%d", c.RowBytes, c.RowMissCycles)
	}
	return nil
}

// PeakBandwidth returns the channel's data-bus limit under this timing.
func (c BankConfig) PeakBandwidth() units.Bandwidth {
	bytesPerSecond := float64(c.BurstBytes) * float64(c.Clock) / float64(c.BurstCycles)
	return units.Bandwidth(bytesPerSecond)
}

// bankTimer tracks one channel's bank-group state across requests. The
// channel still serializes request service; the timer computes how long a
// request's column commands occupy the channel given CCD spacing, row
// reopenings, and the lingering CCDWL after update bursts.
type bankTimer struct {
	cfg    BankConfig
	period units.Time

	// groupNextCol is when each group may accept its next column command.
	groupNextCol []units.Time
	// bankReady is when each bank (group-major) finishes its current row
	// activity.
	bankReady []units.Time
	// bankRowLeft is how many bytes remain in each bank's open row.
	bankRowLeft []units.Bytes
	// cursor round-robins column commands across banks, modeling the
	// controller's address interleaving.
	cursor int
}

func newBankTimer(cfg BankConfig) *bankTimer {
	n := cfg.Groups * cfg.BanksPerGroup
	return &bankTimer{
		cfg:          cfg,
		period:       cfg.Clock.Period(),
		groupNextCol: make([]units.Time, cfg.Groups),
		bankReady:    make([]units.Time, n),
		bankRowLeft:  make([]units.Bytes, n),
	}
}

// cycles converts a cycle count to time.
func (b *bankTimer) cycles(n int) units.Time { return units.Time(n) * b.period }

// service plays out a request's column commands starting no earlier than
// `start` and returns when its last burst finishes.
func (b *bankTimer) service(start units.Time, kind AccessKind, bytes units.Bytes) units.Time {
	cfg := b.cfg
	bursts := int(units.CeilDiv(int64(bytes), int64(cfg.BurstBytes)))
	busFree := start
	end := start
	for i := 0; i < bursts; i++ {
		// Group-major interleaving: consecutive column commands rotate
		// across bank groups so CCDL/CCDWL spacing overlaps other groups'
		// bursts — the reason bank groups exist.
		group := b.cursor % cfg.Groups
		bankInGroup := (b.cursor / cfg.Groups) % cfg.BanksPerGroup
		bank := group*cfg.BanksPerGroup + bankInGroup
		b.cursor = (b.cursor + 1) % len(b.bankReady)

		issue := maxT(busFree, b.groupNextCol[group], b.bankReady[bank])
		// Row management: reopen when the open row is exhausted.
		if b.bankRowLeft[bank] < cfg.BurstBytes {
			// The activate can start as soon as the bank is free; it only
			// delays the burst if the bank was touched too recently.
			rowReady := b.bankReady[bank] + b.cycles(cfg.RowMissCycles)
			issue = maxT(issue, rowReady)
			b.bankRowLeft[bank] = cfg.RowBytes
		}
		b.bankRowLeft[bank] -= cfg.BurstBytes

		done := issue + b.cycles(cfg.BurstCycles)
		busFree = done
		b.bankReady[bank] = done

		// Column-to-column spacing for this group: CCDWL after an NMC
		// op-and-store, CCDL otherwise; other groups only respect CCDS,
		// modeled by the bus/burst pacing plus their own group clocks.
		gap := cfg.CCDLCycles
		if kind == Update {
			gap = cfg.CCDWLCycles
		}
		if gap < cfg.CCDSCycles {
			gap = cfg.CCDSCycles
		}
		b.groupNextCol[group] = issue + b.cycles(gap)
		if done > end {
			end = done
		}
	}
	return end
}

func maxT(ts ...units.Time) units.Time {
	m := ts[0]
	for _, t := range ts[1:] {
		if t > m {
			m = t
		}
	}
	return m
}
