// Package memory models the GPU's local HBM stack at the granularity T3's
// mechanisms operate on. The model is a set of independent channels, each
// with a two-stream memory-controller queue (a compute stream for producer
// kernels and a communication stream for collective/DMA traffic, §4.5 of the
// paper), a finite DRAM command queue whose occupancy the arbitration policy
// observes, and a service stage whose rate gives the stack its aggregate
// bandwidth (Table 1: 1 TB/s HBM2).
//
// Near-memory compute (§4.3) is modeled as an "update" access kind: an
// op-and-store serviced like a write but at the doubled column-command
// spacing (CCDWL = 2×CCDL) the paper takes from memory-vendor PIM proposals.
package memory

import (
	"fmt"
	"math"

	"t3sim/internal/check"
	"t3sim/internal/metrics"
	"t3sim/internal/units"
)

// AccessKind classifies a DRAM request.
type AccessKind int

// Access kinds.
const (
	Read   AccessKind = iota // data read
	Write                    // plain store
	Update                   // NMC op-and-store (atomic reduce at the bank)
)

// String implements fmt.Stringer.
func (k AccessKind) String() string {
	switch k {
	case Read:
		return "read"
	case Write:
		return "write"
	case Update:
		return "update"
	default:
		return fmt.Sprintf("AccessKind(%d)", int(k))
	}
}

// Stream identifies which memory-controller stream a request arrives on.
// The paper's MCA policy arbitrates between exactly these two.
type Stream int

// Streams.
const (
	StreamCompute Stream = iota // producer (GEMM) kernel accesses
	StreamComm                  // collective/DMA accesses
	numStreams
)

// String implements fmt.Stringer.
func (s Stream) String() string {
	switch s {
	case StreamCompute:
		return "compute"
	case StreamComm:
		return "comm"
	default:
		return fmt.Sprintf("Stream(%d)", int(s))
	}
}

// Tag carries the metadata the paper adds to memory accesses so the Tracker
// can attribute them (§4.2.1): the producing workgroup and wavefront, and an
// opaque region identifier assigned by the address-space configuration.
type Tag struct {
	WG     int
	WF     int
	Region int
}

// Request describes one memory transaction as an Observer sees it. Transfers
// are split into requests of at most Config.RequestGranularity bytes by
// Controller.Transfer; inside the controller a queued request is an 8-byte
// slot (its transfer's index and its size), and a Request value is built from
// it only when an observer is installed.
type Request struct {
	Kind   AccessKind
	Stream Stream
	Bytes  units.Bytes
	Tag    Tag
}

// Config describes an HBM stack.
type Config struct {
	// Channels is the number of independent channels; aggregate bandwidth is
	// split evenly across them.
	Channels int
	// TotalBandwidth is the peak aggregate bandwidth (Table 1: 1 TB/s).
	TotalBandwidth units.Bandwidth
	// RequestGranularity is the largest single DRAM transaction; transfers
	// are chopped into requests of at most this size.
	RequestGranularity units.Bytes
	// QueueDepth is the per-channel DRAM command queue capacity; arbitration
	// thresholds are expressed against its occupancy.
	QueueDepth int
	// ReadLatency is the fixed access latency added to a read's completion
	// (it does not occupy the channel; service is pipelined behind it).
	ReadLatency units.Time
	// UpdateFactor is the service-time multiplier for NMC op-and-store
	// relative to a plain write (CCDWL/CCDL = 2 per the paper). Used by the
	// flat service model only.
	UpdateFactor float64
	// Banks, if non-nil, replaces the flat bytes/bandwidth service model
	// with the bank-group-level timing model (column bursts spaced by
	// CCDL/CCDWL, row reopenings). See BankConfig.
	Banks *BankConfig
	// Metrics, if non-nil, is where the controller registers its
	// observability instruments: per-channel traffic counters
	// ("memory.chan0.comm.read_bytes"), arbitration counters, the MCA
	// threshold gauge, and a "memory" timeline track with one span per
	// Transfer. A nil sink records nothing and costs nothing.
	Metrics metrics.Sink
	// Check, if non-nil, attaches the invariant checker: per-channel service
	// windows must never overlap (the stage is serially reused) and DRAM
	// queue occupancy must never exceed QueueDepth. Like Metrics, a nil
	// checker records nothing and costs nothing.
	Check *check.Checker
}

// DefaultConfig mirrors Table 1 of the paper.
func DefaultConfig() Config {
	return Config{
		Channels:           32,
		TotalBandwidth:     1 * units.TBps,
		RequestGranularity: 2 * units.KiB,
		QueueDepth:         64,
		ReadLatency:        60 * units.Nanosecond,
		UpdateFactor:       2.0,
	}
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	switch {
	case c.Channels <= 0:
		return fmt.Errorf("memory: Channels = %d, must be positive", c.Channels)
	case c.TotalBandwidth <= 0:
		return fmt.Errorf("memory: TotalBandwidth = %v, must be positive", c.TotalBandwidth)
	case c.RequestGranularity <= 0 || c.RequestGranularity > math.MaxUint32:
		return fmt.Errorf("memory: RequestGranularity = %v, must be positive and at most 4 GiB", c.RequestGranularity)
	case c.QueueDepth <= 0:
		return fmt.Errorf("memory: QueueDepth = %d, must be positive", c.QueueDepth)
	case c.ReadLatency < 0:
		return fmt.Errorf("memory: ReadLatency = %v, must be non-negative", c.ReadLatency)
	case c.UpdateFactor < 1:
		return fmt.Errorf("memory: UpdateFactor = %v, must be >= 1", c.UpdateFactor)
	}
	if c.Banks != nil {
		if err := c.Banks.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// Counters aggregates DRAM traffic by access kind and stream. It backs the
// data-movement results (paper Figures 17 and 18). WaitTime accumulates how
// long requests sat queued before service began — the direct measure of the
// §3.2.2 contention the MCA policy manages.
type Counters struct {
	Bytes    [3][2]units.Bytes // [kind][stream]
	Requests [3][2]int64
	WaitTime [3][2]units.Time
}

func (c *Counters) add(k AccessKind, s Stream, b units.Bytes, wait units.Time) {
	c.Bytes[k][s] += b
	c.Requests[k][s]++
	c.WaitTime[k][s] += wait
}

// MeanWait returns the average queueing delay of one stream's requests.
func (c *Counters) MeanWait(s Stream) units.Time {
	var wait units.Time
	var n int64
	for k := 0; k < 3; k++ {
		wait += c.WaitTime[k][s]
		n += c.Requests[k][s]
	}
	if n == 0 {
		return 0
	}
	return wait / units.Time(n)
}

// TotalBytes returns all bytes moved to or from DRAM.
func (c *Counters) TotalBytes() units.Bytes {
	var t units.Bytes
	for k := range c.Bytes {
		for s := range c.Bytes[k] {
			t += c.Bytes[k][s]
		}
	}
	return t
}

// KindBytes returns bytes moved for one access kind across both streams.
func (c *Counters) KindBytes(k AccessKind) units.Bytes {
	return c.Bytes[k][StreamCompute] + c.Bytes[k][StreamComm]
}

// StreamBytes returns bytes moved on one stream across all kinds.
func (c *Counters) StreamBytes(s Stream) units.Bytes {
	return c.Bytes[Read][s] + c.Bytes[Write][s] + c.Bytes[Update][s]
}
