package memory

import "t3sim/internal/units"

// ChannelView is the snapshot of one channel's state an arbitration policy
// sees when deciding what to issue next.
type ChannelView struct {
	Now            units.Time
	DRAMOccupancy  int // requests sitting in the DRAM command queue
	QueueDepth     int // DRAM command queue capacity
	ComputePending int // un-issued compute-stream requests
	CommPending    int // un-issued communication-stream requests
	LastCommIssue  units.Time
}

// Arbiter selects which stream a channel issues from next. Returning ok=false
// stalls issue until the channel state changes (new arrival or a completion).
//
// The channel calls Next only while at least one stream has a pending
// request (ComputePending+CommPending > 0) and the DRAM queue has room, so a
// policy never sees — and cannot change state on — an empty channel.
// Implementations must only select a stream with pending requests.
type Arbiter interface {
	Next(v ChannelView) (s Stream, ok bool)
}

// RoundRobin alternates between the two streams, falling back to the other
// stream when the preferred one is empty. This is the baseline policy the
// paper shows causes producer slowdowns (§4.5): bursty communication traffic
// freely occupies the DRAM queues.
type RoundRobin struct {
	last Stream
}

// Next implements Arbiter: with both streams pending it issues from the one
// it did not issue from last, with one pending it issues from that one, and
// with none it stalls.
func (r *RoundRobin) Next(v ChannelView) (Stream, bool) {
	var s Stream
	switch {
	case v.ComputePending > 0 && v.CommPending > 0:
		s = other(r.last)
	case v.ComputePending > 0:
		s = StreamCompute
	case v.CommPending > 0:
		s = StreamComm
	default:
		return 0, false
	}
	r.last = s
	return s, true
}

// ComputeFirst always prefers the compute stream and issues communication
// only when compute is empty, with no occupancy limit. The paper notes this
// is insufficient because previously issued communication bursts already
// occupy the DRAM queue when compute accesses arrive.
type ComputeFirst struct{}

// Next implements Arbiter.
func (ComputeFirst) Next(v ChannelView) (Stream, bool) {
	if v.ComputePending > 0 {
		return StreamCompute, true
	}
	if v.CommPending > 0 {
		return StreamComm, true
	}
	return 0, false
}

// MCAConfig parameterizes the paper's dynamic memory-controller arbitration
// policy (§4.5).
type MCAConfig struct {
	// Thresholds are the candidate DRAM-queue occupancy limits for issuing
	// communication traffic, from most to least restrictive. The paper uses
	// {5, 10, 30, no-limit}.
	Thresholds []int
	// StarvationLimit bounds how long the communication stream may go
	// without an issue while it has pending requests.
	StarvationLimit units.Time
}

// DefaultMCAConfig returns the paper's values.
func DefaultMCAConfig() MCAConfig {
	return MCAConfig{
		Thresholds:      []int{5, 10, 30},
		StarvationLimit: 2 * units.Microsecond,
	}
}

// MCA is the communication-aware arbitration policy of §4.5:
//
//   - compute-stream accesses always have priority;
//   - communication issues only when the DRAM queue occupancy is below a
//     threshold, leaving room for future compute accesses;
//   - the threshold is chosen dynamically from the memory intensity the
//     controller observed while the producer kernel ran in isolation (its
//     first stage, before any overlapped communication exists);
//   - a starvation bound guarantees communication forward progress.
//
// The zero threshold state (before any monitor window completes) is the
// most restrictive, which is safe for memory-intensive kernels.
type MCA struct {
	cfg       MCAConfig
	threshold int  // current occupancy limit; <0 means unlimited
	haveLimit bool // a monitor window has run
	pinned    bool // threshold fixed by SetThreshold; monitors are ignored
}

// NewMCA returns an MCA policy with cfg. Invalid configs fall back to
// DefaultMCAConfig values.
func NewMCA(cfg MCAConfig) *MCA {
	if len(cfg.Thresholds) == 0 {
		cfg.Thresholds = DefaultMCAConfig().Thresholds
	}
	if cfg.StarvationLimit <= 0 {
		cfg.StarvationLimit = DefaultMCAConfig().StarvationLimit
	}
	return &MCA{cfg: cfg, threshold: cfg.Thresholds[0], haveLimit: false}
}

// Next implements Arbiter.
func (m *MCA) Next(v ChannelView) (Stream, bool) {
	if v.CommPending > 0 && v.Now-v.LastCommIssue > m.cfg.StarvationLimit {
		return StreamComm, true
	}
	if v.ComputePending > 0 {
		return StreamCompute, true
	}
	if v.CommPending > 0 && (m.threshold < 0 || v.DRAMOccupancy < m.threshold) {
		return StreamComm, true
	}
	return 0, false
}

// MCANoLimit is the MCA threshold that places no occupancy limit on
// communication.
const MCANoLimit = -1

// Threshold returns the current occupancy limit (<0 means unlimited).
func (m *MCA) Threshold() int { return m.threshold }

// SetIntensity installs the occupancy threshold for the observed memory
// intensity of the running producer kernel. Intensity is the mean DRAM queue
// occupancy during the kernel's isolated execution, normalized to queue
// depth (0..1): the more memory-intensive the kernel, the smaller the
// occupancy budget left for communication. Pinned thresholds win.
func (m *MCA) SetIntensity(intensity float64) {
	if m.pinned {
		return
	}
	m.haveLimit = true
	th := m.cfg.Thresholds
	switch {
	case intensity > 0.60:
		m.threshold = th[0]
	case intensity > 0.25:
		m.threshold = th[min(1, len(th)-1)]
	case intensity > 0.05:
		m.threshold = th[min(2, len(th)-1)]
	default:
		m.threshold = MCANoLimit // compute barely touches DRAM
	}
}

// SetThreshold pins the occupancy limit directly (used by the fixed-
// threshold ablation; MCANoLimit means unlimited). It marks the policy
// calibrated so monitor windows do not override it.
func (m *MCA) SetThreshold(threshold int) {
	m.threshold = threshold
	m.haveLimit = true
	m.pinned = true
}

// Calibrated reports whether a monitor window has set the threshold.
func (m *MCA) Calibrated() bool { return m.haveLimit }

func other(s Stream) Stream {
	if s == StreamCompute {
		return StreamComm
	}
	return StreamCompute
}
