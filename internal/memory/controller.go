package memory

import (
	"fmt"

	"t3sim/internal/metrics"
	"t3sim/internal/sim"
	"t3sim/internal/units"
)

// Controller is one GPU's HBM stack: a set of channels fed through a shared
// arbitration policy. Transfers are striped across channels round-robin,
// which models the address interleaving real stacks use.
type Controller struct {
	eng      *sim.Engine
	cfg      Config
	arbiter  Arbiter
	channels []*channel
	counters Counters

	nextChannel int // striping cursor

	// Flat service model: every channel's share of the stack bandwidth, a
	// full-granularity request's service time per kind (computed once), and
	// the lanes those completions and ReadLatency events use (see
	// sim.Engine.Lane).
	chanBW   units.Bandwidth
	fullSvc  [3]units.Time
	svcLane  [3]sim.Lane
	readLane sim.Lane

	// The open run of same-instant full-granularity completions (see
	// svcRun): it accepts joins at runAt while the engine's Scheduled count
	// is still runMark. Dispatched runs return to runFree. solo makes every
	// completion its own run; tests set it to replay the same traffic with
	// one event per completion.
	run     *svcRun
	runAt   units.Time
	runMark uint64
	runFree []*svcRun
	solo    bool

	// Every per-transfer record ever built, indexed by xfer.id (queue slots
	// name their transfer by that index), and the freelist of those not in
	// use (see pool.go). Requests themselves are queue slots, not objects,
	// so steady-state traffic allocates nothing.
	xfers  []*xfer
	xfFree []*xfer
	xfSlab []xfer // records not yet handed out

	// Read transfers waiting out ReadLatency, oldest first, and the handler
	// bound once to readDone that finishes them.
	readq      reqRing
	readFinish sim.Handler

	idleWaiters   []idleWaiter
	monitorActive bool

	// Observability handles (all nil-safe; nil when Config.Metrics is nil).
	mtrack     *metrics.Track      // "memory" timeline: one span per Transfer
	mIssues    [2]*metrics.Counter // per-stream DRAM-queue issues
	mSwitches  *metrics.Counter    // arbitration stream switches
	mThreshold *metrics.Gauge      // calibrated MCA occupancy threshold
	// Issue-time traffic by [kind][stream]: Figure 17's four timelines.
	mTrace [3][2]*metrics.TimeSeries
}

// TraceBucket is the bucket width of a controller's issue-time traffic
// series (Figure 17's timeline resolution).
const TraceBucket = 20 * units.Microsecond

// traceSeriesName names the issue-time traffic series by [kind][stream].
// Figure 17 plots four classes, so plain writes and NMC updates share a
// series.
var traceSeriesName = [3][2]string{
	Read:   {StreamCompute: "trace.compute_read_bytes", StreamComm: "trace.comm_read_bytes"},
	Write:  {StreamCompute: "trace.compute_write_bytes", StreamComm: "trace.comm_write_bytes"},
	Update: {StreamCompute: "trace.compute_write_bytes", StreamComm: "trace.comm_write_bytes"},
}

// TraceSeriesName returns the name under which a controller with a metrics
// sink accumulates the bytes of kind k it issues on stream s into its DRAM
// command queues, in TraceBucket-wide buckets.
func TraceSeriesName(k AccessKind, s Stream) string { return traceSeriesName[k][s] }

// transferSpanName labels Transfer spans on the "memory" timeline track by
// [kind][stream], e.g. "update/comm" for an incoming NMC reduction.
var transferSpanName = [3][2]string{
	Read:   {StreamCompute: "read/compute", StreamComm: "read/comm"},
	Write:  {StreamCompute: "write/compute", StreamComm: "write/comm"},
	Update: {StreamCompute: "update/compute", StreamComm: "update/comm"},
}

// maxDRAMRing bounds the DRAM-queue ring a controller allocates up front.
const maxDRAMRing = 1024

type idleWaiter struct {
	stream Stream
	all    bool
	fn     sim.Handler
}

// NewController builds a memory system on eng with cfg and policy arb.
func NewController(eng *sim.Engine, cfg Config, arb Arbiter) (*Controller, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if arb == nil {
		return nil, fmt.Errorf("memory: nil arbiter")
	}
	c := &Controller{eng: eng, cfg: cfg, arbiter: arb}
	c.chanBW = units.Bandwidth(float64(cfg.TotalBandwidth) / float64(cfg.Channels))
	if cfg.Banks == nil {
		for k := Read; k <= Update; k++ {
			c.fullSvc[k] = c.flatService(k, cfg.RequestGranularity)
			c.svcLane[k] = eng.Lane(c.fullSvc[k])
		}
	}
	if cfg.ReadLatency > 0 {
		c.readLane = eng.Lane(cfg.ReadLatency)
		c.readFinish = c.readDone
	}
	c.channels = make([]*channel, cfg.Channels)
	for i := range c.channels {
		ch := &channel{ctrl: c, id: i}
		ch.svcDone = ch.serviceDone // one closure per channel, reused forever
		// The DRAM queue never holds more than QueueDepth requests, so its
		// ring is sized once (up to maxDRAMRing; a deeper queue grows on
		// demand) instead of doubling up from 8 on every channel.
		ch.dramq.reserve(min(cfg.QueueDepth, maxDRAMRing))
		if cfg.Banks != nil {
			ch.banks = newBankTimer(*cfg.Banks)
		}
		c.channels[i] = ch
	}
	if m := cfg.Metrics; m != nil {
		c.mtrack = m.Track("memory")
		c.mIssues[StreamCompute] = m.Counter("memory.arb.compute_issues")
		c.mIssues[StreamComm] = m.Counter("memory.arb.comm_issues")
		c.mSwitches = m.Counter("memory.arb.stream_switches")
		c.mThreshold = m.Gauge("memory.mca.threshold")
		for k := Read; k <= Update; k++ {
			for s := StreamCompute; s < numStreams; s++ {
				c.mTrace[k][s] = m.Series(traceSeriesName[k][s], TraceBucket)
			}
		}
	}
	if cfg.Metrics == nil && cfg.Check == nil {
		return c, nil
	}
	for i, ch := range c.channels {
		o := &chanObs{}
		ch.obs = o
		if m := cfg.Metrics; m != nil {
			for k := Read; k <= Update; k++ {
				for s := StreamCompute; s < numStreams; s++ {
					o.mBytes[k][s] = m.Counter(fmt.Sprintf("memory.chan%d.%s.%s_bytes", i, s, k))
				}
			}
			o.mBusy = m.Counter(fmt.Sprintf("memory.chan%d.busy_ps", i))
		}
		if ck := cfg.Check; ck != nil {
			o.chkServe = ck.NonOverlap(fmt.Sprintf("memory.chan%d.service", i))
			o.chkDepth = ck.Bound(fmt.Sprintf("memory.chan%d.dramq", i), int64(cfg.QueueDepth))
		}
	}
	return c, nil
}

// flatService is the flat model's service time for a request of n bytes of
// kind k: n at the channel's bandwidth, stretched by UpdateFactor for an
// NMC update.
func (c *Controller) flatService(k AccessKind, n units.Bytes) units.Time {
	t := c.chanBW.TransferTime(n)
	if k == Update {
		t = units.Time(float64(t) * c.cfg.UpdateFactor)
	}
	return t
}

// Config returns the controller's configuration.
func (c *Controller) Config() Config { return c.cfg }

// Counters returns the accumulated traffic counters.
func (c *Controller) Counters() *Counters { return &c.counters }

// Arbiter returns the installed arbitration policy.
func (c *Controller) Arbiter() Arbiter { return c.arbiter }

// Transfer splits a transfer of total bytes into granularity-sized requests
// striped across channels and runs cb.Complete(tag) when every request has
// completed. The tag is attached to each request. Callers on the hot path
// pass a pooled or long-lived receiver, so issuing a transfer allocates
// nothing; a closure goes through CompletionFunc. cb may be nil.
func (c *Controller) Transfer(kind AccessKind, stream Stream, total units.Bytes, tag Tag, cb Completion) {
	if total <= 0 {
		if cb != nil {
			cb.Complete(tag)
		}
		return
	}
	g := c.cfg.RequestGranularity
	n := int(units.CeilDiv(int64(total), int64(g)))
	x := c.getXfer(n)
	x.kind, x.stream, x.tag, x.start = kind, stream, tag, c.eng.Now()
	x.cb = cb
	remaining := total
	for i := 0; i < n; i++ {
		sz := min(g, remaining)
		remaining -= sz
		ch := c.channels[c.nextChannel]
		if c.nextChannel++; c.nextChannel == len(c.channels) {
			c.nextChannel = 0
		}
		ch.enqueue(slot{xf: x.id, bytes: uint32(sz)}, stream)
	}
}

// RequestsFor returns how many granularity-sized requests a transfer of
// total bytes will produce.
func (c *Controller) RequestsFor(total units.Bytes) int {
	if total <= 0 {
		return 0
	}
	return int(units.CeilDiv(int64(total), int64(c.cfg.RequestGranularity)))
}

// WhenIdle schedules fn to run when the given stream has no queued requests
// anywhere in the controller (the paper drains the communication stream at
// producer kernel boundaries, §4.5). The condition is checked on every
// completion; if already idle, fn runs immediately.
func (c *Controller) WhenIdle(stream Stream, fn sim.Handler) {
	if !c.streamBusy(stream) {
		fn()
		return
	}
	c.idleWaiters = append(c.idleWaiters, idleWaiter{stream: stream, fn: fn})
}

// WhenAllIdle schedules fn for when the entire memory system has drained.
func (c *Controller) WhenAllIdle(fn sim.Handler) {
	if !c.anyBusy() {
		fn()
		return
	}
	c.idleWaiters = append(c.idleWaiters, idleWaiter{all: true, fn: fn})
}

// BeginMonitor starts an MCA intensity-monitoring window (the producer
// kernel's isolated first stage). It is a no-op for non-MCA arbiters.
func (c *Controller) BeginMonitor() {
	if _, ok := c.arbiter.(*MCA); !ok {
		return
	}
	c.monitorActive = true
	for _, ch := range c.channels {
		ch.occSamples = 0
		ch.occSum = 0
	}
}

// EndMonitor closes the monitoring window and installs the measured memory
// intensity into the MCA policy.
func (c *Controller) EndMonitor() {
	mca, ok := c.arbiter.(*MCA)
	if !ok || !c.monitorActive {
		return
	}
	c.monitorActive = false
	var samples, sum int64
	for _, ch := range c.channels {
		samples += ch.occSamples
		sum += ch.occSum
	}
	if samples == 0 {
		mca.SetIntensity(0)
	} else {
		mean := float64(sum) / float64(samples)
		mca.SetIntensity(mean / float64(c.cfg.QueueDepth))
	}
	c.mThreshold.Set(int64(mca.Threshold()))
	c.mtrack.Instant("mca-window-end", c.eng.Now())
}

func (c *Controller) streamBusy(s Stream) bool {
	for _, ch := range c.channels {
		if ch.inflightByStream[s] > 0 {
			return true
		}
	}
	return false
}

func (c *Controller) anyBusy() bool {
	for _, ch := range c.channels {
		if ch.inFlight() {
			return true
		}
	}
	return false
}

// checkIdle runs pending idle waiters whose condition now holds.
func (c *Controller) checkIdle() {
	if len(c.idleWaiters) == 0 {
		return
	}
	kept := c.idleWaiters[:0]
	var ready []sim.Handler
	for _, w := range c.idleWaiters {
		done := false
		if w.all {
			done = !c.anyBusy()
		} else {
			done = !c.streamBusy(w.stream)
		}
		if done {
			ready = append(ready, w.fn)
		} else {
			kept = append(kept, w)
		}
	}
	c.idleWaiters = kept
	for _, fn := range ready {
		fn()
	}
}
