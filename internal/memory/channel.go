package memory

import (
	"t3sim/internal/check"
	"t3sim/internal/metrics"
	"t3sim/internal/sim"
	"t3sim/internal/units"
)

// channel is one HBM channel: two stream queues feeding a finite DRAM
// command queue through the arbiter, and a single service stage draining the
// DRAM queue at the channel's share of the stack bandwidth.
type channel struct {
	ctrl *Controller
	id   int

	streams          [numStreams]reqRing // waiting, pre-arbitration
	dramq            reqRing             // issued, waiting for service
	busy             bool                // service stage occupied
	inService        *xfer               // transfer of the request occupying the stage
	svcDone          sim.Handler         // preallocated service-completion handler
	lastComm         units.Time          // last time a comm request was issued (starvation)
	inflightByStream [numStreams]int     // enqueued but not yet fully serviced
	banks            *bankTimer          // nil = flat service model

	// occupancy statistics for the MCA monitor window
	occSamples int64
	occSum     int64

	obs *chanObs // nil without a metrics sink and a checker
}

// chanObs holds a channel's instrument and checker handles. A controller
// with neither Config.Metrics nor Config.Check leaves it nil, so an
// unobserved request tests one pointer instead of loading every handle.
type chanObs struct {
	// Instrument handles (nil-safe; nil without a metrics sink).
	mBytes    [3][2]*metrics.Counter // serviced bytes by [kind][stream]
	mBusy     *metrics.Counter       // picoseconds the service stage was occupied
	mIssued   Stream                 // stream of the last DRAM-queue issue
	mAnyIssue bool                   // whether mIssued is meaningful yet

	// Invariant-checker handles (nil-safe; nil without Config.Check).
	chkServe *check.NonOverlap // service-stage busy windows
	chkDepth *check.Bound      // DRAM command-queue occupancy vs QueueDepth
}

// enqueue places a request on stream s's queue and kicks arbitration —
// unless the service stage is busy and the DRAM queue full, when
// arbitration could neither issue nor start service.
//
// A request that finds both stream queues empty and room in the DRAM queue
// skips the stream queue: the arbiter is consulted once with the view
// arbitrate would have shown it (this request pending, nothing else), and a
// grant issues the request straight into the DRAM queue. Pushing and at
// once popping it, as arbitrate would, changes nothing else.
func (ch *channel) enqueue(r slot, s Stream) {
	ch.inflightByStream[s]++
	depth := ch.ctrl.cfg.QueueDepth
	if ch.streams[StreamCompute].len()+ch.streams[StreamComm].len() > 0 || ch.dramq.len() >= depth {
		ch.streams[s].push(r)
		if !ch.busy || ch.dramq.len() < depth {
			ch.arbitrate()
		}
		return
	}
	compute, comm := 1, 0
	if s == StreamComm {
		compute, comm = 0, 1
	}
	if got, ok := ch.ctrl.arbiter.Next(ch.view(compute, comm)); !ok {
		ch.streams[s].push(r)
	} else if got != s {
		panic("memory: arbiter selected empty stream")
	} else {
		ch.issue(r, s)
	}
	ch.service()
}

// arbitrate moves requests from stream queues into the DRAM queue while the
// policy allows, then kicks the service stage. The policy is consulted only
// while some stream has a request waiting (see Arbiter).
func (ch *channel) arbitrate() {
	for ch.dramq.len() < ch.ctrl.cfg.QueueDepth &&
		ch.streams[StreamCompute].len()+ch.streams[StreamComm].len() > 0 {
		s, ok := ch.ctrl.arbiter.Next(ch.view(ch.streams[StreamCompute].len(), ch.streams[StreamComm].len()))
		if !ok {
			break
		}
		if ch.streams[s].len() == 0 {
			panic("memory: arbiter selected empty stream")
		}
		ch.issue(ch.streams[s].pop(), s)
	}
	ch.service()
}

// issue moves request r of stream s into the DRAM queue, with every side
// effect of an arbitration grant: the queue-depth witness, the starvation
// clock, and the issue counters and traffic series.
func (ch *channel) issue(r slot, s Stream) {
	c := ch.ctrl
	ch.dramq.push(r)
	if s == StreamComm {
		ch.lastComm = c.eng.Now()
	}
	o := ch.obs
	if o == nil {
		return
	}
	o.chkDepth.Observe(c.eng.Now(), int64(ch.dramq.len()))
	c.mIssues[s].Inc()
	if o.mAnyIssue && o.mIssued != s {
		c.mSwitches.Inc()
	}
	o.mIssued, o.mAnyIssue = s, true
	if c.cfg.Metrics != nil {
		c.mTrace[c.xfers[r.xf].kind][s].Add(c.eng.Now(), int64(r.bytes))
	}
}

// service drains the DRAM queue head if the stage is free.
func (ch *channel) service() {
	if ch.busy || ch.dramq.len() == 0 {
		return
	}
	r := ch.dramq.pop()
	c := ch.ctrl
	x := c.xfers[r.xf]
	ch.busy = true
	ch.inService = x

	bytes := units.Bytes(r.bytes)
	now := c.eng.Now()
	// A full-granularity request under the flat model — nearly every
	// request — takes its kind's precomputed time and completes in a
	// same-instant run on that time's lane (see svcRun); partial tails and
	// the bank model schedule their own completion on the heap.
	var t units.Time
	full := ch.banks == nil && bytes == c.cfg.RequestGranularity
	switch {
	case ch.banks != nil:
		t = ch.banks.service(now, x.kind, bytes) - now
	case full:
		t = c.fullSvc[x.kind]
	default:
		t = c.flatService(x.kind, bytes)
	}
	ch.sampleOccupancy()
	c.counters.add(x.kind, x.stream, bytes, now-x.start)
	if o := ch.obs; o != nil {
		o.chkServe.Window(now, now+t)
		o.mBytes[x.kind][x.stream].Add(int64(bytes))
		o.mBusy.Add(int64(t))
	}
	if full {
		c.completeAt(now+t, x.kind, ch.id)
	} else {
		c.eng.After(t, ch.svcDone)
	}
}

// serviceDone ends the service in progress, behind svcDone or as a member
// of a svcRun: the channel services one request at a time, so the request
// it applies to is always inService's and no per-service closure is needed.
func (ch *channel) serviceDone() {
	x := ch.inService
	ch.inService = nil
	ch.busy = false
	ch.inflightByStream[x.stream]--
	ch.complete(x)
	// Freeing the service stage may unblock arbitration (queue depth).
	ch.arbitrate()
	ch.ctrl.checkIdle()
}

// complete counts a serviced request down on its transfer.
//
// A read counts down as soon as its service ends; only the request that
// drains the count schedules the ReadLatency event. ReadLatency is
// constant, so per-request latency events would fire in service-completion
// order and the last one — the only one that does more than decrement —
// sits exactly where the single event is scheduled: same time, same place
// in the insertion order. A read transfer therefore adds one event, not one
// per request. Completing a transfer with nothing outstanding panics.
func (ch *channel) complete(x *xfer) {
	if x.left <= 0 {
		panic("memory: transfer over-completed")
	}
	x.left--
	if x.left > 0 {
		return
	}
	if x.kind == Read && ch.ctrl.cfg.ReadLatency > 0 {
		c := ch.ctrl
		c.readq.push(slot{xf: x.id})
		c.readLane.After(c.readFinish)
	} else {
		x.finish()
	}
}

// inFlight reports whether the channel has any work anywhere.
func (ch *channel) inFlight() bool {
	return ch.busy || ch.dramq.len() > 0 ||
		ch.streams[StreamCompute].len() > 0 || ch.streams[StreamComm].len() > 0
}

func (ch *channel) sampleOccupancy() {
	ch.occSamples++
	ch.occSum += int64(ch.dramq.len())
}

// view builds the arbiter's snapshot of this channel with compute and comm
// requests pending. The caller passes the counts so that the snapshot is
// one literal: patching a field of a copied view measured as a
// store-forwarding stall on the hottest path.
func (ch *channel) view(compute, comm int) ChannelView {
	return ChannelView{
		Now:            ch.ctrl.eng.Now(),
		DRAMOccupancy:  ch.dramq.len(),
		QueueDepth:     ch.ctrl.cfg.QueueDepth,
		ComputePending: compute,
		CommPending:    comm,
		LastCommIssue:  ch.lastComm,
	}
}
