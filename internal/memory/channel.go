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

	// Per-channel instrument handles (nil-safe; nil without a metrics sink).
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
func (ch *channel) enqueue(r slot, s Stream) {
	ch.streams[s].push(r)
	ch.inflightByStream[s]++
	if ch.busy && ch.dramq.len() >= ch.ctrl.cfg.QueueDepth {
		return
	}
	ch.arbitrate()
}

// arbitrate moves requests from stream queues into the DRAM queue while the
// policy allows, then kicks the service stage. The policy is consulted only
// while some stream has a request waiting (see Arbiter).
func (ch *channel) arbitrate() {
	for ch.dramq.len() < ch.ctrl.cfg.QueueDepth &&
		ch.streams[StreamCompute].len()+ch.streams[StreamComm].len() > 0 {
		s, ok := ch.ctrl.arbiter.Next(ch.view())
		if !ok {
			break
		}
		if ch.streams[s].len() == 0 {
			panic("memory: arbiter selected empty stream")
		}
		r := ch.streams[s].pop()
		ch.dramq.push(r)
		ch.chkDepth.Observe(ch.ctrl.eng.Now(), int64(ch.dramq.len()))
		if s == StreamComm {
			ch.lastComm = ch.ctrl.eng.Now()
		}
		ch.ctrl.mIssues[s].Inc()
		if ch.mAnyIssue && ch.mIssued != s {
			ch.ctrl.mSwitches.Inc()
		}
		ch.mIssued, ch.mAnyIssue = s, true
		ch.ctrl.notifyEnqueue(r)
	}
	ch.service()
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
	// request — takes its kind's precomputed time and completes through
	// that time's lane; partial tails and the bank model use the heap.
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
	if ch.chkServe != nil {
		ch.chkServe.Window(now, now+t)
	}
	c.counters.add(x.kind, x.stream, bytes, now-x.start)
	ch.mBytes[x.kind][x.stream].Add(int64(bytes))
	ch.mBusy.Add(int64(t))
	if full {
		c.svcLane[x.kind].After(ch.svcDone)
	} else {
		c.eng.After(t, ch.svcDone)
	}
}

// serviceDone is the single completion handler behind svcDone: the channel
// services one request at a time, so the request it applies to is always
// inService's and no per-service closure is needed.
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
// in the insertion order. A transfer of n read requests therefore costs n+1
// events instead of 2n. Completing a transfer with nothing outstanding
// panics.
func (ch *channel) complete(x *xfer) {
	if x.left <= 0 {
		panic("memory: transfer over-completed")
	}
	x.left--
	if x.left > 0 {
		return
	}
	if x.kind == Read && ch.ctrl.cfg.ReadLatency > 0 {
		ch.ctrl.readLane.After(x.done)
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

// view builds the arbiter's snapshot of this channel.
func (ch *channel) view() ChannelView {
	return ChannelView{
		Now:            ch.ctrl.eng.Now(),
		DRAMOccupancy:  ch.dramq.len(),
		QueueDepth:     ch.ctrl.cfg.QueueDepth,
		ComputePending: ch.streams[StreamCompute].len(),
		CommPending:    ch.streams[StreamComm].len(),
		LastCommIssue:  ch.lastComm,
	}
}
