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
	inService        *Request            // request occupying the stage
	svcDone          sim.Handler         // preallocated service-completion handler
	bw               units.Bandwidth
	lastComm         units.Time      // last time a comm request was issued (starvation)
	inflightByStream [numStreams]int // enqueued but not yet fully serviced
	banks            *bankTimer      // nil = flat service model

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

// enqueue places a request on its stream queue and kicks arbitration.
func (ch *channel) enqueue(r *Request) {
	r.enqueuedAt = ch.ctrl.eng.Now()
	ch.streams[r.Stream].push(r)
	ch.inflightByStream[r.Stream]++
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
	ch.busy = true
	ch.inService = r

	var t units.Time
	if ch.banks != nil {
		now := ch.ctrl.eng.Now()
		t = ch.banks.service(now, r) - now
	} else {
		t = ch.bw.TransferTime(r.Bytes)
		if r.Kind == Update {
			t = units.Time(float64(t) * ch.ctrl.cfg.UpdateFactor)
		}
	}
	ch.sampleOccupancy()
	if ch.chkServe != nil {
		now := ch.ctrl.eng.Now()
		ch.chkServe.Window(now, now+t)
	}
	ch.ctrl.counters.add(r.Kind, r.Stream, r.Bytes, ch.ctrl.eng.Now()-r.enqueuedAt)
	ch.mBytes[r.Kind][r.Stream].Add(int64(r.Bytes))
	ch.mBusy.Add(int64(t))
	ch.ctrl.eng.After(t, ch.svcDone)
}

// serviceDone is the single completion handler behind svcDone: the channel
// services one request at a time, so the request it applies to is always
// inService and no per-service closure is needed.
func (ch *channel) serviceDone() {
	r := ch.inService
	ch.inService = nil
	ch.busy = false
	ch.inflightByStream[r.Stream]--
	ch.complete(r)
	// Freeing the service stage may unblock arbitration (queue depth).
	ch.arbitrate()
	ch.ctrl.checkIdle()
}

// complete delivers a serviced request's completion. Pooled requests
// (created by Transfer/TransferTo) are recycled here, before their fence
// completion is delivered or scheduled — any observer holding the pointer
// past OnIssue is in violation of the retention contract.
//
// A pooled read counts down its transfer's fence as soon as its service
// ends; only the request that drains the fence schedules the ReadLatency
// event. ReadLatency is constant, so per-request latency events would fire
// in service-completion order and the last one — the only one that does more
// than decrement — sits exactly where the single event is scheduled: same
// time, same place in the insertion order. A transfer of n read requests
// therefore costs n+1 events instead of 2n.
func (ch *channel) complete(r *Request) {
	if x := r.xf; x != nil {
		isRead := r.Kind == Read
		ch.ctrl.putReq(r)
		if isRead && ch.ctrl.cfg.ReadLatency > 0 && x.fence.Remaining() == 1 {
			ch.ctrl.eng.AfterFence(ch.ctrl.cfg.ReadLatency, x.fence)
		} else {
			x.fence.Done()
		}
		return
	}
	if r.OnDone == nil {
		return
	}
	if r.Kind == Read && ch.ctrl.cfg.ReadLatency > 0 {
		ch.ctrl.eng.After(ch.ctrl.cfg.ReadLatency, r.OnDone)
	} else {
		r.OnDone()
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
