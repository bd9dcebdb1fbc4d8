package memory

import "t3sim/internal/units"

// svcRun is one calendar event standing for a run of full-granularity
// service completions that fall at the same picosecond. The channels of a
// controller run in lockstep, so most completions are scheduled back to
// back, at one time, with nothing scheduled between them: each would take
// the next insertion seq, so they would dispatch consecutively, and no other
// event could fall between them. The run holds them as one event at the
// first member's time and seq, on the lane that member would have used, and
// ends its members' services in join order. Every handler, arbiter call,
// counter and checker window therefore runs in exactly the order separate
// events would have run them, and only the event count drops.
//
// A completion joins the controller's open run (completeAt) only while that
// still holds: its time is the run's, and the engine has scheduled nothing
// since the last member joined. Anything else — a partial tail, the bank
// model, an unrelated event, another controller on the same engine — opens
// a new run or goes on the heap itself.
type svcRun struct {
	ctrl  *Controller
	chans []int32 // members' channel indices, in join order
	fire  func()  // dispatch, bound once per pooled run
}

// completeAt schedules the completion of channel id's full-granularity
// service of kind k at time at: it joins the open run when the join rule
// holds, or opens a new run on kind k's service lane.
func (c *Controller) completeAt(at units.Time, k AccessKind, id int) {
	if r := c.run; r != nil && !c.solo && c.runAt == at && c.runMark == c.eng.Scheduled() {
		r.chans = append(r.chans, int32(id))
		return
	}
	var r *svcRun
	if n := len(c.runFree); n > 0 {
		r = c.runFree[n-1]
		c.runFree = c.runFree[:n-1]
	} else {
		// No channel is in service twice at once, so a run never holds
		// more members than the controller has channels.
		r = &svcRun{ctrl: c, chans: make([]int32, 0, len(c.channels))}
		r.fire = r.dispatch
	}
	r.chans = append(r.chans, int32(id))
	c.svcLane[k].After(r.fire)
	c.run, c.runAt, c.runMark = r, at, c.eng.Scheduled()
}

// dispatch closes the run to joins and ends its members' services in join
// order. Completions those services schedule go to a fresh run.
func (r *svcRun) dispatch() {
	c := r.ctrl
	if c.run == r {
		c.run = nil
	}
	for _, id := range r.chans {
		c.channels[id].serviceDone()
	}
	r.chans = r.chans[:0]
	c.runFree = append(c.runFree, r)
}
