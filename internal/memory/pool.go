package memory

import "t3sim/internal/units"

// Completion receives a transfer's completion together with the transfer's
// tag. A caller that serves many transfers implements Complete once on a
// pooled or long-lived receiver and recovers per-transfer context from the
// tag, instead of capturing it in a fresh closure per call; the fused
// runner issues its per-tile traffic this way.
type Completion interface {
	Complete(tag Tag)
}

// CompletionFunc adapts an ordinary function to a Completion, for callers
// off the hot path that complete a transfer with a closure.
type CompletionFunc func(tag Tag)

// Complete calls f(tag).
func (f CompletionFunc) Complete(tag Tag) { f(tag) }

// xfer is the pooled per-Transfer state. It holds everything the requests of
// one transfer share — kind, stream, tag and the time they were enqueued —
// so a queued request is only a slot{xfer index, bytes}; the count of
// requests still outstanding; and the completion to deliver when that count
// drains. Records are carved from slabs and reused, so a steady-state
// transfer costs zero allocations.
type xfer struct {
	ctrl   *Controller
	id     uint32 // index in ctrl.xfers
	left   int    // requests not yet serviced
	kind   AccessKind
	stream Stream
	tag    Tag
	start  units.Time // enqueue time: wait statistics and the metrics span
	cb     Completion
}

// finish runs when the transfer's last request completes. It records the
// metrics span, delivers the completion, and only then returns the xfer to
// the pool — releasing before the callback would let a nested Transfer
// started by the callback rearm this record while it is still unwinding.
func (x *xfer) finish() {
	c := x.ctrl
	if c.mtrack != nil {
		c.mtrack.Span(transferSpanName[x.kind][x.stream], x.start, c.eng.Now())
	}
	cb, tag := x.cb, x.tag
	x.cb = nil
	if cb != nil {
		cb.Complete(tag)
	}
	c.xfFree = append(c.xfFree, x)
}

// getXfer returns a transfer record armed for n outstanding requests,
// reusing a pooled one when available. n must be positive. Rearming a
// record that still has requests outstanding panics: they would be merged
// into the new transfer.
func (c *Controller) getXfer(n int) *xfer {
	if ln := len(c.xfFree); ln > 0 {
		x := c.xfFree[ln-1]
		if x.left != 0 {
			panic("memory: rearming a transfer still in flight")
		}
		c.xfFree[ln-1] = nil
		c.xfFree = c.xfFree[:ln-1]
		x.left = n
		return x
	}
	if len(c.xfSlab) == 0 {
		c.xfSlab = make([]xfer, xferSlab)
	}
	x := &c.xfSlab[0]
	c.xfSlab = c.xfSlab[1:]
	x.ctrl, x.id, x.left = c, uint32(len(c.xfers)), n
	c.xfers = append(c.xfers, x)
	return x
}

// xferSlab is how many transfer records a controller allocates at once.
const xferSlab = 32

// readDone finishes the oldest read transfer waiting out ReadLatency. Every
// such wait is one event on the ReadLatency lane, which dispatches in the
// order the waits were scheduled, so the oldest is always the event's own.
func (c *Controller) readDone() {
	c.xfers[c.readq.pop().xf].finish()
}
