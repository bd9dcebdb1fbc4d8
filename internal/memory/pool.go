package memory

import (
	"t3sim/internal/sim"
	"t3sim/internal/units"
)

// Completion receives a transfer's completion together with the transfer's
// tag. It is the allocation-free alternative to Transfer's func() callback:
// a caller that serves many transfers implements Complete once on a pooled
// or long-lived receiver and recovers per-transfer context from the tag,
// instead of capturing it in a fresh closure per call.
type Completion interface {
	Complete(tag Tag)
}

// xfer is the pooled per-Transfer state. It holds everything the requests of
// one transfer share — kind, stream, tag and the time they were enqueued —
// so a queued request is only a slot{xfer index, bytes}; the fence counting
// outstanding requests; and the completion to deliver when it drains. The
// fence and its onDone closure are allocated once per xfer object and
// rearmed with Fence.Reset on reuse, so a steady-state transfer costs zero
// allocations.
type xfer struct {
	ctrl   *Controller
	id     uint32 // index in ctrl.xfers
	fence  *sim.Fence
	kind   AccessKind
	stream Stream
	tag    Tag
	start  units.Time // enqueue time: wait statistics and the metrics span
	cb     Completion
	fn     func()
}

// finish runs when the transfer's last request completes. It records the
// metrics span, delivers the completion, and only then returns the xfer to
// the pool — releasing before the callback would let a nested Transfer
// started by the callback rearm this fence while its Done is still
// unwinding.
func (x *xfer) finish() {
	c := x.ctrl
	if c.mtrack != nil {
		c.mtrack.Span(transferSpanName[x.kind][x.stream], x.start, c.eng.Now())
	}
	cb, fn, tag := x.cb, x.fn, x.tag
	x.cb, x.fn = nil, nil
	if cb != nil {
		cb.Complete(tag)
	} else if fn != nil {
		fn()
	}
	c.xfFree = append(c.xfFree, x)
}

// getXfer returns a transfer record with its fence armed for n completions,
// reusing a pooled one when available. n must be positive.
func (c *Controller) getXfer(n int) *xfer {
	if ln := len(c.xfFree); ln > 0 {
		x := c.xfFree[ln-1]
		c.xfFree[ln-1] = nil
		c.xfFree = c.xfFree[:ln-1]
		x.fence.Reset(n)
		return x
	}
	x := &xfer{ctrl: c, id: uint32(len(c.xfers))}
	c.xfers = append(c.xfers, x)
	x.fence = sim.NewFence(n, x.finish)
	return x
}
