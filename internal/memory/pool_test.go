package memory

import (
	"strings"
	"testing"

	"t3sim/internal/units"
)

// TestRoundRobinDecisionTable checks RoundRobin.Next in every state against
// its documented rule: with both streams pending it issues from the stream
// it did not issue from last; with one pending, from that one; with none it
// stalls. Every issue records its stream as the new last; a stall keeps it.
func TestRoundRobinDecisionTable(t *testing.T) {
	for _, last := range []Stream{StreamCompute, StreamComm} {
		for _, compute := range []bool{false, true} {
			for _, comm := range []bool{false, true} {
				v := ChannelView{}
				if compute {
					v.ComputePending = 3
				}
				if comm {
					v.CommPending = 2
				}
				var want Stream
				wantOK := true
				switch {
				case compute && comm:
					want = StreamComm
					if last == StreamComm {
						want = StreamCompute
					}
				case compute:
					want = StreamCompute
				case comm:
					want = StreamComm
				default:
					wantOK = false
				}
				rr := &RoundRobin{last: last}
				got, ok := rr.Next(v)
				if ok != wantOK || ok && got != want {
					t.Errorf("last %v, compute %v, comm %v: Next = %v, %v; want %v, %v",
						last, compute, comm, got, ok, want, wantOK)
				}
				wantLast := last
				if wantOK {
					wantLast = want
				}
				if rr.last != wantLast {
					t.Errorf("last %v, compute %v, comm %v: last became %v, want %v",
						last, compute, comm, rr.last, wantLast)
				}
			}
		}
	}
}

// TestXferCountdownGuards pins the two guards a transfer's countdown keeps:
// completing a request the transfer no longer has outstanding panics, and
// so does handing out a pooled record whose requests are still in flight.
func TestXferCountdownGuards(t *testing.T) {
	_, c := newTestController(t, testConfig(), ComputeFirst{})
	c.Transfer(Write, StreamCompute, 2*units.KiB, Tag{}, nil)
	x := c.xfers[0]
	if x.left != 2 {
		t.Fatalf("a two-request transfer starts with %d outstanding", x.left)
	}
	// The record is in flight: pooling it by mistake must not let the next
	// transfer rearm it.
	c.xfFree = append(c.xfFree, x)
	mustPanicWith(t, "in flight", func() { c.getXfer(1) })
	c.xfFree = c.xfFree[:0]

	ch := c.channels[0]
	x.left = 0
	mustPanicWith(t, "over-completed", func() { ch.complete(x) })
}

func mustPanicWith(t *testing.T, want string, f func()) {
	t.Helper()
	defer func() {
		t.Helper()
		r := recover()
		if msg, _ := r.(string); !strings.Contains(msg, want) {
			t.Errorf("panic %v, want one mentioning %q", r, want)
		}
	}()
	f()
}
