// Package interconnect models the inter-GPU network of Table 1: a ring of
// point-to-point links with 150 GB/s bidirectional bandwidth (75 GB/s per
// direction) and 500 ns latency. A link serializes transfers at its
// bandwidth and delivers them after an additional propagation latency, the
// same "simple link bandwidth and latency model" the paper uses (§5.1.1).
package interconnect

import (
	"fmt"

	"t3sim/internal/check"
	"t3sim/internal/metrics"
	"t3sim/internal/sim"
	"t3sim/internal/units"
)

// Config describes the network.
type Config struct {
	// LinkBandwidth is the per-direction bandwidth of each ring link.
	LinkBandwidth units.Bandwidth
	// LinkLatency is the propagation latency added to every delivery.
	LinkLatency units.Time
	// PacketSize bounds the serialization unit; transfers larger than this
	// are pipelined packet by packet so concurrent transfers share a link
	// fairly.
	PacketSize units.Bytes
}

// DefaultConfig mirrors Table 1: a 150 GB/s bidirectional ring (75 GB/s per
// direction) with 500 ns link latency.
func DefaultConfig() Config {
	return Config{
		LinkBandwidth: 75 * units.GBps,
		LinkLatency:   500 * units.Nanosecond,
		PacketSize:    2 * units.KiB,
	}
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	switch {
	case c.LinkBandwidth <= 0:
		return fmt.Errorf("interconnect: LinkBandwidth = %v, must be positive", c.LinkBandwidth)
	case c.LinkLatency < 0:
		return fmt.Errorf("interconnect: LinkLatency = %v, must be non-negative", c.LinkLatency)
	case c.PacketSize <= 0:
		return fmt.Errorf("interconnect: PacketSize = %v, must be positive", c.PacketSize)
	}
	return nil
}

// Link is one unidirectional point-to-point link. Transfers are packetized
// and serialized in FIFO order; each packet is delivered LinkLatency after
// its serialization completes, so back-to-back packets pipeline.
type Link struct {
	eng *sim.Engine
	cfg Config

	// post, when non-nil, replaces eng.At for scheduling deliveries at the
	// far end. Cluster links set it to a sim.Mailbox.Post so a delivery
	// lands on the destination device's engine instead of the sender's —
	// serialization timing still reads the sender's clock, so a link behaves
	// identically whether both ends share one engine or not.
	post func(units.Time, sim.Handler)

	busyUntil units.Time
	sentBytes units.Bytes
	busyTime  units.Time // cumulative serializer occupancy

	// Instrument handles (nil-safe; installed by AttachMetrics).
	mtrack *metrics.Track   // one span per Send, serialization window
	mSent  *metrics.Counter // cumulative bytes accepted
	mBusy  *metrics.Counter // picoseconds of serializer occupancy

	// Invariant-checker handle (nil-safe; installed by AttachChecker). Each
	// send's serialization window [serializeStart, busyUntil] must abut or
	// follow the previous one — the serializer is a serially-reused resource.
	chkSerial *check.NonOverlap
}

// NewLink returns an idle link.
func NewLink(eng *sim.Engine, cfg Config) (*Link, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Link{eng: eng, cfg: cfg}, nil
}

// NewClusterLink returns a link whose ends live on different engines of a
// cluster: serialization runs on device src's engine, deliveries post to
// device dst's mailbox and fire on dst's engine at the next round boundary.
// The mailbox is registered as the link src → dst with this link's
// propagation latency, which is what feeds the scheduler's per-device
// horizons: dst may run ahead until the earliest instant src's pending events
// could reach it over this latency. The link latency must cover the
// cluster's lookahead, the floor of every link latency, so a shorter latency
// is rejected.
func NewClusterLink(cl *sim.Cluster, src, dst int, cfg Config) (*Link, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.LinkLatency < cl.Lookahead() {
		return nil, fmt.Errorf("interconnect: LinkLatency %v below cluster lookahead %v",
			cfg.LinkLatency, cl.Lookahead())
	}
	return &Link{eng: cl.Engine(src), cfg: cfg, post: cl.LinkMailbox(src, dst, cfg.LinkLatency).Post}, nil
}

// deliver schedules a far-end callback: on the shared engine directly, or
// through the cluster mailbox when the ends live on different engines.
func (l *Link) deliver(at units.Time, fn sim.Handler) {
	if l.post != nil {
		l.post(at, fn)
		return
	}
	l.eng.At(at, fn)
}

// AttachMetrics registers the link's observability instruments under the
// given name (e.g. "fwd0"): counters "interconnect.<name>.sent_bytes" and
// "interconnect.<name>.busy_ps", and a timeline track "link.<name>" with one
// span per Send covering its serialization window. A nil sink detaches.
func (l *Link) AttachMetrics(m metrics.Sink, name string) {
	if m == nil {
		l.mtrack, l.mSent, l.mBusy = nil, nil, nil
		return
	}
	l.mtrack = m.Track("link." + name)
	l.mSent = m.Counter("interconnect." + name + ".sent_bytes")
	l.mBusy = m.Counter("interconnect." + name + ".busy_ps")
}

// Send queues a transfer of n bytes. onDelivered (may be nil) runs when the
// last packet arrives at the far end.
func (l *Link) Send(n units.Bytes, onDelivered sim.Handler) {
	l.SendWith(n, nil, onDelivered)
}

// SendWith queues a transfer of n bytes, invoking onPacket(size) as each
// packet of at most PacketSize bytes arrives at the far end (so receivers can
// pipeline work behind the wire) and onDelivered once after the final packet.
// Either callback may be nil. Zero-byte sends deliver after just the
// propagation latency.
func (l *Link) SendWith(n units.Bytes, onPacket func(units.Bytes), onDelivered sim.Handler) {
	if n < 0 {
		panic("interconnect: negative send size")
	}
	now := l.eng.Now()
	if l.busyUntil < now {
		l.busyUntil = now
	}
	serializeStart := l.busyUntil
	l.sentBytes += n
	remaining := n
	for {
		pkt := remaining
		if pkt > l.cfg.PacketSize {
			pkt = l.cfg.PacketSize
		}
		l.busyUntil += l.cfg.LinkBandwidth.TransferTime(pkt)
		remaining -= pkt
		deliver := l.busyUntil + l.cfg.LinkLatency
		last := remaining == 0
		if onPacket != nil && pkt > 0 {
			size := pkt
			l.deliver(deliver, func() { onPacket(size) })
		}
		if last {
			if onDelivered != nil {
				l.deliver(deliver, onDelivered)
			}
			break
		}
	}
	l.busyTime += l.busyUntil - serializeStart
	l.chkSerial.Window(serializeStart, l.busyUntil)
	l.mSent.Add(int64(n))
	l.mBusy.Add(int64(l.busyUntil - serializeStart))
	if l.mtrack != nil && l.busyUntil > serializeStart {
		l.mtrack.Span("send", serializeStart, l.busyUntil)
	}
}

// AttachChecker registers the link's invariant witness under the given name
// (e.g. "fwd0"): serialization windows must never overlap. A nil checker
// detaches.
func (l *Link) AttachChecker(c *check.Checker, name string) {
	l.chkSerial = c.NonOverlap("interconnect." + name + ".serialize")
}

// BusyUntil returns the time at which the link's serializer frees up.
func (l *Link) BusyUntil() units.Time { return l.busyUntil }

// BusyTime returns the cumulative time the serializer has been occupied. In
// any simulation it is bounded above by the wall-clock span of the run — the
// bound the invariant checker asserts at end of run.
func (l *Link) BusyTime() units.Time { return l.busyTime }

// SentBytes returns the cumulative bytes accepted by the link.
func (l *Link) SentBytes() units.Bytes { return l.sentBytes }

// Config returns the link configuration.
func (l *Link) Config() Config { return l.cfg }
