package interconnect

import (
	"fmt"
	"testing"

	"t3sim/internal/sim"
	"t3sim/internal/units"
)

// clusterCfg is small enough that packetization exercises multiple packets
// per send without slowing the test.
func clusterCfg() Config {
	return Config{
		LinkBandwidth: 1 * units.GBps,
		LinkLatency:   500 * units.Nanosecond,
		PacketSize:    2 * units.KiB,
	}
}

// TestClusterLinkMatchesSharedEngineLink drives the same send schedule over
// a shared-engine link and over a cluster link, and requires identical
// packet and completion delivery times — the link model must not be able to
// tell whether its far end lives on another engine.
func TestClusterLinkMatchesSharedEngineLink(t *testing.T) {
	sends := []units.Bytes{0, 1, 2 * units.KiB, 5*units.KiB + 7, 64 * units.KiB}

	type delivery struct {
		at   units.Time
		size units.Bytes
		last bool
	}
	drive := func(eng *sim.Engine, farNow func() units.Time, l *Link) []delivery {
		var log []delivery
		for i, n := range sends {
			n := n
			eng.At(units.Time(i)*units.Microsecond, func() {
				l.SendWith(n,
					func(size units.Bytes) { log = append(log, delivery{farNow(), size, false}) },
					func() { log = append(log, delivery{farNow(), n, true}) })
			})
		}
		return log
	}

	shared := sim.NewEngine()
	sl, err := NewLink(shared, clusterCfg())
	if err != nil {
		t.Fatal(err)
	}
	wantLog := drive(shared, shared.Now, sl)
	shared.Run()

	for _, workers := range []int{1, 2} {
		cl := sim.NewCluster(2, clusterCfg().LinkLatency)
		ll, err := NewClusterLink(cl, 0, 1, clusterCfg())
		if err != nil {
			t.Fatal(err)
		}
		gotLog := drive(cl.Engine(0), cl.Engine(1).Now, ll)
		cl.Run(workers)
		if fmt.Sprint(gotLog) != fmt.Sprint(wantLog) {
			t.Errorf("workers=%d: cluster link deliveries diverged\n got: %v\nwant: %v",
				workers, gotLog, wantLog)
		}
		if sl.SentBytes() != ll.SentBytes() || sl.BusyTime() != ll.BusyTime() {
			t.Errorf("workers=%d: link accounting diverged: sent %v vs %v, busy %v vs %v",
				workers, ll.SentBytes(), sl.SentBytes(), ll.BusyTime(), sl.BusyTime())
		}
	}
}

func TestClusterLinkRejectsShortLatency(t *testing.T) {
	cl := sim.NewCluster(2, 500*units.Nanosecond)
	cfg := clusterCfg()
	cfg.LinkLatency = 499 * units.Nanosecond
	if _, err := NewClusterLink(cl, 0, 1, cfg); err == nil {
		t.Fatal("LinkLatency below the cluster lookahead was accepted")
	}
}

// TestClusterRingTopology pins that the cluster ring wires the same
// neighbor relation as the shared-engine ring and that every link rides its
// owner's engine.
func TestClusterRingTopology(t *testing.T) {
	const n = 4
	cl := sim.NewCluster(n, clusterCfg().LinkLatency)
	r, err := RingTopo(n, clusterCfg()).BuildCluster(cl)
	if err != nil {
		t.Fatal(err)
	}
	if r.Devices() != n {
		t.Fatalf("Devices = %d, want %d", r.Devices(), n)
	}
	for i := 0; i < n; i++ {
		fwd, bwd := r.Link(i, (i+1)%n), r.Link(i, (i-1+n)%n)
		if fwd == nil || bwd == nil {
			t.Fatalf("device %d missing a ring neighbor link", i)
		}
		if fwd.eng != cl.Engine(i) || bwd.eng != cl.Engine(i) {
			t.Errorf("device %d link serializes on a foreign engine", i)
		}
	}
}
