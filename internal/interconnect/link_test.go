package interconnect

import (
	"testing"

	"t3sim/internal/sim"
	"t3sim/internal/units"
)

func testCfg() Config {
	return Config{
		LinkBandwidth: 1 * units.GBps, // 1 byte/ns
		LinkLatency:   500 * units.Nanosecond,
		PacketSize:    1 * units.KiB,
	}
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Errorf("DefaultConfig invalid: %v", err)
	}
	bad := []Config{
		{LinkBandwidth: 0, LinkLatency: 1, PacketSize: 1},
		{LinkBandwidth: 1, LinkLatency: -1, PacketSize: 1},
		{LinkBandwidth: 1, LinkLatency: 1, PacketSize: 0},
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
	eng := sim.NewEngine()
	if _, err := NewLink(eng, bad[0]); err == nil {
		t.Error("NewLink with bad config: expected error")
	}
}

func TestSendSerializationPlusLatency(t *testing.T) {
	eng := sim.NewEngine()
	l, err := NewLink(eng, testCfg())
	if err != nil {
		t.Fatal(err)
	}
	var done units.Time
	l.Send(10*units.KiB, func() { done = eng.Now() })
	eng.Run()
	// 10 KiB at 1 B/ns = 10240 ns serialization + 500 ns latency.
	want := units.Time(10240+500) * units.Nanosecond
	if done != want {
		t.Errorf("delivered at %v, want %v", done, want)
	}
	if l.SentBytes() != 10*units.KiB {
		t.Errorf("SentBytes = %v", l.SentBytes())
	}
}

func TestBackToBackSendsSerialize(t *testing.T) {
	eng := sim.NewEngine()
	l, _ := NewLink(eng, testCfg())
	var d1, d2 units.Time
	l.Send(1*units.KiB, func() { d1 = eng.Now() })
	l.Send(1*units.KiB, func() { d2 = eng.Now() })
	eng.Run()
	// Second send waits for the first's serialization but the propagation
	// latency pipelines: d2 = 2*1024ns + 500ns.
	if d1 != (1024+500)*units.Nanosecond {
		t.Errorf("d1 = %v", d1)
	}
	if d2 != (2048+500)*units.Nanosecond {
		t.Errorf("d2 = %v, want 2548ns", d2)
	}
}

func TestSendWithPacketCallbacks(t *testing.T) {
	eng := sim.NewEngine()
	l, _ := NewLink(eng, testCfg())
	var pkts []units.Bytes
	var firstAt, lastAt units.Time
	l.SendWith(2560, func(n units.Bytes) {
		if firstAt == 0 {
			firstAt = eng.Now()
		}
		lastAt = eng.Now()
		pkts = append(pkts, n)
	}, nil)
	eng.Run()
	if len(pkts) != 3 || pkts[0] != 1024 || pkts[1] != 1024 || pkts[2] != 512 {
		t.Errorf("packets = %v, want [1024 1024 512]", pkts)
	}
	// First packet arrives after its own serialization + latency, well before
	// the full message would.
	if firstAt != (1024+500)*units.Nanosecond {
		t.Errorf("first packet at %v", firstAt)
	}
	if lastAt != (2560+500)*units.Nanosecond {
		t.Errorf("last packet at %v", lastAt)
	}
}

func TestZeroByteSend(t *testing.T) {
	eng := sim.NewEngine()
	l, _ := NewLink(eng, testCfg())
	var done units.Time
	called := 0
	l.SendWith(0, func(units.Bytes) { called++ }, func() { done = eng.Now() })
	eng.Run()
	if done != 500*units.Nanosecond {
		t.Errorf("zero-byte delivered at %v, want 500ns", done)
	}
	if called != 0 {
		t.Errorf("onPacket called %d times for zero bytes", called)
	}
}

func TestNegativeSendPanics(t *testing.T) {
	eng := sim.NewEngine()
	l, _ := NewLink(eng, testCfg())
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	l.Send(-1, nil)
}

func TestRingTopology(t *testing.T) {
	eng := sim.NewEngine()
	r, err := RingTopo(4, testCfg()).Build(eng)
	if err != nil {
		t.Fatal(err)
	}
	if r.Devices() != 4 {
		t.Errorf("Devices = %d", r.Devices())
	}
	for i := 0; i < 4; i++ {
		if r.NextHop(i, (i+1)%4) != (i+1)%4 || r.NextHop(i, (i+3)%4) != (i+3)%4 {
			t.Errorf("device %d is not adjacent to both ring neighbors", i)
		}
	}
	seen := map[*Link]bool{}
	for i := 0; i < 4; i++ {
		for _, l := range []*Link{r.Link(i, (i+1)%4), r.Link(i, (i+3)%4)} {
			if l == nil {
				t.Fatalf("nil link at %d", i)
			}
			if seen[l] {
				t.Fatalf("link %d shared between devices", i)
			}
			seen[l] = true
		}
	}
	if r.NumLinks() != len(seen) {
		t.Errorf("NumLinks = %d, want %d", r.NumLinks(), len(seen))
	}
}

func TestRingErrors(t *testing.T) {
	eng := sim.NewEngine()
	if _, err := RingTopo(1, testCfg()).Build(eng); err == nil {
		t.Error("1-device ring: expected error")
	}
	if _, err := RingTopo(4, Config{}).Build(eng); err == nil {
		t.Error("invalid config: expected error")
	}
}

func TestRingBandwidthIndependence(t *testing.T) {
	// Traffic on different devices' links does not serialize against each
	// other: all four forward links can deliver at the same time.
	eng := sim.NewEngine()
	r, err := RingTopo(4, testCfg()).Build(eng)
	if err != nil {
		t.Fatal(err)
	}
	var times []units.Time
	for i := 0; i < 4; i++ {
		r.Link(i, (i+1)%4).Send(1*units.KiB, func() { times = append(times, eng.Now()) })
	}
	eng.Run()
	for _, tm := range times {
		if tm != (1024+500)*units.Nanosecond {
			t.Errorf("delivery at %v, want 1524ns", tm)
		}
	}
	if len(times) != 4 {
		t.Errorf("%d deliveries, want 4", len(times))
	}
}
