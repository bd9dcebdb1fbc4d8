package sim

import (
	"math/rand"
	"testing"

	"t3sim/internal/check"
	"t3sim/internal/units"
)

// ---------------------------------------------------------------------------
// Per-edge horizons and the posted-only drain on multi-link graphs
// ---------------------------------------------------------------------------

// torusTraffic drives a seeded pseudo-random workload over a rows×cols torus
// of links (4 outbound links per device, heterogeneous latencies)
// at the given worker count, returning the merged log and the run's stats.
// The log and every stat must be identical across worker counts.
func torusTraffic(t *testing.T, workers int, seed int64) (string, ClusterStats) {
	t.Helper()
	const rows, cols = 4, 4
	const devs = rows * cols
	chk := check.New()
	cl := NewCluster(devs, 10)
	cl.AttachChecker(chk)
	log := &ringLog{perDev: make([][]string, devs)}
	id := func(r, c int) int { return ((r+rows)%rows)*cols + (c+cols)%cols }
	// Four outbound links per device in E/W/S/N order, latency varying by
	// direction and device so horizons are genuinely per-edge.
	boxes := make([][]*Mailbox, devs)
	peers := make([][]int, devs)
	lats := make([][]units.Time, devs)
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			d := id(r, c)
			ns := []int{id(r, c+1), id(r, c-1), id(r+1, c), id(r-1, c)}
			for k, p := range ns {
				lat := units.Time(10 + 13*((d+k)%5))
				boxes[d] = append(boxes[d], cl.LinkMailbox(d, p, lat))
				peers[d] = append(peers[d], p)
				lats[d] = append(lats[d], lat)
			}
		}
	}
	rng := rand.New(rand.NewSource(seed))
	var burst func(dev, depth, dir int) Handler
	burst = func(dev, depth, dir int) Handler {
		eng := cl.Engine(dev)
		return func() {
			log.record(dev, eng.Now())
			if depth <= 0 {
				return
			}
			// Local follow-up inside the horizon…
			eng.After(units.Time(1+depth%7), func() { log.record(dev, eng.Now()) })
			// …then a send to one torus neighbour at exactly the link
			// latency plus deterministic jitter.
			k := (depth + dir) % 4
			boxes[dev][k].Post(eng.Now()+lats[dev][k]+units.Time(depth%11),
				burst(peers[dev][k], depth-1, dir))
		}
	}
	// A minority of devices start active so runnable sets stay sparse and
	// most mailboxes sit empty in any one round.
	for d := 0; d < devs; d += 3 {
		cl.Engine(d).At(units.Time(rng.Intn(25)), burst(d, 28, d%4))
	}
	cl.Run(workers)
	if !chk.Ok() {
		t.Fatalf("workers=%d: honest torus model flagged: %v", workers, chk.Violations())
	}
	return log.merged(), cl.Stats()
}

// starTraffic is the same probe over a hub-and-spoke graph with a 6× slower
// hub uplink on half the leaves — strongly asymmetric per-edge latencies.
func starTraffic(t *testing.T, workers int, seed int64) (string, ClusterStats) {
	t.Helper()
	const leaves = 9
	const devs = leaves + 1 // device 0 is the hub
	chk := check.New()
	cl := NewCluster(devs, 15)
	cl.AttachChecker(chk)
	log := &ringLog{perDev: make([][]string, devs)}
	down := make([]*Mailbox, devs) // hub -> leaf
	up := make([]*Mailbox, devs)   // leaf -> hub
	lat := make([]units.Time, devs)
	for l := 1; l < devs; l++ {
		lat[l] = units.Time(15)
		if l%2 == 0 {
			lat[l] = 90 // slow uplink: intra-window width must differ per edge
		}
		down[l] = cl.LinkMailbox(0, l, lat[l])
		up[l] = cl.LinkMailbox(l, 0, lat[l])
	}
	rng := rand.New(rand.NewSource(seed))
	var bounce func(leaf, depth int) Handler
	bounce = func(leaf, depth int) Handler {
		eng := cl.Engine(0)
		return func() {
			log.record(0, eng.Now())
			if depth <= 0 {
				return
			}
			next := 1 + (leaf+depth)%leaves
			down[next].Post(eng.Now()+lat[next], func() {
				le := cl.Engine(next)
				log.record(next, le.Now())
				le.After(units.Time(2+depth%5), func() {
					up[next].Post(le.Now()+lat[next]+units.Time(depth%7), bounce(next, depth-1))
				})
			})
		}
	}
	cl.Engine(0).At(units.Time(rng.Intn(10)), bounce(0, 40))
	cl.Run(workers)
	if !chk.Ok() {
		t.Fatalf("workers=%d: honest star model flagged: %v", workers, chk.Violations())
	}
	return log.merged(), cl.Stats()
}

// TestClusterAppointmentMatchesWindowed runs the torus and star probes —
// links with per-edge latencies — under the cluster's one sync
// protocol (per-round bounds plus the posted-only drain) at workers 1/2/4.
// Once a cross-protocol oracle, it now pins that the merged log and every
// ClusterStats field on these multi-link graphs are pure functions of the
// model, whatever the worker count.
func TestClusterAppointmentMatchesWindowed(t *testing.T) {
	probes := []struct {
		name string
		run  func(t *testing.T, workers int, seed int64) (string, ClusterStats)
	}{
		{"torus", torusTraffic},
		{"star", starTraffic},
	}
	for _, p := range probes {
		for seed := int64(1); seed <= 3; seed++ {
			wantLog, wantStats := p.run(t, 1, seed)
			if wantLog == "" {
				t.Fatalf("%s seed=%d: empty reference log", p.name, seed)
			}
			if wantStats.Windows == 0 {
				t.Fatalf("%s seed=%d: reference run recorded no windows: %+v", p.name, seed, wantStats)
			}
			for _, workers := range []int{1, 2, 4} {
				gotLog, gotStats := p.run(t, workers, seed)
				if gotLog != wantLog {
					t.Errorf("%s seed=%d workers=%d: log diverged from workers=1", p.name, seed, workers)
				}
				if gotStats != wantStats {
					t.Errorf("%s seed=%d workers=%d: stats diverged\n got: %+v\nwant: %+v",
						p.name, seed, workers, gotStats, wantStats)
				}
			}
		}
	}
}

// TestClusterPromiseLawViolationDetected proves the per-link law stays
// falsifiable, and as strict, under the posted-only drain. The receiver's
// horizon trusted the link's bound B_0 + 100, so a post at 5 from the first
// round (which starts at 0) must be flagged on the link rule. So must a post
// at 305 from the round that runs engine 0's event at 300: the window start
// is the sender's clock when that round began, not the start of the run.
func TestClusterPromiseLawViolationDetected(t *testing.T) {
	chk := check.New()
	cl := NewCluster(2, 10)
	cl.AttachChecker(chk)
	box := cl.LinkMailbox(0, 1, 100)
	cl.LinkMailbox(1, 0, 100) // bounds engine 0, so its clock advances round by round
	// Both engines tick until 400, so both run in every round.
	for d := 0; d < 2; d++ {
		eng := cl.Engine(d)
		var tick Handler
		tick = func() {
			if eng.Now() < 400 {
				eng.After(4, tick)
			}
		}
		eng.At(0, tick)
	}
	eng0 := cl.Engine(0)
	eng0.At(0, func() { box.Post(5, func() {}) })
	eng0.At(300, func() { box.Post(305, func() {}) })
	cl.Run(1)
	flagged := map[units.Time]bool{}
	for _, v := range chk.Violations() {
		if v.Rule == "ordering/link-lookahead" {
			flagged[v.At] = true
		}
	}
	for _, at := range []units.Time{5, 305} {
		if !flagged[at] {
			t.Errorf("per-link violation of the delivery at %v not detected; violations: %v", at, chk.Violations())
		}
	}
}

// TestClusterEdgeStalls sanity-checks the stall accounting: on a two-device
// chain where the receiver is persistently blocked on its single slow
// inbound link, ClusterStats records blocked engine-rounds and stall time.
func TestClusterEdgeStalls(t *testing.T) {
	cl := NewCluster(2, 10)
	box := cl.LinkMailbox(0, 1, 50)
	eng0 := cl.Engine(0)
	n := 20
	var drive Handler
	drive = func() {
		box.Post(eng0.Now()+50, func() {})
		if n--; n > 0 {
			eng0.After(60, drive)
		}
	}
	eng0.At(0, drive)
	// Engine 1 has distant local work, so it repeatedly blocks on the
	// 0->1 link's bound before its own next event.
	cl.Engine(1).At(100000, func() {})
	cl.Run(1)
	st := cl.Stats()
	if st.StalledEngineWindows == 0 || st.StallTime == 0 {
		t.Fatalf("no stalls recorded: %+v", st)
	}
}

// TestClusterAppointmentStress hammers the posted-only drain under maximal
// worker counts: a torus where activity migrates between sparse device
// subsets, so the set of posted-to mailboxes changes every round and most
// boxes are skipped. Under -race this is the stress test for the per-source
// posted lists; determinism against workers 1 rides along.
func TestClusterAppointmentStress(t *testing.T) {
	wantLog, wantStats := torusTraffic(t, 1, 99)
	for _, workers := range []int{8, 16} {
		gotLog, gotStats := torusTraffic(t, workers, 99)
		if gotLog != wantLog {
			t.Errorf("workers=%d: log diverged under stress", workers)
		}
		if gotStats != wantStats {
			t.Errorf("workers=%d: stats diverged under stress\n got: %+v\nwant: %+v", workers, gotStats, wantStats)
		}
	}
}
