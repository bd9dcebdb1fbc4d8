package sim

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"t3sim/internal/check"
	"t3sim/internal/units"
)

func TestRunBefore(t *testing.T) {
	e := NewEngine()
	ran := 0
	e.At(10, func() { ran++ })
	e.At(19, func() {
		ran++
		// Scheduled inside the window while draining: must still run.
		e.At(19, func() { ran++ })
	})
	e.At(20, func() { ran++ }) // exactly at the deadline: must NOT run
	e.At(30, func() { ran++ })
	end := e.RunBefore(20)
	if end != 20 || e.Now() != 20 {
		t.Errorf("Now = %v, want 20", e.Now())
	}
	if ran != 3 {
		t.Errorf("ran %d events before the deadline, want 3", ran)
	}
	if e.Pending() != 2 {
		t.Errorf("Pending = %d, want 2", e.Pending())
	}
	// Clock advances to the deadline even when the queue drains early.
	e2 := NewEngine()
	if got := e2.RunBefore(55); got != 55 {
		t.Errorf("empty-queue RunBefore = %v, want 55", got)
	}
}

func TestRunBeforePastDeadlinePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("RunBefore in the past did not panic")
		}
	}()
	e := NewEngine()
	e.At(5, func() {})
	e.RunBefore(10)
	e.RunBefore(3)
}

func TestNextAt(t *testing.T) {
	e := NewEngine()
	if _, ok := e.NextAt(); ok {
		t.Error("NextAt on empty queue reported an event")
	}
	e.At(30, func() {})
	e.At(10, func() {})
	if at, ok := e.NextAt(); !ok || at != 10 {
		t.Errorf("NextAt = %v,%v, want 10,true", at, ok)
	}
}

// ringModel builds the same token-passing ring either on one shared engine
// (the sequential reference) or across a cluster's per-device engines: each
// device holds the token for holdTime, then forwards it to the next device
// with linkLat delay, for a fixed number of laps. Every hop appends
// "(device,time)" to a per-device log; the merged log must be identical
// however the model is executed.
type ringLog struct {
	perDev [][]string
}

func (l *ringLog) record(dev int, at units.Time) {
	l.perDev[dev] = append(l.perDev[dev], fmt.Sprintf("d%d@%v", dev, at))
}

func (l *ringLog) merged() string {
	var all []string
	for _, d := range l.perDev {
		all = append(all, d...)
	}
	return strings.Join(all, " ")
}

const (
	ringDevs    = 4
	ringLinkLat = units.Time(35)
	ringHold    = units.Time(12)
	ringLaps    = 50
)

func ringReference() string {
	e := NewEngine()
	log := &ringLog{perDev: make([][]string, ringDevs)}
	hops := ringDevs * ringLaps
	var arrive func(dev, hop int) Handler
	arrive = func(dev, hop int) Handler {
		return func() {
			log.record(dev, e.Now())
			if hop >= hops {
				return
			}
			next := (dev + 1) % ringDevs
			e.At(e.Now()+ringHold+ringLinkLat, arrive(next, hop+1))
		}
	}
	e.At(0, arrive(0, 0))
	e.Run()
	return log.merged()
}

func ringOnCluster(t *testing.T, workers int, chk *check.Checker) string {
	t.Helper()
	cl := NewCluster(ringDevs, ringLinkLat)
	cl.AttachChecker(chk)
	log := &ringLog{perDev: make([][]string, ringDevs)}
	// One mailbox per forward link, registered in device order.
	boxes := make([]*Mailbox, ringDevs)
	for d := 0; d < ringDevs; d++ {
		boxes[d] = cl.LinkMailbox(d, (d+1)%ringDevs, ringLinkLat)
	}
	hops := ringDevs * ringLaps
	var arrive func(dev, hop int) Handler
	arrive = func(dev, hop int) Handler {
		eng := cl.Engine(dev)
		return func() {
			log.record(dev, eng.Now())
			if hop >= hops {
				return
			}
			next := (dev + 1) % ringDevs
			boxes[dev].Post(eng.Now()+ringHold+ringLinkLat, arrive(next, hop+1))
		}
	}
	cl.Engine(0).At(0, arrive(0, 0))
	cl.Run(workers)
	return log.merged()
}

func TestClusterMatchesSequentialReference(t *testing.T) {
	want := ringReference()
	for _, workers := range []int{0, 1, 2, ringDevs, ringDevs + 3} {
		chk := check.New()
		got := ringOnCluster(t, workers, chk)
		if got != want {
			t.Errorf("workers=%d: cluster log diverged from sequential reference\n got: %s\nwant: %s",
				workers, got, want)
		}
		if !chk.Ok() {
			t.Errorf("workers=%d: violations: %v", workers, chk.Violations())
		}
	}
}

// randomTraffic drives a cluster with a seeded pseudo-random workload —
// bursts of local events plus cross-device sends at and above the lookahead
// — and returns the merged log. The same seed must produce the same log at
// every worker count.
func randomTraffic(workers int, seed int64) string {
	const devs = 6
	const lookahead = units.Time(20)
	cl := NewCluster(devs, lookahead)
	log := &ringLog{perDev: make([][]string, devs)}
	boxes := make([]*Mailbox, devs)
	for d := 0; d < devs; d++ {
		boxes[d] = cl.LinkMailbox(d, (d+1)%devs, lookahead)
	}
	rng := rand.New(rand.NewSource(seed))
	var burst func(dev, depth int) Handler
	burst = func(dev, depth int) Handler {
		eng := cl.Engine(dev)
		return func() {
			log.record(dev, eng.Now())
			if depth <= 0 {
				return
			}
			// Local follow-up inside the window…
			eng.After(units.Time(1+depth%7), func() { log.record(dev, eng.Now()) })
			// …and a cross-device send at exactly the lookahead bound
			// (the tightest legal delivery) or beyond.
			boxes[dev].Post(eng.Now()+lookahead+units.Time(depth%13), burst((dev+1)%devs, depth-1))
		}
	}
	for d := 0; d < devs; d++ {
		cl.Engine(d).At(units.Time(rng.Intn(40)), burst(d, 25))
	}
	cl.Run(workers)
	return log.merged()
}

func TestClusterDeterministicAcrossWorkers(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		want := randomTraffic(1, seed)
		for _, workers := range []int{2, 3, 6} {
			if got := randomTraffic(workers, seed); got != want {
				t.Errorf("seed=%d workers=%d: log diverged from workers=1\n got: %s\nwant: %s",
					seed, workers, got, want)
			}
		}
	}
}

// TestClusterLookaheadViolationDetected proves the cluster lookahead is
// only a floor, not a delivery guarantee: a post that clears the cluster
// lookahead but undercuts its own link's registered latency must still be
// flagged, because the receiving engine's horizon trusted the link.
func TestClusterLookaheadViolationDetected(t *testing.T) {
	chk := check.New()
	cl := NewCluster(2, 10)
	cl.AttachChecker(chk)
	box := cl.LinkMailbox(0, 1, 50)
	cl.Engine(1).At(0, func() {}) // pull engine 1 into the first window
	cl.Engine(0).At(5, func() {
		box.Post(25, func() {}) // 25 >= 5 + lookahead, but 25 < 0 + 50
	})
	cl.Run(2)
	found := false
	for _, v := range chk.Violations() {
		if v.Rule == "ordering/link-lookahead" {
			found = true
		}
	}
	if !found {
		t.Fatalf("lookahead violation not detected; violations: %v", chk.Violations())
	}
}

// TestClusterStress hammers the window barrier and mailboxes with many
// engines, few events per window, and maximal worker count — the worst case
// for the coordinator. Run under -race this is the synchronization-layer
// stress test; the determinism assertion rides along for free.
func TestClusterStress(t *testing.T) {
	const devs = 16
	run := func(workers int) string {
		cl := NewCluster(devs, 5)
		log := &ringLog{perDev: make([][]string, devs)}
		boxes := make([]*Mailbox, devs)
		for d := 0; d < devs; d++ {
			boxes[d] = cl.LinkMailbox(d, (d+1)%devs, 5)
		}
		var hop func(dev, n int) Handler
		hop = func(dev, n int) Handler {
			eng := cl.Engine(dev)
			return func() {
				log.record(dev, eng.Now())
				if n <= 0 {
					return
				}
				boxes[dev].Post(eng.Now()+5, hop((dev+1)%devs, n-1))
			}
		}
		for d := 0; d < devs; d++ {
			cl.Engine(d).At(units.Time(d), hop(d, 400))
		}
		cl.Run(workers)
		return log.merged()
	}
	want := run(1)
	for _, workers := range []int{2, 8, devs} {
		if got := run(workers); got != want {
			t.Errorf("workers=%d diverged under stress", workers)
		}
	}
}

// TestClusterWindowLoopAllocs pins the serial window loop's steady-state
// allocation behaviour: draining W windows of pre-scheduled events must not
// allocate per event (the engine dispatch loop stays 0 allocs/event; the
// only allowed allocations are the one-time cluster setup and log growth,
// excluded here by scheduling no-op handlers).
func TestClusterWindowLoopAllocs(t *testing.T) {
	const devs = 4
	const events = 2048
	fn := Handler(func() {})
	cl := NewCluster(devs, 10)
	// Warm-up: grow every calendar's backing array once.
	seed := func() {
		for d := 0; d < devs; d++ {
			eng := cl.Engine(d)
			base := eng.Now()
			for j := 0; j < events; j++ {
				eng.At(base+benchSpread(j), fn)
			}
		}
	}
	seed()
	cl.Run(1)
	allocs := testing.AllocsPerRun(10, func() {
		seed()
		cl.Run(1)
	})
	// Budget: a handful of allocations per whole run (not per event) —
	// slack for the testing harness, none for the dispatch loop.
	if perEvent := allocs / (devs * events); perEvent > 0.01 {
		t.Errorf("window loop allocates %.3f allocs/event (%.0f per run), want ~0", perEvent, allocs)
	}
}

// ---------------------------------------------------------------------------
// Dynamic per-device lookahead
// ---------------------------------------------------------------------------

// linkRing wires devs engines into a ring of LinkMailboxes with
// per-link latencies lat[d] (link d goes d -> (d+1)%devs), runs a token
// workload where every hop uses its own link's latency, and returns the
// merged log.
func linkRing(workers int, lats []units.Time, lookahead units.Time, hops int) string {
	devs := len(lats)
	cl := NewCluster(devs, lookahead)
	log := &ringLog{perDev: make([][]string, devs)}
	boxes := make([]*Mailbox, devs)
	for d := 0; d < devs; d++ {
		boxes[d] = cl.LinkMailbox(d, (d+1)%devs, lats[d])
	}
	var arrive func(dev, hop int) Handler
	arrive = func(dev, hop int) Handler {
		eng := cl.Engine(dev)
		return func() {
			log.record(dev, eng.Now())
			if hop >= hops {
				return
			}
			// Local work, then a send at exactly this link's latency — the
			// tightest delivery the per-link law admits.
			eng.After(3, func() { log.record(dev, eng.Now()) })
			boxes[dev].Post(eng.Now()+lats[dev], arrive((dev+1)%devs, hop+1))
		}
	}
	cl.Engine(0).At(0, arrive(0, 0))
	for d := 1; d < devs; d++ {
		// Background local-only churn so engines have heterogeneous bases.
		eng := cl.Engine(d)
		var tick func()
		n := 40 + 7*d
		tick = func() {
			log.record(d, eng.Now())
			if n--; n > 0 {
				eng.After(units.Time(5+d), tick)
			}
		}
		eng.At(units.Time(d), tick)
	}
	cl.Run(workers)
	return log.merged()
}

// TestClusterPerLinkHorizonsDeterministic drives a ring with strongly
// heterogeneous link latencies — where per-device horizons differ sharply
// from the global window — and requires the merged log to be identical at
// every worker count.
func TestClusterPerLinkHorizonsDeterministic(t *testing.T) {
	lats := []units.Time{20, 500, 45, 1000, 20, 170}
	want := linkRing(1, lats, 20, 120)
	if want == "" {
		t.Fatal("empty log from reference run")
	}
	for _, workers := range []int{2, 3, len(lats)} {
		if got := linkRing(workers, lats, 20, 120); got != want {
			t.Errorf("workers=%d: log diverged on heterogeneous-latency ring\n got: %s\nwant: %s",
				workers, got, want)
		}
	}
}

// TestClusterPerDeviceHorizonRunsAhead pins the point of dynamic lookahead:
// on a two-device topology where device 1's only inbound link is very slow,
// device 1 must advance far past the legacy global window (earliest event +
// cluster lookahead) in a single round. We detect that via the scheduler's
// own statistics: the whole run must need only a handful of rounds, where
// the global-window coordinator needed hundreds.
func TestClusterPerDeviceHorizonRunsAhead(t *testing.T) {
	const slowLat = units.Time(10000)
	const lookahead = units.Time(10)
	cl := NewCluster(2, lookahead)
	box := cl.LinkMailbox(0, 1, slowLat)
	// Device 1: a long chain of local events, 1 time unit apart.
	eng1 := cl.Engine(1)
	n := 5000
	var tick Handler
	tick = func() {
		if n--; n > 0 {
			eng1.After(1, tick)
		}
	}
	eng1.At(0, tick)
	// Device 0: periodic sends over the slow link.
	eng0 := cl.Engine(0)
	for i := 0; i < 5; i++ {
		at := units.Time(i * 100)
		eng0.At(at, func() { box.Post(eng0.Now()+slowLat, func() {}) })
	}
	cl.Run(1)
	st := cl.Stats()
	if st.Windows > 20 {
		t.Errorf("per-device horizons took %d rounds; a global window would need ~500, dynamic lookahead should need <20", st.Windows)
	}
	if st.AvgWindowWidth() < lookahead {
		t.Errorf("average window width %v below the global lookahead %v", st.AvgWindowWidth(), lookahead)
	}
}

// TestClusterLinkLawViolationDetected proves the per-link law is
// falsifiable: a model that posts a delivery closer than its link's
// registered latency must be flagged on the link's own rule, because the
// destination's horizon was computed trusting that latency.
func TestClusterLinkLawViolationDetected(t *testing.T) {
	chk := check.New()
	cl := NewCluster(2, 10)
	cl.AttachChecker(chk)
	box := cl.LinkMailbox(0, 1, 10)
	cl.Engine(1).At(0, func() {}) // pull engine 1 into the first round
	cl.Engine(0).At(5, func() {
		box.Post(6, func() {}) // lies about the link latency: 6 < window start 0 + 10
	})
	cl.Run(2)
	found := false
	for _, v := range chk.Violations() {
		if v.Rule == "ordering/link-lookahead" {
			found = true
		}
	}
	if !found {
		t.Fatalf("per-link lookahead violation not detected; violations: %v", chk.Violations())
	}
}

// TestClusterLinkLawHonestModelClean is the property-test counterpart: a
// seeded random workload that always posts at or above each link's latency
// must produce zero violations and a worker-count-independent log, even with
// per-link latencies far above the cluster lookahead.
func TestClusterLinkLawHonestModelClean(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		run := func(workers int) (string, *check.Checker) {
			const devs = 5
			lats := []units.Time{20, 60, 20, 200, 35}
			chk := check.New()
			cl := NewCluster(devs, 20)
			cl.AttachChecker(chk)
			log := &ringLog{perDev: make([][]string, devs)}
			boxes := make([]*Mailbox, devs)
			for d := 0; d < devs; d++ {
				boxes[d] = cl.LinkMailbox(d, (d+1)%devs, lats[d])
			}
			rng := rand.New(rand.NewSource(seed))
			var burst func(dev, depth int) Handler
			burst = func(dev, depth int) Handler {
				eng := cl.Engine(dev)
				return func() {
					log.record(dev, eng.Now())
					if depth <= 0 {
						return
					}
					eng.After(units.Time(1+depth%5), func() { log.record(dev, eng.Now()) })
					boxes[dev].Post(eng.Now()+lats[dev]+units.Time(depth%17), burst((dev+1)%devs, depth-1))
				}
			}
			for d := 0; d < devs; d++ {
				cl.Engine(d).At(units.Time(rng.Intn(30)), burst(d, 30))
			}
			cl.Run(workers)
			return log.merged(), chk
		}
		want, chk := run(1)
		if !chk.Ok() {
			t.Fatalf("seed=%d: honest model flagged: %v", seed, chk.Violations())
		}
		for _, workers := range []int{2, 5} {
			got, chk := run(workers)
			if got != want {
				t.Errorf("seed=%d workers=%d: log diverged", seed, workers)
			}
			if !chk.Ok() {
				t.Errorf("seed=%d workers=%d: honest model flagged: %v", seed, workers, chk.Violations())
			}
		}
	}
}

// TestClusterDrainAllocs pins the coordination layer's steady-state
// allocation behaviour with live cross-engine mail: after warm-up, rounds of
// drain + horizon computation + dispatch must not allocate — mailbox backing
// arrays, the posted-box lists, the Dijkstra heap, the runnable set and the
// dirty list are all reused.
func TestClusterDrainAllocs(t *testing.T) {
	const devs = 8
	const hopsPerDev = 64
	cl := NewCluster(devs, 10)
	boxes := make([]*Mailbox, devs)
	for d := 0; d < devs; d++ {
		boxes[d] = cl.LinkMailbox(d, (d+1)%devs, 10)
	}
	// Handlers are preallocated once: each device forwards a fixed number of
	// tokens, re-arming itself across runs via the counts array.
	counts := make([]int, devs)
	handlers := make([]Handler, devs)
	for d := 0; d < devs; d++ {
		d := d
		eng := cl.Engine(d)
		handlers[d] = func() {
			if counts[d]--; counts[d] > 0 {
				boxes[d].Post(eng.Now()+10, handlers[(d+1)%devs])
			}
		}
	}
	// Seeding at a common base time makes every run an exact time-translate
	// of the previous one, so the steady state really is steady: identical
	// window structure, identical high-water marks, zero growth.
	seed := func() {
		var t0 units.Time
		for d := 0; d < devs; d++ {
			if now := cl.Engine(d).Now(); now > t0 {
				t0 = now
			}
		}
		for d := 0; d < devs; d++ {
			counts[d] = hopsPerDev
			cl.Engine(d).At(t0+units.Time(d+1), handlers[d])
		}
	}
	seed()
	cl.Run(1) // warm-up: grow every backing array once
	allocs := testing.AllocsPerRun(10, func() {
		seed()
		cl.Run(1)
	})
	if allocs > 0.5 {
		t.Errorf("steady-state window loop allocates %.2f allocs/run, want 0", allocs)
	}
}

// TestClusterPersistentWorkersStress hammers the condition-variable worker
// pool: many engines, many rounds, sparse runnable sets (so the wake clamp
// exercises partial signals), across repeated Runs reusing the pool state.
// Under -race this is the synchronization stress for the persistent-worker
// redesign; determinism rides along.
func TestClusterPersistentWorkersStress(t *testing.T) {
	const devs = 32
	run := func(workers int) string {
		cl := NewCluster(devs, 5)
		log := &ringLog{perDev: make([][]string, devs)}
		boxes := make([]*Mailbox, devs)
		for d := 0; d < devs; d++ {
			boxes[d] = cl.LinkMailbox(d, (d+3)%devs, units.Time(5+3*(d%4)))
		}
		var hop func(dev, n int) Handler
		hop = func(dev, n int) Handler {
			eng := cl.Engine(dev)
			return func() {
				log.record(dev, eng.Now())
				if n <= 0 {
					return
				}
				boxes[dev].Post(eng.Now()+units.Time(5+3*(dev%4)), hop((dev+3)%devs, n-1))
			}
		}
		// Only a few devices are active at a time: runnable sets stay small.
		for d := 0; d < devs; d += 11 {
			cl.Engine(d).At(units.Time(d), hop(d, 300))
		}
		cl.Run(workers)
		return log.merged()
	}
	want := run(1)
	for _, workers := range []int{2, 7, 16, devs} {
		if got := run(workers); got != want {
			t.Errorf("workers=%d diverged under persistent-worker stress", workers)
		}
	}
}
