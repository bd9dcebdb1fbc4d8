package sim

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"

	"t3sim/internal/check"
	"t3sim/internal/units"
)

// never is the +infinity timestamp: the base time of an engine with an empty
// calendar, and the horizon of an engine no pending event can ever reach.
const never = units.Time(math.MaxInt64)

// Cluster coordinates one private Engine per device and advances them in
// bounded rounds — conservative (Chandy–Misra-style) parallel DES.
//
// Dynamic per-device lookahead. Each round the coordinator computes, for
// every engine j, a lower bound B_j on the earliest time j can execute
// anything from the current state:
//
//	B_j = min( base_j, min over links s→j of (B_s + latency(s→j)) )
//
// where base_j is j's earliest pending event (never, if idle). This is a
// shortest-path relaxation over the link graph, and it must be transitive: a
// device whose direct neighbors are idle can still be reached by a pending
// event two hops away. Engine i may then execute every event strictly before
// its horizon
//
//	H_i = min over links s→i of (B_s + latency(s→i))
//
// because any message a neighbor can still send departs no earlier than B_s
// and travels at least the link latency. A device whose neighbors are far in
// the future runs many global windows' worth of events in one round without
// synchronizing; a device with no inbound link at all (H = never) runs to
// completion. Every bound and horizon is re-derived from scratch each round by one
// multi-source Dijkstra over the link graph (computeWindows).
//
// Progress: an engine holding the globally earliest event m is always
// runnable, because every B is at least m and every link latency is positive,
// so its horizon strictly exceeds m. Safety across rounds: H_i never
// decreases (bases only move forward between rounds), so RunBefore deadlines
// are monotone per engine.
//
// Determinism: cross-engine sends go through Mailboxes instead of Engine.At;
// the coordinator drains mailboxes at each round boundary — single-threaded,
// in mailbox registration order, (time, senderSeq)-sorted within a mailbox —
// so delivery order is a pure function of the model, never of goroutine
// scheduling or worker count. Only mailboxes posted to since the last drain
// are visited: empty ones cannot change what is delivered, and the drained
// subset is itself ordered by registration index. Engines remain strictly
// single-goroutine: within a round each runnable engine is driven by exactly
// one worker, and between rounds only the coordinator touches them.
type Cluster struct {
	lookahead units.Time
	engines   []*Engine
	boxes     []*Mailbox
	chk       *check.Checker // retained so late-registered mailboxes get link handles

	// Link topology, rebuilt lazily from boxes when Run starts. Each
	// mailbox is one directed edge.
	builtBoxes int
	in         [][]edge // per-engine inbound links (peer = source)
	out        [][]edge // per-engine outbound links (peer = destination)

	// Per-round scratch, sized once and reused so steady-state rounds are
	// allocation-free.
	base     []units.Time // earliest pending event per engine (never = idle)
	baseTree minTree      // batched min reduction over base
	dirty    []bool       // base[i] may be stale (engine ran or received mail)
	dirtyIdx []int32
	bound    []units.Time // B_j of the current round
	horizons []units.Time // H_i of the current round
	heap     djHeap       // Dijkstra worklist
	runnable []int32      // engines with base < horizon this round
	// prevNow is each engine's clock at the start of the last round it ran:
	// the window-width baseline, and the earliest send time of anything it
	// posted in that round (the per-link law's window start).
	prevNow []units.Time

	// Posted-mailbox tracking: per source engine, the boxes it posted to
	// since the last drain — single-writer per slice, read by the
	// coordinator after the round barrier.
	postedBy   [][]int32
	drainList  []int32
	firstDrain bool

	// Stall accounting: engines pending but not runnable.
	blockedMark []bool
	blockedPos  []int32
	blockedList []int32

	stats ClusterStats

	// Engine-affine workers (workers > 1): worker w owns the engine block
	// [owner[w], owner[w+1]) for the whole Run. Each round the coordinator
	// hands w its slice of the runnable set on wake[w] and collects one
	// token per woken worker from done.
	owner []int32
	share [][]int32
	wake  []chan struct{}
	done  chan struct{}
}

// edge is one link endpoint adjacency entry.
type edge struct {
	peer int32
	lat  units.Time
}

// ClusterStats summarizes one Run's windowing behaviour: how many rounds the
// coordinator drove, how many engine-window executions those rounds issued
// (skipped engines don't count), and the total simulated time those
// executions covered. AvgWindowWidth is the lookahead-quality metric tracked
// across PRs: wider windows mean less synchronization per simulated second.
// Every field is identical across worker counts.
type ClusterStats struct {
	Windows       uint64     // coordinator rounds
	EngineWindows uint64     // per-engine window executions across all rounds
	Advance       units.Time // total simulated time advanced, summed over engines
	// StalledEngineWindows counts engine-rounds spent blocked: an engine
	// with pending events whose horizon had not yet passed its next event.
	StalledEngineWindows uint64
	// StallTime sums, over those blocked engine-rounds, the gap between the
	// engine's next pending event and the horizon its limiting inbound edge
	// admitted. A ranking metric for how hard synchronization gated
	// progress — not an additive wall-clock quantity.
	StallTime units.Time
}

// AvgWindowWidth returns the mean simulated time one engine advanced per
// window execution, or 0 for an empty run.
func (s ClusterStats) AvgWindowWidth() units.Time {
	if s.EngineWindows == 0 {
		return 0
	}
	return s.Advance / units.Time(s.EngineWindows)
}

// NewCluster returns a coordinator owning n fresh engines. The lookahead is
// the floor every link latency must cover, and must be positive — a
// zero-latency link admits no conservative window, so callers with
// LinkLatency == 0 must run on a single engine or reject the configuration.
func NewCluster(n int, lookahead units.Time) *Cluster {
	if n < 1 {
		panic(fmt.Sprintf("sim: cluster of %d engines", n))
	}
	if lookahead <= 0 {
		panic(fmt.Sprintf("sim: non-positive lookahead %v", lookahead))
	}
	c := &Cluster{lookahead: lookahead, engines: make([]*Engine, n)}
	for i := range c.engines {
		c.engines[i] = NewEngine()
	}
	return c
}

// Engines returns the per-device engines, indexed by device.
func (c *Cluster) Engines() []*Engine { return c.engines }

// Engine returns the engine owned by device i.
func (c *Cluster) Engine(i int) *Engine { return c.engines[i] }

// Lookahead returns the cluster-wide minimum lookahead: the floor for every
// link latency.
func (c *Cluster) Lookahead() units.Time { return c.lookahead }

// Stats returns the windowing statistics accumulated by Run so far.
func (c *Cluster) Stats() ClusterStats { return c.stats }

// AttachChecker arms every engine's monotonicity witness plus every link's
// lookahead law. A nil checker detaches.
func (c *Cluster) AttachChecker(chk *check.Checker) {
	c.chk = chk
	for _, e := range c.engines {
		e.AttachChecker(chk)
	}
	for _, b := range c.boxes {
		b.la = chk.Lookahead(fmt.Sprintf("sim.cluster.link%d-%d", b.src, b.dstIdx))
	}
}

// mail is one cross-engine message: a handler to run on the destination
// engine at an absolute time, stamped with the sender's per-mailbox sequence
// number so same-timestamp messages keep their send order.
type mail struct {
	at  units.Time
	seq uint64
	fn  Handler
}

// Mailbox carries cross-engine messages over one directed link src → dst. A
// sender running inside a round calls Post instead of dst.At (which would
// race with the destination's worker); the coordinator drains the box at the
// next round boundary. Only code on the source engine posts; the mutex makes
// the handoff to the coordinator visible to the race detector.
type Mailbox struct {
	cl     *Cluster
	dst    *Engine
	dstIdx int32
	bidx   int32      // index in cl.boxes: the canonical drain order
	src    int32      // source engine index
	lat    units.Time // registered minimum link latency

	la *check.Lookahead // per-link law handle

	mu     sync.Mutex
	posted bool // has undrained mail
	seq    uint64
	in     []mail
}

// LinkMailbox registers and returns a mailbox for the directed link
// src → dst with the given minimum latency: every Post must come from code
// running on src's engine, timestamped at least minLatency after src's
// current time. In exchange the scheduler bounds dst by this link's law —
// B_src + minLatency — which is what lets devices with distant neighbors run
// far ahead. Registration order is drain order at each round, so callers
// must register mailboxes in a deterministic order at setup time.
// minLatency below the cluster lookahead panics: the lookahead is the floor
// every link latency must cover.
func (c *Cluster) LinkMailbox(src, dst int, minLatency units.Time) *Mailbox {
	if src < 0 || src >= len(c.engines) || dst < 0 || dst >= len(c.engines) {
		panic(fmt.Sprintf("sim: link mailbox %d->%d outside cluster of %d", src, dst, len(c.engines)))
	}
	if src == dst {
		panic(fmt.Sprintf("sim: link mailbox %d->%d is a self-loop; use Engine.At for local events", src, dst))
	}
	if minLatency < c.lookahead {
		panic(fmt.Sprintf("sim: link latency %v below cluster lookahead %v", minLatency, c.lookahead))
	}
	b := &Mailbox{
		cl:     c,
		dst:    c.engines[dst],
		dstIdx: int32(dst),
		bidx:   int32(len(c.boxes)),
		src:    int32(src),
		lat:    minLatency,
	}
	if c.chk != nil {
		b.la = c.chk.Lookahead(fmt.Sprintf("sim.cluster.link%d-%d", src, dst))
	}
	c.boxes = append(c.boxes, b)
	return b
}

// Post schedules fn on the destination engine at absolute time at. The
// message is held until the next round boundary; the conservative horizon
// guarantees at lands at or after the destination's clock.
func (b *Mailbox) Post(at units.Time, fn Handler) {
	if fn == nil {
		panic("sim: posting nil handler")
	}
	b.mu.Lock()
	b.seq++
	b.in = append(b.in, mail{at: at, seq: b.seq, fn: fn})
	first := !b.posted
	b.posted = true
	b.mu.Unlock()
	if first {
		b.cl.notePosted(b)
	}
}

// notePosted records that b holds mail since the last drain. Boxes are only
// ever posted from code running on their source engine, so the per-source
// list is single-writer within a round. Setup code may post before Run has
// sized the lists; the first drain sweeps every box anyway.
func (c *Cluster) notePosted(b *Mailbox) {
	if int(b.src) < len(c.postedBy) {
		c.postedBy[b.src] = append(c.postedBy[b.src], b.bidx)
	}
}

// sortMail orders messages by (time, sender seq) — insertion sort, since a
// round's worth of deliveries on one link is small and this keeps the drain
// path allocation-free.
func sortMail(ms []mail) {
	for i := 1; i < len(ms); i++ {
		m := ms[i]
		j := i - 1
		for j >= 0 && (ms[j].at > m.at || (ms[j].at == m.at && ms[j].seq > m.seq)) {
			ms[j+1] = ms[j]
			j--
		}
		ms[j+1] = m
	}
}

// drain moves held messages into their destination engines' calendars at a
// round boundary. It visits only the boxes posted to since the last drain
// (collected from the engines that ran — the only possible posters), sorted
// back into registration order so the
// delivery order is the deterministic subset of a full sweep. The first
// drain of a Run sweeps every box: setup code may have posted before the
// per-source lists existed.
func (c *Cluster) drain() {
	if c.firstDrain {
		c.firstDrain = false
		for _, b := range c.boxes {
			c.drainBox(b)
		}
		for i := range c.postedBy {
			c.postedBy[i] = c.postedBy[i][:0]
		}
		return
	}
	c.drainList = c.drainList[:0]
	for _, i := range c.runnable { // last round's runnable: the only engines that ran
		if pb := c.postedBy[i]; len(pb) > 0 {
			c.drainList = append(c.drainList, pb...)
			c.postedBy[i] = pb[:0]
		}
	}
	slices.Sort(c.drainList)
	for _, bi := range c.drainList {
		c.drainBox(c.boxes[bi])
	}
}

// drainBox empties one mailbox into its destination engine: (time, seq)
// sorted, the link's lookahead law observed, late deliveries clamped. The backing
// array is retained, so a steady-state drain allocates nothing.
func (c *Cluster) drainBox(b *Mailbox) {
	b.mu.Lock()
	ms := b.in
	b.in = b.in[:0]
	b.posted = false
	b.mu.Unlock()
	if len(ms) == 0 {
		return
	}
	sortMail(ms)
	// Everything in the box was posted while its source ran the last round,
	// which started at prevNow[src] (prepare seeds it with the clock setup
	// code posts from).
	start := c.prevNow[b.src]
	for _, m := range ms {
		b.la.ObserveLink(start, b.lat, m.at)
		at := m.at
		if at < b.dst.Now() {
			// Lookahead violated (already recorded): clamp so the run
			// can continue and surface every subsequent violation too.
			at = b.dst.Now()
		}
		b.dst.At(at, m.fn)
	}
	c.markDirty(b.dstIdx)
	// Zero the drained slots so the retained array doesn't pin handler
	// closures until the next time the box fills this far.
	for i := range ms {
		ms[i].fn = nil
	}
}

// prepare sizes the per-round scratch state, rebuilds the link topology if
// mailboxes were registered since the last Run, and marks every base stale.
func (c *Cluster) prepare() {
	n := len(c.engines)
	if c.base == nil {
		c.base = make([]units.Time, n)
		c.bound = make([]units.Time, n)
		c.horizons = make([]units.Time, n)
		c.prevNow = make([]units.Time, n)
		c.dirty = make([]bool, n)
		c.dirtyIdx = make([]int32, 0, n)
		c.runnable = make([]int32, 0, n)
		c.baseTree = newMinTree(n)
		c.in = make([][]edge, n)
		c.out = make([][]edge, n)
		c.blockedMark = make([]bool, n)
		c.blockedPos = make([]int32, n)
		c.blockedList = make([]int32, 0, n)
		c.postedBy = make([][]int32, n)
	}
	if c.builtBoxes != len(c.boxes) {
		for i := 0; i < n; i++ {
			c.in[i] = c.in[i][:0]
			c.out[i] = c.out[i][:0]
		}
		for _, b := range c.boxes {
			c.in[b.dstIdx] = append(c.in[b.dstIdx], edge{peer: b.src, lat: b.lat})
			c.out[b.src] = append(c.out[b.src], edge{peer: b.dstIdx, lat: b.lat})
		}
		c.drainList = make([]int32, 0, len(c.boxes))
		for i := 0; i < n; i++ {
			if cap(c.postedBy[i]) < len(c.out[i]) {
				c.postedBy[i] = make([]int32, 0, len(c.out[i]))
			}
		}
		c.builtBoxes = len(c.boxes)
	}
	// Every engine re-seeds its base on the first round (forced to an
	// impossible value so refreshBase pushes it into the tree), the first
	// drain sweeps every box and empties the posted lists, and the blocked
	// set starts empty.
	c.firstDrain = true
	for _, i := range c.blockedList {
		c.blockedMark[i] = false
	}
	c.blockedList = c.blockedList[:0]
	for i := 0; i < n; i++ {
		c.base[i] = -1
		c.prevNow[i] = c.engines[i].Now()
		c.markDirty(int32(i))
	}
}

// markDirty queues engine i for a base refresh at the next round.
func (c *Cluster) markDirty(i int32) {
	if !c.dirty[i] {
		c.dirty[i] = true
		c.dirtyIdx = append(c.dirtyIdx, i)
	}
}

// refreshBase re-reads NextAt for every engine that ran or received mail
// since the last round and pushes the new values through the min tree — the
// batched earliest-event reduction: engines that didn't move cost nothing.
func (c *Cluster) refreshBase() {
	for _, i := range c.dirtyIdx {
		c.dirty[i] = false
		at, ok := c.engines[i].NextAt()
		if !ok {
			at = never
		}
		if at != c.base[i] {
			c.base[i] = at
			c.baseTree.update(int(i), at)
		}
	}
	c.dirtyIdx = c.dirtyIdx[:0]
}

// computeWindows derives this round's per-engine bounds B, horizons H, and
// the runnable set from scratch.
//
// The bound pass is a multi-source Dijkstra: seed every engine with its base
// and relax through outbound links, so B_j ends at the earliest time any
// pending event anywhere can influence j. The horizon pass then takes, per
// engine, the minimum over inbound links of B_source + latency, which is the
// first instant a not-yet-posted message could demand delivery.
func (c *Cluster) computeWindows() {
	n := len(c.engines)
	c.heap.reset()
	for i, b := range c.base {
		c.bound[i] = b
		if b != never {
			c.heap.push(djItem{t: b, eng: int32(i)})
		}
	}
	for c.heap.len() > 0 {
		it := c.heap.pop()
		if it.t > c.bound[it.eng] {
			continue // stale entry superseded by a tighter bound
		}
		for _, e := range c.out[it.eng] {
			if nb := it.t + e.lat; nb < c.bound[e.peer] {
				c.bound[e.peer] = nb
				c.heap.push(djItem{t: nb, eng: e.peer})
			}
		}
	}
	c.runnable = c.runnable[:0]
	for i := 0; i < n; i++ {
		h := never
		for _, e := range c.in[i] {
			if b := c.bound[e.peer]; b != never && b+e.lat < h {
				h = b + e.lat
			}
		}
		c.horizons[i] = h
		if c.base[i] < h {
			c.runnable = append(c.runnable, int32(i))
			c.prevNow[i] = c.engines[i].Now()
			c.setBlocked(int32(i), false)
		} else {
			c.setBlocked(int32(i), c.base[i] != never && h != never)
		}
	}
}

// setBlocked maintains the blocked-engine set: engines with pending events
// that this round's horizon refused to release.
func (c *Cluster) setBlocked(i int32, blocked bool) {
	if blocked == c.blockedMark[i] {
		return
	}
	c.blockedMark[i] = blocked
	if blocked {
		c.blockedPos[i] = int32(len(c.blockedList))
		c.blockedList = append(c.blockedList, i)
		return
	}
	p := c.blockedPos[i]
	last := c.blockedList[len(c.blockedList)-1]
	c.blockedList[p] = last
	c.blockedPos[last] = p
	c.blockedList = c.blockedList[:len(c.blockedList)-1]
}

// runEngine advances one runnable engine to its horizon — or, when no
// inbound link can ever reach it (horizon = never), to quiescence.
func (c *Cluster) runEngine(i int) {
	if h := c.horizons[i]; h == never {
		c.engines[i].Run()
	} else {
		c.engines[i].RunBefore(h)
	}
}

// accountRound records windowing and stall statistics and marks every
// engine that ran as base-stale.
func (c *Cluster) accountRound() {
	c.stats.Windows++
	c.stats.EngineWindows += uint64(len(c.runnable))
	for _, i := range c.runnable {
		c.markDirty(i)
		c.stats.Advance += c.engines[i].Now() - c.prevNow[i]
	}
	c.stats.StalledEngineWindows += uint64(len(c.blockedList))
	for _, i := range c.blockedList {
		c.stats.StallTime += c.base[i] - c.horizons[i]
	}
}

// horizon returns the furthest engine clock — the end of the last window the
// furthest engine executed. Models record completion times inside handlers;
// this value only bounds them.
func (c *Cluster) horizon() units.Time {
	var h units.Time
	for _, e := range c.engines {
		if e.Now() > h {
			h = e.Now()
		}
	}
	return h
}

// Run advances every engine to quiescence — no pending events, no held
// messages — and returns the furthest engine clock. workers <= 1 runs every
// round inline on the calling goroutine. Otherwise Run starts
// min(workers, GOMAXPROCS, engines) workers, each owning a fixed contiguous
// block of engines for the whole Run, so a device's state stays with one
// goroutine (and, as far as the scheduler allows, one core) from round to
// round. Either way the event order, and therefore the result, is identical:
// worker count only changes which goroutine drives an engine, never what the
// engine observes.
func (c *Cluster) Run(workers int) units.Time {
	n := len(c.engines)
	c.prepare()
	if parts := min(workers, runtime.GOMAXPROCS(0), n); parts > 1 {
		c.startWorkers(parts)
		defer c.stopWorkers()
	}
	for {
		c.drain()
		c.refreshBase()
		if c.baseTree.root() == never {
			return c.horizon()
		}
		c.computeWindows()
		if len(c.runnable) == 0 {
			// Unreachable: the engine holding the earliest pending event
			// always has a horizon strictly beyond it (positive link
			// latencies). Guard anyway so a future invariant break fails
			// loudly instead of spinning.
			panic("sim: cluster stalled with pending events")
		}
		if c.wake == nil || len(c.runnable) == 1 {
			for _, i := range c.runnable {
				c.runEngine(int(i))
			}
		} else {
			c.dispatch()
		}
		c.accountRound()
	}
}

// ownerBlocks cuts n engines into parts contiguous blocks of near-equal size:
// block w is [b[w], b[w+1]).
func ownerBlocks(n, parts int) []int32 {
	b := make([]int32, parts+1)
	for w := range b {
		b[w] = int32(w * n / parts)
	}
	return b
}

// startWorkers launches one worker per engine block. done holds one token
// per worker, so no worker ever blocks answering.
func (c *Cluster) startWorkers(parts int) {
	c.owner = ownerBlocks(len(c.engines), parts)
	c.share = make([][]int32, parts)
	c.wake = make([]chan struct{}, parts)
	c.done = make(chan struct{}, parts)
	for w := range c.wake {
		c.wake[w] = make(chan struct{}, 1)
		go c.workerLoop(w)
	}
}

// stopWorkers closes every wake channel and joins the workers.
func (c *Cluster) stopWorkers() {
	for _, ch := range c.wake {
		close(ch)
	}
	for range c.wake {
		<-c.done
	}
	c.wake = nil
}

// workerLoop is worker w: each wake token runs w's share of the round — only
// engines in its own block — and answers with one done token. The channel
// handoffs order the coordinator's writes to the round's scratch state before
// the worker reads it, and the worker's engine writes before the coordinator
// reads them at the round boundary. A closed wake channel ends the loop with
// a final done token.
func (c *Cluster) workerLoop(w int) {
	for range c.wake[w] {
		for _, i := range c.share[w] {
			c.runEngine(int(i))
		}
		c.done <- struct{}{}
	}
	c.done <- struct{}{}
}

// dispatch splits the index-sorted runnable set at the block boundaries,
// wakes only the owners with runnable engines, and waits for each of them to
// finish the round.
func (c *Cluster) dispatch() {
	r := c.runnable
	woken, k := 0, 0
	for w, ch := range c.wake {
		j := k
		for j < len(r) && r[j] < c.owner[w+1] {
			j++
		}
		if j > k {
			c.share[w] = r[k:j]
			ch <- struct{}{}
			woken++
		}
		k = j
	}
	for ; woken > 0; woken-- {
		<-c.done
	}
}

// minTree is a flat bottom-up segment tree over the per-engine base times:
// update is O(log n) along one root path, the global minimum is O(1) at the
// root. With only a few engines dirty per round this replaces the O(n) scan
// the old coordinator paid at every window.
type minTree struct {
	n    int
	node []units.Time // 1-based; node[1] is the root, leaves at node[size+i]
	size int
}

func newMinTree(n int) minTree {
	size := 1
	for size < n {
		size <<= 1
	}
	node := make([]units.Time, 2*size)
	for i := range node {
		node[i] = never
	}
	return minTree{n: n, node: node, size: size}
}

func (t *minTree) update(i int, v units.Time) {
	p := t.size + i
	if t.node[p] == v {
		return
	}
	t.node[p] = v
	for p >>= 1; p >= 1; p >>= 1 {
		m := t.node[2*p]
		if r := t.node[2*p+1]; r < m {
			m = r
		}
		if t.node[p] == m {
			break
		}
		t.node[p] = m
	}
}

func (t *minTree) root() units.Time { return t.node[1] }

// djItem is one Dijkstra worklist entry: a tentative bound for an engine.
type djItem struct {
	t   units.Time
	eng int32
}

// djHeap is a value-based binary min-heap with lazy deletion; the backing
// array is retained across rounds.
type djHeap struct {
	a []djItem
}

func (h *djHeap) reset()   { h.a = h.a[:0] }
func (h *djHeap) len() int { return len(h.a) }

func (h *djHeap) push(it djItem) {
	a := append(h.a, it)
	i := len(a) - 1
	for i > 0 {
		p := (i - 1) / 2
		if a[p].t <= it.t {
			break
		}
		a[i] = a[p]
		i = p
	}
	a[i] = it
	h.a = a
}

func (h *djHeap) pop() djItem {
	a := h.a
	top := a[0]
	n := len(a) - 1
	last := a[n]
	if n > 0 {
		i := 0
		for {
			c := 2*i + 1
			if c >= n {
				break
			}
			if c+1 < n && a[c+1].t < a[c].t {
				c++
			}
			if a[c].t >= last.t {
				break
			}
			a[i] = a[c]
			i = c
		}
		a[i] = last
	}
	h.a = a[:n]
	return top
}
