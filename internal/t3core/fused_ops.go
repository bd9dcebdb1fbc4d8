package t3core

import (
	"t3sim/internal/memory"
	"t3sim/internal/sim"
	"t3sim/internal/units"
)

// This file holds the mirror runners' pooled callback objects; the
// explicit multi-device runner (fusedmulti.go) shares stageCB and follows
// the same pattern with its deliverOp. The inner loops of a run —
// production stores, tracker triggers, DMA forwards and deliveries — used
// to capture their context in a fresh closure per event, a steady
// allocation stream second only to the request path itself. Each object
// carries that context in pooled struct fields instead and implements
// memory.Completion (or pre-builds its one link-delivery closure at
// construction), so a steady-state burst allocates nothing. Objects are
// returned to their freelist at the end of their final callback, and every
// freelist is touched by one engine's goroutine only, so none needs
// locking.

// Complete implements memory.Completion for the runner itself: a full-tile
// mirrored update has landed in local memory, credit the tracker. Used by
// incomingUpdate, where the tag's (WG, WF) is exactly the target tile.
func (r *fusedRun) Complete(tag memory.Tag) {
	r.observe(TileID{WG: tag.WG, WF: tag.WF})
}

// fenceCB adapts a fence to memory.Completion: each completed transfer is
// one Done. One allocation per stage, amortized over the stage's tiles.
type fenceCB struct{ fence *sim.Fence }

// Complete implements memory.Completion.
func (c *fenceCB) Complete(memory.Tag) { c.fence.Done() }

// obsCB observes a fixed byte count against the tagged tile. Two long-lived
// instances per direct-RS run cover the locally-kept slice and an arriving
// peer slice.
type obsCB struct {
	r     *fusedRun
	bytes units.Bytes
}

// Complete implements memory.Completion.
func (o *obsCB) Complete(tag memory.Tag) {
	o.r.observeBytes(TileID{WG: tag.WG, WF: tag.WF}, o.bytes)
}

// tileObserver credits one completed tile update to a tracker: the mirror
// runner and each explicit-run device.
type tileObserver interface {
	observe(id TileID)
}

// stageCB completes one GEMM stage's local production stores: each store
// credits its tile and the stage fence; the kernel's stage callback fires
// when the last store lands. The fence and its callback closure are built
// once per pooled object and rearmed with Reset on reuse.
type stageCB struct {
	obs    tileObserver
	free   *[]*stageCB // the owner's freelist
	fence  *sim.Fence
	onDone sim.Handler // kernel stage completion, set per use
}

// Complete implements memory.Completion for one production store.
func (s *stageCB) Complete(tag memory.Tag) {
	s.obs.observe(TileID{WG: tag.WG, WF: tag.WF})
	s.fence.Done()
}

// fenceDone runs when the stage's last local store has been observed. The
// object is recycled only after the kernel callback returns: the callback
// may start the next stage, and releasing first would let that stage rearm
// this fence mid-unwind.
func (s *stageCB) fenceDone() {
	onDone := s.onDone
	s.onDone = nil
	onDone()
	*s.free = append(*s.free, s)
}

// getStageCB returns a stage completion from the freelist free, armed for n
// local stores (n > 0) credited to obs.
func getStageCB(free *[]*stageCB, obs tileObserver, n int, onDone sim.Handler) *stageCB {
	if ln := len(*free); ln > 0 {
		s := (*free)[ln-1]
		(*free)[ln-1] = nil
		*free = (*free)[:ln-1]
		s.fence.Reset(n)
		s.onDone = onDone
		return s
	}
	s := &stageCB{obs: obs, free: free, onDone: onDone}
	s.fence = sim.NewFence(n, s.fenceDone)
	return s
}

// remoteOp carries one remote-mapped production store across its link
// delivery: the mirrored incoming updates are staged when the send lands.
type remoteOp struct {
	r         *fusedRun
	t         int
	delivered sim.Handler // prebuilt onDelivered closure
}

func (op *remoteOp) onDelivered() {
	r := op.r
	r.chkRing.Sub(r.eng.Now(), int64(r.tileBytes))
	// Mirror: the neighbor's phase-0 store of the chunk I produce in
	// phase 1 arrives now, as an NMC update on the comm stream.
	targets, n := r.mirrorTargets(op.t, 0)
	for i := 0; i < n; i++ {
		r.incomingUpdate(targets[i])
	}
	r.remoteOps = append(r.remoteOps, op)
}

func (r *fusedRun) getRemoteOp(t int) *remoteOp {
	if ln := len(r.remoteOps); ln > 0 {
		op := r.remoteOps[ln-1]
		r.remoteOps[ln-1] = nil
		r.remoteOps = r.remoteOps[:ln-1]
		op.t = t
		return op
	}
	op := &remoteOp{r: r, t: t}
	op.delivered = op.onDelivered
	return op
}

// directOp carries one direct-RS slice send across its link delivery.
type directOp struct {
	r         *fusedRun
	t         int
	delivered sim.Handler
}

func (op *directOp) onDelivered() {
	r := op.r
	r.chkRing.Sub(r.eng.Now(), int64(r.sliceBytes))
	r.mem.TransferTo(memory.Update, memory.StreamComm, r.sliceBytes,
		memory.Tag{WG: op.t / 8, WF: op.t % 8}, r.dirSlice)
	r.directOps = append(r.directOps, op)
}

func (r *fusedRun) getDirectOp(t int) *directOp {
	if ln := len(r.directOps); ln > 0 {
		op := r.directOps[ln-1]
		r.directOps[ln-1] = nil
		r.directOps = r.directOps[:ln-1]
		op.t = t
		return op
	}
	op := &directOp{r: r, t: t}
	op.delivered = op.onDelivered
	return op
}

// dmaOp carries one triggered DMA — a contiguous block of count tiles
// starting at first in phase p — through its three stages: local read, ring
// send, mirrored remote update.
type dmaOp struct {
	r        *fusedRun
	p        int
	first    int
	count    int
	total    units.Bytes
	readDone sim.Handler // prebuilt: local read complete → inject into ring
	sent     sim.Handler // prebuilt: delivery → mirrored memory update
}

// onRead: the partially reduced block has been read; push it onto the ring.
func (op *dmaOp) onRead() {
	r := op.r
	r.chkRing.Add(int64(op.total))
	r.links[0].Send(op.total, op.sent)
}

// onSent: the mirrored neighbor DMA arrives; stage it in local memory.
func (op *dmaOp) onSent() {
	r := op.r
	r.chkRing.Sub(r.eng.Now(), int64(op.total))
	r.mem.TransferTo(memory.Update, memory.StreamComm, op.total,
		memory.Tag{WG: op.first / 8, WF: op.first % 8}, op)
}

// Complete implements memory.Completion: the mirrored update landed; credit
// every target tile of the block.
func (op *dmaOp) Complete(memory.Tag) {
	r := op.r
	for t := op.first; t < op.first+op.count; t++ {
		targets, n := r.mirrorTargets(t, op.p)
		for i := 0; i < n; i++ {
			r.observe(r.tileIDOf(targets[i]))
		}
	}
	r.dmaOps = append(r.dmaOps, op)
}

func (r *fusedRun) getDMAOp(p, first, count int, total units.Bytes) *dmaOp {
	if ln := len(r.dmaOps); ln > 0 {
		op := r.dmaOps[ln-1]
		r.dmaOps[ln-1] = nil
		r.dmaOps = r.dmaOps[:ln-1]
		op.p, op.first, op.count, op.total = p, first, count, total
		return op
	}
	op := &dmaOp{r: r, p: p, first: first, count: count, total: total}
	op.readDone = op.onRead
	op.sent = op.onSent
	return op
}
