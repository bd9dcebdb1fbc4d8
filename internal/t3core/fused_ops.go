package t3core

import (
	"t3sim/internal/memory"
	"t3sim/internal/sim"
	"t3sim/internal/units"
)

// This file holds the timed runners' pooled callback objects: stageCB,
// shared by the mirror runner and every explicit-run device, and the
// mirror's landing, sendOp and dmaOp (the explicit runner's deliverOp lives
// in fusedmulti.go). The inner loops of a run — production stores, tracker
// triggers, DMA forwards and deliveries — used to capture their context in
// a fresh closure per event, a steady allocation stream second only to the
// request path itself. Each object carries that context in pooled struct
// fields instead and implements memory.Completion (or pre-builds its
// link-delivery closures at construction), so a steady-state burst
// allocates nothing. Objects are returned to their freelist at the end of
// their final callback, and every freelist is touched by one engine's
// goroutine only, so none needs locking.

// tileObserver credits one completed local production store: the mirror
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

// landing credits a fixed byte count of the tagged tile once a transfer
// lands in local memory. Each mirror run holds two for its whole life: one
// for mirrored arrivals, one for direct RS's locally kept slice.
type landing struct {
	r      *fusedRun
	bytes  units.Bytes
	credit credit
}

// Complete implements memory.Completion.
func (l *landing) Complete(tag memory.Tag) {
	l.r.land(TileID{WG: tag.WG, WF: tag.WF}, l.bytes, l.credit)
}

// sendOp carries one remote production send of tile t across its link
// delivery, where the mirrored arrival is staged.
type sendOp struct {
	r         *fusedRun
	t         int
	delivered sim.Handler // prebuilt onDelivered closure
}

func (op *sendOp) onDelivered() {
	r := op.r
	r.chkRing.Sub(r.eng.Now(), int64(r.sendBytes))
	if r.mirrorNext {
		// The neighbor's phase-0 send of the tile I produce next arrives.
		targets, n := r.mirrorTargets(op.t, 0)
		for i := 0; i < n; i++ {
			r.incoming(targets[i])
		}
	} else {
		r.incoming(op.t)
	}
	r.sendOps = append(r.sendOps, op)
}

func (r *fusedRun) getSendOp(t int) *sendOp {
	if ln := len(r.sendOps); ln > 0 {
		op := r.sendOps[ln-1]
		r.sendOps[ln-1] = nil
		r.sendOps = r.sendOps[:ln-1]
		op.t = t
		return op
	}
	op := &sendOp{r: r, t: t}
	op.delivered = op.onDelivered
	return op
}

// dmaOp carries one triggered DMA — a contiguous block of count tiles
// starting at first in phase p — through its three stages: local read, ring
// send, mirrored arrival.
type dmaOp struct {
	r        *fusedRun
	p        int
	first    int
	count    int
	total    units.Bytes
	readDone sim.Handler // prebuilt: local read complete → inject into ring
	sent     sim.Handler // prebuilt: delivery → mirrored memory update
}

// onRead: the block has been read; push it onto the ring.
func (op *dmaOp) onRead() {
	r := op.r
	r.chkRing.Add(int64(op.total))
	r.links[0].Send(op.total, op.sent)
}

// onSent: the mirrored neighbor DMA arrives; stage it in local memory.
func (op *dmaOp) onSent() {
	r := op.r
	r.chkRing.Sub(r.eng.Now(), int64(op.total))
	r.mem.TransferTo(r.kind, memory.StreamComm, op.total, tileTag(op.first), op)
}

// Complete implements memory.Completion: the mirrored update landed; credit
// every target tile of the block.
func (op *dmaOp) Complete(memory.Tag) {
	r := op.r
	for t := op.first; t < op.first+op.count; t++ {
		targets, n := r.mirrorTargets(t, op.p)
		for i := 0; i < n; i++ {
			r.land(tileID(targets[i]), r.tileBytes, r.arriveCredit)
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
