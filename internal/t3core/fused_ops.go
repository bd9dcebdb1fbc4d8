package t3core

import (
	"t3sim/internal/memory"
	"t3sim/internal/sim"
	"t3sim/internal/units"
)

// This file holds the fused runner's pooled callback objects: stageCB, the
// landing credits, and delivery, which carries one tile or DMA block from
// the device that sends it to the device it lands on. The inner loops of a
// run — production stores, tracker triggers, DMA forwards and deliveries —
// carry their context in pooled struct fields rather than a fresh closure
// per event, and each object implements memory.Completion (or pre-builds
// its link-delivery closure at construction), so a steady-state burst
// allocates nothing. Objects are returned to a freelist at the end of their
// final callback, and every freelist is touched by one engine's goroutine
// only, so none needs locking.

// stageCB completes one GEMM stage's local production stores: each store
// credits its tile and the stage fence; the kernel's stage callback fires
// when the last store lands. The fence and its callback closure are built
// once per pooled object and rearmed with Reset on reuse.
type stageCB struct {
	d      *fusedDevice
	fence  *sim.Fence
	onDone sim.Handler // kernel stage completion, set per use
}

// Complete implements memory.Completion for one production store.
func (s *stageCB) Complete(tag memory.Tag) {
	s.d.land(TileID{WG: tag.WG, WF: tag.WF}, s.d.r.tileBytes, s.d.r.storeCredit)
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
	s.d.stageCBs = append(s.d.stageCBs, s)
}

// getStageCB returns a stage completion armed for n local stores (n > 0).
func (d *fusedDevice) getStageCB(n int, onDone sim.Handler) *stageCB {
	if ln := len(d.stageCBs); ln > 0 {
		s := d.stageCBs[ln-1]
		d.stageCBs[ln-1] = nil
		d.stageCBs = d.stageCBs[:ln-1]
		s.fence.Reset(n)
		s.onDone = onDone
		return s
	}
	s := &stageCB{d: d, onDone: onDone}
	s.fence = sim.NewFence(n, s.fenceDone)
	return s
}

// landing credits a fixed byte count of the tagged tile once a transfer
// lands in local memory. Each device holds two for its whole life: one for
// landed remote sends, one for direct RS's locally kept slice.
type landing struct {
	d      *fusedDevice
	bytes  units.Bytes
	credit credit
}

// Complete implements memory.Completion.
func (l *landing) Complete(tag memory.Tag) {
	l.d.land(TileID{WG: tag.WG, WF: tag.WF}, l.bytes, l.credit)
}

// delivery carries count tiles starting at first, sent in phase p, from
// device src to the device they land on (see fusedRun.lander), over the
// interconnect to peer. A remote production store goes straight onto the
// link and lands as one transfer per target tile. A triggered DMA block is
// first read from local memory, then sent, and lands as one transfer that
// credits every target tile of the block.
//
// On the cluster the two ends run on different engines, so the pools are
// split by device: a delivery comes off the freelist of the device that
// sends it and goes back onto the freelist of the device it lands on. Every
// freelist is touched by its own device's engine only, and the mailbox that
// carries the delivery orders the handoff.
type delivery struct {
	to        *fusedDevice
	src, peer int
	first     int
	count     int
	p         int
	bytes     units.Bytes
	dma       bool        // a triggered DMA block, not a production store
	reading   bool        // the DMA block's local read is in flight
	delivered sim.Handler // prebuilt onDelivered
}

// getDelivery returns a delivery of count tiles from first, sent in phase
// p, of n bytes from d to peer; a DMA block starts with its local read.
func (d *fusedDevice) getDelivery(peer, first, count, p int, n units.Bytes, dma bool) *delivery {
	var op *delivery
	if ln := len(d.deliveries); ln > 0 {
		op = d.deliveries[ln-1]
		d.deliveries[ln-1] = nil
		d.deliveries = d.deliveries[:ln-1]
	} else {
		op = &delivery{}
		op.delivered = op.onDelivered
	}
	op.to, op.src, op.peer = d.r.lander(peer), d.id, peer
	op.first, op.count, op.p, op.bytes = first, count, p, n
	op.dma, op.reading = dma, dma
	return op
}

// Complete implements memory.Completion: a DMA block's local read finished,
// so push it onto the link; or the block landed, so credit every target
// tile and release the delivery.
func (op *delivery) Complete(memory.Tag) {
	if op.reading {
		op.reading = false
		r := op.to.r
		r.chkRing.Add(int64(op.bytes))
		r.topo.Send(op.src, op.peer, op.bytes, op.delivered)
		return
	}
	to := op.to
	for t := op.first; t < op.first+op.count; t++ {
		targets, n := to.targets(t, op.p)
		for i := 0; i < n; i++ {
			to.land(tileID(targets[i]), to.r.tileBytes, to.r.arriveCredit)
		}
	}
	to.release(op)
}

// onDelivered stages the delivery in the lander's memory on the
// communication stream.
func (op *delivery) onDelivered() {
	to := op.to
	r := to.r
	r.chkRing.Sub(to.eng.Now(), int64(op.bytes))
	if to.testDropIncoming > 0 {
		to.testDropIncoming--
		to.release(op)
		return
	}
	if op.dma {
		to.mem.Transfer(r.kind, memory.StreamComm, op.bytes, tileTag(op.first), op)
		return
	}
	targets, n := to.targets(op.first, op.p)
	for i := 0; i < n; i++ {
		to.mem.Transfer(r.kind, memory.StreamComm, op.bytes, tileTag(targets[i]), &to.arrival)
	}
	to.release(op)
}

// release returns a delivery to d's freelist.
func (d *fusedDevice) release(op *delivery) {
	op.to = nil
	d.deliveries = append(d.deliveries, op)
}
