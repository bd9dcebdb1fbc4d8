package collective

import (
	"fmt"

	"t3sim/internal/check"
	"t3sim/internal/interconnect"
	"t3sim/internal/memory"
	"t3sim/internal/metrics"
	"t3sim/internal/sim"
	"t3sim/internal/units"
)

// Device bundles the per-GPU resources a timed collective touches.
type Device struct {
	ID  int
	Mem *memory.Controller
}

// TopoOptions parameterizes a timed collective over a topology graph — the
// Table 1 ring is interconnect.RingTopo with AlgoRing. Multi-hop sends
// store-and-forward block by block through the graph's deterministic routes.
type TopoOptions struct {
	Topo    *interconnect.Topology
	Devices []*Device
	// TotalBytes is the full array size being reduced/gathered.
	TotalBytes units.Bytes
	// BlockBytes is the software pipelining granularity within one round:
	// the unit at which data moves through read → reduce → send →
	// receive-write.
	BlockBytes units.Bytes
	// CUs is how many compute units the collective kernel occupies; with
	// fewer CUs the kernel sustains less memory throughput, which is the
	// §3.2.1 contention effect. PerCUMemBandwidth is the memory throughput
	// one CU sustains.
	CUs               int
	PerCUMemBandwidth units.Bandwidth
	// NMC stages reduction arrivals as in-DRAM updates and eliminates fold
	// and merge kernels (§4.3, Figure 10).
	NMC bool
	// Stream selects the memory-controller stream the kernel's accesses use.
	Stream memory.Stream
	// Metrics, if non-nil, receives a "collective" timeline track with one
	// span per pipelined block, a staging instant per round boundary, and
	// block/byte counters. Nil costs nothing.
	Metrics metrics.Sink
	// Check, if non-nil, attaches the graph conservation witness: a wire
	// ledger over all links plus a per-device incoming-bytes bound that a
	// mis-routed chunk violates. Nil costs nothing.
	Check *check.Checker
}

// Validate reports whether the options are usable.
func (o TopoOptions) Validate() error {
	switch {
	case o.Topo == nil:
		return fmt.Errorf("collective: nil topology")
	case len(o.Devices) != o.Topo.Devices():
		return fmt.Errorf("collective: %d devices for %d-device topology", len(o.Devices), o.Topo.Devices())
	case o.TotalBytes <= 0:
		return fmt.Errorf("collective: TotalBytes = %v", o.TotalBytes)
	case o.BlockBytes <= 0:
		return fmt.Errorf("collective: BlockBytes = %v", o.BlockBytes)
	case o.CUs <= 0:
		return fmt.Errorf("collective: CUs = %d", o.CUs)
	case o.PerCUMemBandwidth <= 0:
		return fmt.Errorf("collective: PerCUMemBandwidth = %v", o.PerCUMemBandwidth)
	}
	for i, d := range o.Devices {
		if d == nil || d.Mem == nil {
			return fmt.Errorf("collective: device %d missing memory controller", i)
		}
	}
	return nil
}

func (o TopoOptions) cuRate() units.Bandwidth {
	return units.Bandwidth(float64(o.PerCUMemBandwidth) * float64(o.CUs))
}

// graphRun tracks one in-flight timed collective over a topology graph on
// one shared engine. Each round is its own kernel, exactly like the paper's
// simulated baseline (§5.1.1, Figure 13): blocks pipeline freely within a
// round, but a device begins round r+1 only after every round-r op destined
// to it has been staged (and, for eager-fold algorithms, folded) — the
// kernel boundary. A round may deliver nothing to a device (tree leaves,
// finished halving partners); such devices advance immediately.
type graphRun struct {
	eng    *sim.Engine
	o      TopoOptions
	n      int
	sched  *schedule
	cuFree []units.Time // per-device CU pacer

	// cursor[d] is the next round device d will issue. fences[d][r] gates
	// round r+1 (nil when round r delivers nothing to d); registered up
	// front because a fast peer may deliver round-r+1 blocks while d is
	// still staging round r.
	cursor []int
	fences [][]*sim.Fence
	done   *sim.Fence

	mtrack     *metrics.Track
	mBlocks    *metrics.Counter
	mLinkBytes *metrics.Counter

	ledger *check.Ledger
	// bounds[d] caps the wire bytes staged at device d by the schedule's
	// expectation; staged[d] is the running total. A chunk delivered to the
	// wrong device pushes that device past its bound.
	bounds []*check.Bound
	staged []int64

	// Freelists of the pooled per-block ops; one engine drives the run, so
	// neither needs locking.
	sendFree []*sendBlock
	foldFree []*foldBlock
}

func newGraphRun(eng *sim.Engine, algo Algorithm, op Op, o TopoOptions, onDone sim.Handler) (*graphRun, error) {
	if err := o.Validate(); err != nil {
		return nil, err
	}
	n := o.Topo.Devices()
	sched, err := buildSchedule(algo, op, n, o.TotalBytes, o.NMC)
	if err != nil {
		return nil, err
	}
	r := &graphRun{eng: eng, o: o, n: n, sched: sched}
	r.cuFree = make([]units.Time, n)
	r.cursor = make([]int, n)
	if o.Check.Enabled() {
		r.ledger = o.Check.Ledger("collective.topo")
		inner := onDone
		onDone = func() {
			r.ledger.Close(eng.Now())
			if inner != nil {
				inner()
			}
		}
		r.bounds = make([]*check.Bound, n)
		r.staged = make([]int64, n)
		for d := range r.bounds {
			r.bounds[d] = o.Check.Bound(
				fmt.Sprintf("collective.topo.dev%d.incoming", d),
				sched.expectedIncomingBytes(d))
		}
	}
	r.done = sim.NewFence(n, onDone)
	if m := o.Metrics; m != nil {
		r.mtrack = m.Track("collective")
		r.mBlocks = m.Counter("collective.blocks_sent")
		r.mLinkBytes = m.Counter("collective.link_bytes")
	}

	r.fences = make([][]*sim.Fence, n)
	for d := 0; d < n; d++ {
		r.fences[d] = make([]*sim.Fence, len(sched.rounds))
		for rd := range sched.rounds {
			in := sched.incomingBlocks(d, rd, o.BlockBytes)
			if in == 0 {
				continue
			}
			d, rd := d, rd
			r.fences[d][rd] = sim.NewFence(in, func() {
				if r.mtrack != nil {
					r.mtrack.Instant(fmt.Sprintf("dev%d.round%d.staged", d, rd), r.eng.Now())
				}
				if r.cursor[d] == rd+1 {
					r.advance(d)
				}
			})
		}
	}
	return r, nil
}

// start kicks off round 0 on every device.
func (r *graphRun) start() {
	for d := 0; d < r.n; d++ {
		r.advance(d)
	}
}

// advance issues device d's rounds until it must wait for arrivals or runs
// out of schedule; resumed by the round fence callback.
func (r *graphRun) advance(d int) {
	for {
		rd := r.cursor[d]
		if rd == len(r.sched.rounds) {
			r.done.Done()
			return
		}
		r.issueRound(d, rd)
		r.cursor[d] = rd + 1
		if f := r.fences[d][rd]; f != nil && !f.Fired() {
			return
		}
	}
}

// issueRound launches every round-rd op device d sources, block by block.
func (r *graphRun) issueRound(d, rd int) {
	for _, op := range r.sched.rounds[rd] {
		if op.src != d {
			continue
		}
		for rem := op.bytes; rem > 0; {
			b := min(rem, r.o.BlockBytes)
			rem -= b
			if op.dst == d {
				r.fold(d, rd, b)
			} else {
				r.send(rd, op, b)
			}
		}
	}
}

// pace reserves CU time on device d for touching n bytes `touches` times.
func (r *graphRun) pace(d int, touches int, n units.Bytes) units.Time {
	now := r.eng.Now()
	if r.cuFree[d] < now {
		r.cuFree[d] = now
	}
	r.cuFree[d] += r.o.cuRate().TransferTime(units.Bytes(touches) * n)
	return r.cuFree[d]
}

// sendBlock carries one block of a wire op through its life: read the
// sender's inputs, pace the kernel, route through the topology
// (store-and-forward per hop), and stage at the destination — a plain write,
// or an op-and-store update when NMC absorbs the reduction — then fold it if
// the schedule asks, and credit the round fence. It is pooled, its handlers
// are bound once, and it is its own memory.Completion for both the source
// reads and the staging write, so a block allocates nothing in steady state.
type sendBlock struct {
	r     *graphRun
	rd    int
	op    sendOp
	block units.Bytes
	start units.Time
	// left counts source reads outstanding; once it is zero the next
	// completion is the staging write.
	left      int
	inject    sim.Handler // prebuilt: paced send time reached → onto the wire
	delivered sim.Handler // prebuilt: last hop delivered → stage
}

// send starts one block of a wire op.
func (r *graphRun) send(rd int, op sendOp, block units.Bytes) {
	var b *sendBlock
	if ln := len(r.sendFree); ln > 0 {
		b = r.sendFree[ln-1]
		r.sendFree[ln-1] = nil
		r.sendFree = r.sendFree[:ln-1]
	} else {
		b = &sendBlock{r: r}
		b.inject = b.onInject
		b.delivered = b.onDelivered
	}
	b.rd, b.op, b.block, b.start, b.left = rd, op, block, r.eng.Now(), op.srcReads
	if op.srcReads == 0 {
		b.readsDone()
		return
	}
	mem := r.o.Devices[op.src].Mem
	for i := 0; i < op.srcReads; i++ {
		mem.TransferTo(memory.Read, r.o.Stream, block, memory.Tag{}, b)
	}
}

// Complete implements memory.Completion: one source read, or the staging
// write once every read has landed.
func (b *sendBlock) Complete(memory.Tag) {
	if b.left > 0 {
		if b.left--; b.left == 0 {
			b.readsDone()
		}
		return
	}
	b.onStaged()
}

func (b *sendBlock) readsDone() {
	b.r.eng.At(b.r.pace(b.op.src, b.op.srcReads+1, b.block), b.inject)
}

func (b *sendBlock) onInject() {
	r := b.r
	r.ledger.Add(int64(b.block))
	r.o.Topo.Send(b.op.src, b.op.dst, b.block, b.delivered)
}

func (b *sendBlock) onDelivered() {
	r := b.r
	r.mBlocks.Inc()
	r.mLinkBytes.Add(int64(b.block))
	if r.mtrack != nil {
		r.mtrack.Span(fmt.Sprintf("dev%d.round%d.block", b.op.src, b.rd), b.start, r.eng.Now())
	}
	kind := memory.Write
	if b.op.reduce && r.o.NMC {
		kind = memory.Update
	}
	r.o.Devices[b.op.dst].Mem.TransferTo(kind, r.o.Stream, b.block, memory.Tag{}, b)
}

// onStaged runs when the block has landed in the destination's memory. The
// block returns to the freelist before the fold or credit, which may issue
// new blocks.
func (b *sendBlock) onStaged() {
	r, d, rd, block := b.r, b.op.dst, b.rd, b.block
	fold := b.op.fold && b.op.reduce && !r.o.NMC
	r.sendFree = append(r.sendFree, b)
	r.ledger.Sub(r.eng.Now(), int64(block))
	if r.bounds != nil {
		r.staged[d] += int64(block)
		r.bounds[d].Observe(r.eng.Now(), r.staged[d])
	}
	if fold {
		r.fold(d, rd, block)
		return
	}
	r.credit(d, rd)
}

// foldBlock carries one block of a read-modify-write kernel on device d —
// 2 reads + 1 write on the CUs — that credits round rd's fence. It is both
// the eager fold of a staged reduction block into the local accumulator and
// the ring's final merge kernel (a local op, src == dst, crediting the
// round's own fence). Pooled like sendBlock, and its own Completion for the
// reads and the write.
type foldBlock struct {
	r     *graphRun
	d, rd int
	block units.Bytes
	left  int         // reads outstanding; zero while the write is in flight
	write sim.Handler // prebuilt: paced write time reached → write back
}

// fold starts one fold block.
func (r *graphRun) fold(d, rd int, block units.Bytes) {
	var f *foldBlock
	if ln := len(r.foldFree); ln > 0 {
		f = r.foldFree[ln-1]
		r.foldFree[ln-1] = nil
		r.foldFree = r.foldFree[:ln-1]
	} else {
		f = &foldBlock{r: r}
		f.write = f.onWrite
	}
	f.d, f.rd, f.block, f.left = d, rd, block, 2
	mem := r.o.Devices[d].Mem
	mem.TransferTo(memory.Read, r.o.Stream, block, memory.Tag{}, f)
	mem.TransferTo(memory.Read, r.o.Stream, block, memory.Tag{}, f)
}

// Complete implements memory.Completion: one of the two reads, or the write.
func (f *foldBlock) Complete(memory.Tag) {
	r := f.r
	if f.left > 0 {
		if f.left--; f.left == 0 {
			r.eng.At(r.pace(f.d, 3, f.block), f.write)
		}
		return
	}
	d, rd := f.d, f.rd
	r.foldFree = append(r.foldFree, f)
	r.credit(d, rd)
}

func (f *foldBlock) onWrite() {
	f.r.o.Devices[f.d].Mem.TransferTo(memory.Write, f.r.o.Stream, f.block, memory.Tag{}, f)
}

// credit marks one round-rd block landed at device d. A block the schedule
// never promised — a mis-route — finds its fence fired or missing; the
// per-device incoming bound already reported it, so the credit is dropped
// rather than corrupting the fence.
func (r *graphRun) credit(d, rd int) {
	if f := r.fences[d][rd]; f != nil && !f.Fired() {
		f.Done()
	}
}

// StartTopoCollective schedules a timed collective with the given algorithm
// and operation over o.Topo on eng, running onDone when every device has
// finished. The caller drives the engine.
func StartTopoCollective(eng *sim.Engine, algo Algorithm, op Op, o TopoOptions, onDone sim.Handler) error {
	r, err := newGraphRun(eng, algo, op, o, onDone)
	if err != nil {
		return err
	}
	r.start()
	return nil
}
