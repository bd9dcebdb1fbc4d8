package collective

import (
	"fmt"

	"t3sim/internal/units"
)

// Algorithm selects the collective schedule — which device sends what to
// whom in which round. Every algorithm runs on every topology (multi-hop
// sends store-and-forward through the graph); which one is fastest depends
// on message size and topology, which is what SelectAlgorithm encodes.
type Algorithm int

const (
	// AlgoRing is the bandwidth-optimal N−1-round rotation (§2.3) — the
	// paper's single collective, generalized to route over any graph.
	AlgoRing Algorithm = iota
	// AlgoTree is the binomial tree: reduce-to-root + scatter (or gather +
	// broadcast), ~2·log2(N) rounds moving large per-round volumes —
	// latency-lean, bandwidth-heavy.
	AlgoTree
	// AlgoHalvingDoubling is recursive halving (reduce-scatter) and
	// doubling (all-gather): log2(N) rounds of pairwise exchanges with
	// geometrically shrinking volume; power-of-two device counts only.
	AlgoHalvingDoubling
	// AlgoDirect sends every chunk straight to its final owner in one
	// round — minimal latency, maximal fan-out; the tiny-message policy.
	AlgoDirect
)

// String names the algorithm the way the CLIs and tables spell it.
func (a Algorithm) String() string {
	switch a {
	case AlgoRing:
		return "ring"
	case AlgoTree:
		return "tree"
	case AlgoHalvingDoubling:
		return "halving-doubling"
	case AlgoDirect:
		return "direct"
	}
	return fmt.Sprintf("Algorithm(%d)", int(a))
}

// Op selects which collective operation a schedule performs.
type Op int

const (
	ReduceScatterOp Op = iota
	AllGatherOp
	AllReduceOp
)

// String names the operation.
func (o Op) String() string {
	switch o {
	case ReduceScatterOp:
		return "reduce-scatter"
	case AllGatherOp:
		return "all-gather"
	case AllReduceOp:
		return "all-reduce"
	}
	return fmt.Sprintf("Op(%d)", int(o))
}

// sendOp is one scheduled transfer. dst == src is a local merge kernel (the
// ring's final read-modify-write): 2 reads + 1 write over bytes, no wire.
type sendOp struct {
	src, dst int
	bytes    units.Bytes
	// srcReads is how many memory reads the sender issues per block before
	// the wire (1 = fresh local data; 2 = local + staged copy to reduce,
	// the ring's deferred-fold convention). Local merge kernels ignore it.
	srcReads int
	// reduce marks the transfer as a reduction contribution: under NMC the
	// receiver stages it as an op-and-store Update instead of a Write.
	reduce bool
	// fold makes a non-NMC receiver run a fold kernel (2 reads + 1 write)
	// after staging, combining the arrival into its local accumulator —
	// the eager-fold convention tree/halving-doubling/direct use.
	fold bool
}

// schedule is a round-ordered send plan. Within a round every op may run
// concurrently; a device begins round r+1 only after all round-r ops
// destined to it have landed (and folded). The builder already applied the
// NMC collapse: under NMC senders always read once (partials accumulate in
// memory), receivers stage reductions as Updates, and merge/fold work
// disappears.
type schedule struct {
	n      int
	nmc    bool
	rounds [][]sendOp
}

// buildSchedule constructs the (algorithm × op) plan for n devices moving
// total bytes.
func buildSchedule(algo Algorithm, op Op, n int, total units.Bytes, nmc bool) (*schedule, error) {
	if n < 2 {
		return nil, fmt.Errorf("collective: schedule needs >= 2 devices, got %d", n)
	}
	if total <= 0 {
		return nil, fmt.Errorf("collective: TotalBytes = %v", total)
	}
	if algo == AlgoHalvingDoubling && n&(n-1) != 0 {
		return nil, fmt.Errorf("collective: halving-doubling needs a power-of-two device count, got %d", n)
	}
	s := &schedule{n: n, nmc: nmc}
	chunks := chunkSizes(total, n)
	switch algo {
	case AlgoRing:
		switch op {
		case ReduceScatterOp:
			s.ringReduceScatter(chunks)
		case AllGatherOp:
			s.ringAllGather(chunks, identOwner)
		case AllReduceOp:
			s.ringReduceScatter(chunks)
			s.ringAllGather(chunks, func(d, n int) int { return OwnedChunk(d, n) })
		}
	case AlgoTree:
		switch op {
		case ReduceScatterOp:
			s.treeReduce(total)
			s.treeScatter(chunks)
		case AllGatherOp:
			s.treeGather(chunks)
			s.treeBroadcast(total)
		case AllReduceOp:
			s.treeReduce(total)
			s.treeBroadcast(total)
		}
	case AlgoHalvingDoubling:
		switch op {
		case ReduceScatterOp:
			s.hdHalving(chunks)
		case AllGatherOp:
			s.hdDoubling(chunks)
		case AllReduceOp:
			s.hdHalving(chunks)
			s.hdDoubling(chunks)
		}
	case AlgoDirect:
		switch op {
		case ReduceScatterOp:
			s.directReduceScatter(chunks)
		case AllGatherOp:
			s.directAllGather(chunks)
		case AllReduceOp:
			s.directReduceScatter(chunks)
			s.directAllGather(chunks)
		}
	default:
		return nil, fmt.Errorf("collective: unknown algorithm %v", algo)
	}
	return s, nil
}

// identOwner is the standalone all-gather ownership convention: device d
// starts with chunk d.
func identOwner(d, n int) int { return d }

// chunkRange sums chunks [a, b).
func chunkRange(chunks []units.Bytes, a, b int) units.Bytes {
	var total units.Bytes
	for i := a; i < b; i++ {
		total += chunks[i]
	}
	return total
}

// ringReduceScatter is the §2.3 rotation: N−1 rounds of neighbor sends with
// the deferred-fold convention (senders re-read the staged copy), then one
// local merge round over the owned chunk (eliminated by NMC).
func (s *schedule) ringReduceScatter(chunks []units.Bytes) {
	n := s.n
	for r := 0; r < n-1; r++ {
		var ops []sendOp
		for d := 0; d < n; d++ {
			reads := 2
			if r == 0 || s.nmc {
				reads = 1
			}
			ops = append(ops, sendOp{src: d, dst: (d + 1) % n,
				bytes: chunks[mod(d-1-r, n)], srcReads: reads, reduce: true})
		}
		s.rounds = append(s.rounds, ops)
	}
	if !s.nmc {
		var merge []sendOp
		for d := 0; d < n; d++ {
			merge = append(merge, sendOp{src: d, dst: d, bytes: chunks[OwnedChunk(d, n)], reduce: true})
		}
		s.rounds = append(s.rounds, merge)
	}
}

// ringAllGather is the same rotation without reductions; owner gives the
// chunk each device starts from (identity standalone, the reduce-scatter
// ownership inside an all-reduce).
func (s *schedule) ringAllGather(chunks []units.Bytes, owner func(d, n int) int) {
	n := s.n
	for r := 0; r < n-1; r++ {
		var ops []sendOp
		for d := 0; d < n; d++ {
			ops = append(ops, sendOp{src: d, dst: (d + 1) % n,
				bytes: chunks[mod(owner(d, n)-r, n)], srcReads: 1})
		}
		s.rounds = append(s.rounds, ops)
	}
}

// treeReduce folds every device's full vector to root 0 along a binomial
// tree: round r pairs devices 2^r apart, receivers eagerly fold.
func (s *schedule) treeReduce(total units.Bytes) {
	for dist := 1; dist < s.n; dist *= 2 {
		var ops []sendOp
		for src := dist; src < s.n; src += 2 * dist {
			ops = append(ops, sendOp{src: src, dst: src - dist,
				bytes: total, srcReads: 1, reduce: true, fold: true})
		}
		s.rounds = append(s.rounds, ops)
	}
}

// treeScatter distributes the reduced chunks from root 0: each round halves
// the subtree, handing the upper half-range to its new owner.
func (s *schedule) treeScatter(chunks []units.Bytes) {
	for dist := topDist(s.n); dist >= 1; dist /= 2 {
		var ops []sendOp
		for src := 0; src < s.n; src += 2 * dist {
			if peer := src + dist; peer < s.n {
				hi := src + 2*dist
				if hi > s.n {
					hi = s.n
				}
				ops = append(ops, sendOp{src: src, dst: peer,
					bytes: chunkRange(chunks, peer, hi), srcReads: 1})
			}
		}
		s.rounds = append(s.rounds, ops)
	}
}

// treeGather concentrates the per-device chunks at root 0 (the mirror of
// treeScatter).
func (s *schedule) treeGather(chunks []units.Bytes) {
	for dist := 1; dist < s.n; dist *= 2 {
		var ops []sendOp
		for src := dist; src < s.n; src += 2 * dist {
			hi := src + dist
			if hi > s.n {
				hi = s.n
			}
			ops = append(ops, sendOp{src: src, dst: src - dist,
				bytes: chunkRange(chunks, src, hi), srcReads: 1})
		}
		s.rounds = append(s.rounds, ops)
	}
}

// treeBroadcast pushes the full vector from root 0 down the binomial tree.
func (s *schedule) treeBroadcast(total units.Bytes) {
	for dist := topDist(s.n); dist >= 1; dist /= 2 {
		var ops []sendOp
		for src := 0; src < s.n; src += 2 * dist {
			if peer := src + dist; peer < s.n {
				ops = append(ops, sendOp{src: src, dst: peer, bytes: total, srcReads: 1})
			}
		}
		s.rounds = append(s.rounds, ops)
	}
}

// topDist is the largest power of two strictly below n — the first scatter
// and broadcast stride.
func topDist(n int) int {
	d := 1
	for d*2 < n {
		d *= 2
	}
	return d
}

// hdHalving is the recursive-halving reduce-scatter: log2(N) rounds of
// pairwise exchanges; each device keeps the half-range matching its own
// address bit and folds the arriving half, ending with chunk d.
func (s *schedule) hdHalving(chunks []units.Bytes) {
	n := s.n
	lo := make([]int, n)
	hi := make([]int, n)
	for d := range hi {
		hi[d] = n
	}
	for m := n / 2; m >= 1; m /= 2 {
		var ops []sendOp
		for d := 0; d < n; d++ {
			mid := (lo[d] + hi[d]) / 2
			if d&m == 0 {
				ops = append(ops, sendOp{src: d, dst: d ^ m,
					bytes: chunkRange(chunks, mid, hi[d]), srcReads: 1, reduce: true, fold: true})
			} else {
				ops = append(ops, sendOp{src: d, dst: d ^ m,
					bytes: chunkRange(chunks, lo[d], mid), srcReads: 1, reduce: true, fold: true})
			}
		}
		for d := 0; d < n; d++ {
			mid := (lo[d] + hi[d]) / 2
			if d&m == 0 {
				hi[d] = mid
			} else {
				lo[d] = mid
			}
		}
		s.rounds = append(s.rounds, ops)
	}
}

// hdDoubling is the recursive-doubling all-gather: the halving exchange in
// reverse, with copies instead of reductions.
func (s *schedule) hdDoubling(chunks []units.Bytes) {
	n := s.n
	lo := make([]int, n)
	hi := make([]int, n)
	for d := range lo {
		lo[d] = d
		hi[d] = d + 1
	}
	for m := 1; m < n; m *= 2 {
		var ops []sendOp
		for d := 0; d < n; d++ {
			ops = append(ops, sendOp{src: d, dst: d ^ m,
				bytes: chunkRange(chunks, lo[d], hi[d]), srcReads: 1})
		}
		for d := 0; d < n; d++ {
			p := d ^ m
			if lo[p] < lo[d] {
				lo[d] = lo[p]
			}
			if hi[p] > hi[d] {
				hi[d] = hi[p]
			}
		}
		s.rounds = append(s.rounds, ops)
	}
}

// directReduceScatter sends chunk p straight to device p from everyone in a
// single round; receivers eagerly fold each arrival.
func (s *schedule) directReduceScatter(chunks []units.Bytes) {
	var ops []sendOp
	for d := 0; d < s.n; d++ {
		for p := 0; p < s.n; p++ {
			if p != d {
				ops = append(ops, sendOp{src: d, dst: p,
					bytes: chunks[p], srcReads: 1, reduce: true, fold: true})
			}
		}
	}
	s.rounds = append(s.rounds, ops)
}

// directAllGather sends device d's chunk straight to every peer in a single
// round.
func (s *schedule) directAllGather(chunks []units.Bytes) {
	var ops []sendOp
	for d := 0; d < s.n; d++ {
		for p := 0; p < s.n; p++ {
			if p != d {
				ops = append(ops, sendOp{src: d, dst: p, bytes: chunks[d], srcReads: 1})
			}
		}
	}
	s.rounds = append(s.rounds, ops)
}

// ScheduleStats reports the shape of an (algorithm × op) schedule — round
// count, total wire ops, and total pipeline blocks — for callers that build
// counted error allowances (the differential battery charges the DES's
// per-block store-and-forward and rounding overheads per round and per
// block).
func ScheduleStats(algo Algorithm, op Op, n int, total, block units.Bytes, nmc bool) (rounds, wireOps, blocks int, err error) {
	s, err := buildSchedule(algo, op, n, total, nmc)
	if err != nil {
		return 0, 0, 0, err
	}
	rounds = len(s.rounds)
	for _, round := range s.rounds {
		for _, sop := range round {
			if sop.src == sop.dst {
				continue
			}
			wireOps++
			blocks += len(splitBlocks(sop.bytes, block))
		}
	}
	return rounds, wireOps, blocks, nil
}

// incomingBlocks counts the pipeline blocks device d must stage (or merge)
// in round r.
func (s *schedule) incomingBlocks(d, r int, blockBytes units.Bytes) int {
	total := 0
	for _, op := range s.rounds[r] {
		if op.dst == d {
			total += len(splitBlocks(op.bytes, blockBytes))
		}
	}
	return total
}

// expectedIncomingBytes sums the wire bytes the schedule delivers to device
// d over the whole run — the per-device conservation bound a mis-routed
// chunk violates.
func (s *schedule) expectedIncomingBytes(d int) int64 {
	var total int64
	for _, round := range s.rounds {
		for _, op := range round {
			if op.dst == d && op.src != d {
				total += int64(op.bytes)
			}
		}
	}
	return total
}

// chunkSizes splits total into n chunks, mirroring ChunkBounds over bytes.
func chunkSizes(total units.Bytes, n int) []units.Bytes {
	bounds := ChunkBounds(int(total), n)
	out := make([]units.Bytes, n)
	for i, b := range bounds {
		out[i] = units.Bytes(b[1] - b[0])
	}
	return out
}

// splitBlocks splits a chunk into pipeline blocks of at most blockBytes.
func splitBlocks(c, blockBytes units.Bytes) []units.Bytes {
	var out []units.Bytes
	for c > 0 {
		b := blockBytes
		if c < b {
			b = c
		}
		out = append(out, b)
		c -= b
	}
	return out
}
