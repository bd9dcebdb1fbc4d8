package collective

import (
	"fmt"
	"sort"

	"t3sim/internal/interconnect"
	"t3sim/internal/memory"
	"t3sim/internal/units"
)

// AnalyticTopoTime predicts the completion time of (algorithm × op) over a
// topology with a chunk-granularity recurrence: per round, every op's
// arrival is bounded by wire serialization along its route, the sender's CU
// touch rate, and an optional receiver-side fold; each device then pays its
// round's aggregate HBM service before starting the next round. On a
// symmetric ring schedule this collapses exactly to the AnalyticRing* closed
// forms.
//
// The wire term treats each link as an independent work-conserving server
// (every byte routed through a link is serialized there, but hops do not
// wait on each other), which makes this a strict lower bound of the DES —
// the block-granularity store-and-forward engine can only add pipelining
// ramp and rounding on top. AnalyticTopoUpperTime is the matching upper
// bound; on single-hop routes the two coincide and the prediction is exact.
func AnalyticTopoTime(algo Algorithm, op Op, spec interconnect.TopoSpec, o AnalyticOptions) (units.Time, error) {
	return analyticTopo(algo, op, spec, o, false)
}

// AnalyticTopoUpperTime is the pessimistic twin of AnalyticTopoTime: each
// multi-hop transfer fully store-and-forwards chunk by chunk (hop r+1 starts
// only after hop r finishes serializing), which dominates the DES's
// block-pipelined forwarding. The differential battery brackets the DES
// between the two: lower ≤ DES ≤ upper + counted per-block slack.
func AnalyticTopoUpperTime(algo Algorithm, op Op, spec interconnect.TopoSpec, o AnalyticOptions) (units.Time, error) {
	return analyticTopo(algo, op, spec, o, true)
}

// AnalyticTopoTimeBounds returns the [lower, upper] envelope for one cell.
func AnalyticTopoTimeBounds(algo Algorithm, op Op, spec interconnect.TopoSpec, o AnalyticOptions) (lo, hi units.Time, err error) {
	if lo, err = analyticTopo(algo, op, spec, o, false); err != nil {
		return 0, 0, err
	}
	if hi, err = analyticTopo(algo, op, spec, o, true); err != nil {
		return 0, 0, err
	}
	return lo, hi, nil
}

func analyticTopo(algo Algorithm, op Op, spec interconnect.TopoSpec, o AnalyticOptions, chained bool) (units.Time, error) {
	// The routes come from the same deterministic next-hop table the DES
	// uses — routing is part of the topology's spec, not of either model.
	routes, err := spec.Routes()
	if err != nil {
		return 0, err
	}
	switch {
	case o.TotalBytes <= 0:
		return 0, fmt.Errorf("collective: TotalBytes = %v", o.TotalBytes)
	case o.MemBandwidth <= 0:
		return 0, fmt.Errorf("collective: MemBandwidth = %v", o.MemBandwidth)
	case o.CUs <= 0:
		return 0, fmt.Errorf("collective: CUs = %d", o.CUs)
	case o.PerCUMemBandwidth <= 0:
		return 0, fmt.Errorf("collective: PerCUMemBandwidth = %v", o.PerCUMemBandwidth)
	case o.Devices != 0 && o.Devices != spec.Devices:
		return 0, fmt.Errorf("collective: %d devices for %d-device topology", o.Devices, spec.Devices)
	}
	n := spec.Devices
	sched, err := buildSchedule(algo, op, n, o.TotalBytes, o.NMC)
	if err != nil {
		return 0, err
	}

	cuRate := o.cuRate()
	devReady := make([]units.Time, n)
	cuFree := make([]units.Time, n)
	arrive := make([]units.Time, n)
	memB := make([]units.Bytes, n)
	linkBusy := make([]units.Time, routes.NumLinks()) // per edge index

	ops := make([]sendOp, 0, 64)
	for _, round := range sched.rounds {
		copy(arrive, devReady)
		for d := range memB {
			memB[d] = 0
		}
		// Serve each link's round traffic in release order (devReady is
		// frozen until the round closes, so this is well-defined). For the
		// lower bound this is load-bearing: a work-conserving server is only
		// a valid bound if it never idles a link in front of released work.
		ops = append(ops[:0], round...)
		sort.SliceStable(ops, func(i, j int) bool {
			return devReady[ops[i].src] < devReady[ops[j].src]
		})
		for _, sop := range ops {
			base := devReady[sop.src]
			if sop.dst == sop.src {
				// Local merge kernel: 2 reads + 1 write.
				cu := maxTime(cuFree[sop.src], base) + cuRate.TransferTime(3*sop.bytes)
				cuFree[sop.src] = cu
				memB[sop.src] += 3 * sop.bytes
				if cu > arrive[sop.src] {
					arrive[sop.src] = cu
				}
				continue
			}
			touches := units.Bytes(sop.srcReads + 1)
			cu := maxTime(cuFree[sop.src], base) + cuRate.TransferTime(touches*sop.bytes)
			cuFree[sop.src] = cu
			memB[sop.src] += units.Bytes(sop.srcReads) * sop.bytes

			// Wire along the route. Every hop serializes the chunk no
			// earlier than the op's release and the link's busy-until, and
			// latency accumulates per hop. The two modes differ in how hops
			// couple: the lower bound treats links as independent
			// work-conserving servers (the DES's block pipelining can only
			// be slower), while the upper bound store-and-forwards the whole
			// chunk — hop r+1 waits for hop r to finish — which the DES's
			// per-block forwarding can only beat.
			st := base
			var maxEnd, lat units.Time
			cur := sop.src
			for cur != sop.dst {
				hop := routes.NextHop(cur, sop.dst)
				l, cfg := routes.Edge(cur, hop)
				hs := base
				if chained {
					hs = st
				}
				if b := linkBusy[l]; b > hs {
					hs = b
				}
				end := hs + cfg.LinkBandwidth.TransferTime(sop.bytes)
				linkBusy[l] = end
				if end > maxEnd {
					maxEnd = end
				}
				if chained {
					st = end
				}
				lat += cfg.LinkLatency
				cur = hop
			}
			wireDone := maxEnd + lat
			done := maxTime(wireDone, cu)

			// Receiver side: staging service, plus the eager fold kernel.
			// The fold cannot start before the first block lands (lower
			// bound: release plus route latency) and cannot end after the
			// whole chunk has both arrived and been folded (upper bound).
			if sop.reduce && o.NMC {
				memB[sop.dst] += 2 * sop.bytes // op-and-store update at 2x service
			} else {
				memB[sop.dst] += sop.bytes
			}
			if sop.fold && sop.reduce && !o.NMC {
				foldStart := base + lat
				if chained {
					foldStart = wireDone
				}
				fold := maxTime(cuFree[sop.dst], foldStart) + cuRate.TransferTime(3*sop.bytes)
				cuFree[sop.dst] = fold
				memB[sop.dst] += 3 * sop.bytes
				if fold > done {
					done = fold
				}
			}
			if done > arrive[sop.dst] {
				arrive[sop.dst] = done
			}
		}
		// Round close: each device pays its round's aggregate HBM service.
		// The lower bound overlaps it perfectly with the wire/CU critical
		// path (max); the upper bound serializes it after (sum) — the DES's
		// arbitration lands in between.
		for d := 0; d < n; d++ {
			memT := o.MemBandwidth.TransferTime(memB[d])
			if chained {
				devReady[d] = maxTime(arrive[d], devReady[d]) + memT
			} else {
				devReady[d] = maxTime(arrive[d], devReady[d]+memT)
			}
		}
	}

	var total units.Time
	for _, t := range devReady {
		if t > total {
			total = t
		}
	}
	return total, nil
}

// AnalyticTopoReduceScatterTime predicts a topology reduce-scatter.
func AnalyticTopoReduceScatterTime(algo Algorithm, spec interconnect.TopoSpec, o AnalyticOptions) (units.Time, error) {
	return AnalyticTopoTime(algo, ReduceScatterOp, spec, o)
}

// AnalyticTopoAllGatherTime predicts a topology all-gather.
func AnalyticTopoAllGatherTime(algo Algorithm, spec interconnect.TopoSpec, o AnalyticOptions) (units.Time, error) {
	return AnalyticTopoTime(algo, AllGatherOp, spec, o)
}

// AnalyticTopoAllReduceTime predicts a topology all-reduce.
func AnalyticTopoAllReduceTime(algo Algorithm, spec interconnect.TopoSpec, o AnalyticOptions) (units.Time, error) {
	return AnalyticTopoTime(algo, AllReduceOp, spec, o)
}

// CandidateAlgorithms lists the algorithms valid on a topology: every
// algorithm routes over every graph, but halving-doubling needs a
// power-of-two device count.
func CandidateAlgorithms(spec interconnect.TopoSpec) []Algorithm {
	out := []Algorithm{AlgoRing, AlgoTree, AlgoDirect}
	if n := spec.Devices; n >= 2 && n&(n-1) == 0 {
		out = append(out, AlgoHalvingDoubling)
	}
	return out
}

// SelectAlgorithm picks the collective algorithm for an all-reduce of the
// given size on the given topology — the Tessera-style size/topology policy
// table (§3.1), realized as an argmin over the candidates' analytic times
// under the Table 1 device parameters. Large messages land on the
// bandwidth-optimal ring, mid sizes on trees or halving-doubling where the
// graph gives them cheap routes, and tiny messages on direct sends.
func SelectAlgorithm(bytes units.Bytes, spec interconnect.TopoSpec) (Algorithm, error) {
	return SelectAlgorithmWith(AllReduceOp, spec, AnalyticOptions{
		TotalBytes:        bytes,
		MemBandwidth:      memory.DefaultConfig().TotalBandwidth,
		CUs:               80, // Table 1 collective-kernel CU share
		PerCUMemBandwidth: 16 * units.GBps,
	})
}

// SelectAlgorithmWith picks the cheapest candidate algorithm for op under
// explicit analytic parameters. Ties break toward the earlier Algorithm
// value, so the choice is deterministic.
func SelectAlgorithmWith(op Op, spec interconnect.TopoSpec, o AnalyticOptions) (Algorithm, error) {
	best := AlgoRing
	var bestTime units.Time
	found := false
	for _, algo := range CandidateAlgorithms(spec) {
		t, err := AnalyticTopoTime(algo, op, spec, o)
		if err != nil {
			return 0, err
		}
		if !found || t < bestTime {
			best, bestTime, found = algo, t, true
		}
	}
	return best, nil
}
