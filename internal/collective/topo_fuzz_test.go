package collective

import (
	"fmt"
	"testing"

	"t3sim/internal/check"
	"t3sim/internal/interconnect"
	"t3sim/internal/units"
)

// fuzzSpec decodes a topology from three bytes: kind, then shape
// parameters. Every decoded spec is valid by construction.
func fuzzSpec(kind, a, b byte) interconnect.TopoSpec {
	cfg := interconnect.DefaultConfig()
	switch kind % 4 {
	case 0:
		return interconnect.RingTopo(2+int(a)%7, cfg)
	case 1:
		return interconnect.TorusTopo(2+int(a)%2, 2+int(b)%3, cfg)
	case 2:
		return interconnect.SwitchTopo(2+int(a)%7, cfg)
	default:
		inter := cfg
		inter.LinkBandwidth = 25 * units.GBps
		inter.LinkLatency = 2 * units.Microsecond
		return interconnect.HierarchicalTopo(2+int(a)%2, 1+int(b)%4, cfg, inter)
	}
}

// FuzzTopoCollectiveConservation fuzzes (topology, N, algorithm, op, size,
// block split) through the timed engine and holds it to the conservation
// oracle (runConserved): the wire ledger must balance, every device must
// stage exactly the wire bytes its schedule owes it — right bytes, right
// device, exactly once — and every device must finish.
func FuzzTopoCollectiveConservation(f *testing.F) {
	// Torus and tree-on-ring shapes seed the corpus (the multi-hop routes);
	// the rest of the tuple picks algorithm/op/size/block.
	f.Add(byte(1), byte(0), byte(1), byte(1), byte(2), byte(9), byte(1))
	f.Add(byte(0), byte(3), byte(0), byte(1), byte(0), byte(16), byte(0))
	f.Add(byte(2), byte(6), byte(0), byte(3), byte(2), byte(33), byte(2))
	f.Add(byte(3), byte(1), byte(2), byte(0), byte(1), byte(7), byte(1))
	f.Fuzz(func(t *testing.T, kind, a, b, algoSel, opSel, sizeSel, blockSel byte) {
		spec := fuzzSpec(kind, a, b)
		cands := CandidateAlgorithms(spec)
		algo := cands[int(algoSel)%len(cands)]
		op := Op(int(opSel) % 3)

		eng, o := topoHarness(t, spec)
		o.TotalBytes = 16*units.KiB + units.Bytes(sizeSel)*3*units.KiB + units.Bytes(a)
		o.BlockBytes = 4*units.KiB + units.Bytes(blockSel)*units.KiB
		o.NMC = opSel&4 != 0
		runConserved(t, eng, algo, op, o, check.New(), fmt.Sprintf("%v/%v/%v", spec.Kind, algo, op))
	})
}
