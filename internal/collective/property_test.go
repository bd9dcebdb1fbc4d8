package collective

import (
	"math/rand"
	"testing"
	"testing/quick"

	"t3sim/internal/memory"
	"t3sim/internal/units"
)

// TestPropertyTimedRSAlwaysCompletes: for random device counts and sizes,
// the timed reduce-scatter always drains with exact traffic accounting on
// evenly divisible sizes.
func TestPropertyTimedRSAlwaysCompletes(t *testing.T) {
	f := func(devRaw uint8, sizeRaw uint16, nmc bool) bool {
		devices := int(devRaw)%7 + 2
		size := units.Bytes(int(sizeRaw)%512+devices) * units.Bytes(devices) * units.KiB
		eng, o := harness(t, devices)
		o.TotalBytes = size
		o.NMC = nmc
		done := false
		if err := StartTopoCollective(eng, AlgoRing, ReduceScatterOp, o, func() { done = true }); err != nil {
			return false
		}
		eng.Run()
		if !done {
			return false
		}
		chunk := size / units.Bytes(devices)
		n := units.Bytes(devices)
		for _, d := range o.Devices {
			r := d.Mem.Counters().KindBytes(memory.Read)
			if nmc {
				if r != chunk*(n-1) {
					return false
				}
				if u := d.Mem.Counters().KindBytes(memory.Update); u != chunk*(n-1) {
					return false
				}
			} else {
				if r != chunk*(2*(n-1)-1+2) {
					return false
				}
				if w := d.Mem.Counters().KindBytes(memory.Write); w != chunk*n {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}

// TestPropertyTimedRSMonotoneInSize: more bytes never finish faster.
func TestPropertyTimedRSMonotoneInSize(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	run := func(size units.Bytes) units.Time {
		eng, o := harness(t, 4)
		o.TotalBytes = size
		var done units.Time
		if err := StartTopoCollective(eng, AlgoRing, ReduceScatterOp, o, func() { done = eng.Now() }); err != nil {
			t.Fatal(err)
		}
		eng.Run()
		return done
	}
	prevSize := units.Bytes(0)
	var prevTime units.Time
	for i := 0; i < 6; i++ {
		size := prevSize + units.Bytes(rng.Intn(8)+1)*units.MiB
		tm := run(size)
		if prevSize > 0 && tm <= prevTime {
			t.Fatalf("size %v (%v) not slower than %v (%v)", size, tm, prevSize, prevTime)
		}
		prevSize, prevTime = size, tm
	}
}

// TestPropertyAGNeverSlowerThanRS: all-gather does strictly less work than
// reduce-scatter for the same geometry (no reduction reads, no final RMW).
func TestPropertyAGNeverSlowerThanRS(t *testing.T) {
	for _, devices := range []int{2, 4, 8} {
		for _, size := range []units.Bytes{8 * units.MiB, 24 * units.MiB} {
			engRS, oRS := harness(t, devices)
			oRS.TotalBytes = size
			var rsT units.Time
			if err := StartTopoCollective(engRS, AlgoRing, ReduceScatterOp, oRS, func() { rsT = engRS.Now() }); err != nil {
				t.Fatal(err)
			}
			engRS.Run()

			engAG, oAG := harness(t, devices)
			oAG.TotalBytes = size
			var agT units.Time
			if err := StartTopoCollective(engAG, AlgoRing, AllGatherOp, oAG, func() { agT = engAG.Now() }); err != nil {
				t.Fatal(err)
			}
			engAG.Run()

			if agT > rsT {
				t.Errorf("n=%d size=%v: AG %v slower than RS %v", devices, size, agT, rsT)
			}
		}
	}
}
