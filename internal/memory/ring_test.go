package memory

import (
	"math/rand"
	"testing"
)

// sliceQueue is the reference model: the pre-ring FIFO, a plain slice with
// shift-dequeue. The property test drives it and reqRing with the same
// operation sequence and demands operation-for-operation equivalence.
type sliceQueue struct {
	q []slot
}

func (s *sliceQueue) len() int { return len(s.q) }

func (s *sliceQueue) push(r slot) { s.q = append(s.q, r) }

func (s *sliceQueue) pop() slot {
	r := s.q[0]
	copy(s.q, s.q[1:])
	s.q = s.q[:len(s.q)-1]
	return r
}

// distinctSlots returns n slots with pairwise distinct identities: a slot is
// identified by its (transfer, bytes) pair, and the slots share four
// transfers so that both fields matter to the comparison.
func distinctSlots(n int) []slot {
	s := make([]slot, n)
	for i := range s {
		s[i] = slot{xf: uint32(i % 4), bytes: uint32(i/4 + 1)}
	}
	return s
}

// TestPropertyRingEquivalentToSliceQueue drives randomized push/pop
// sequences through the ring and the slice model: every pop must return the
// same slot, and the lengths must agree after every operation. The
// sequences are long enough to force repeated growth, wraparound, and
// drain-to-empty episodes.
func TestPropertyRingEquivalentToSliceQueue(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var ring reqRing
		var ref sliceQueue
		reqs := distinctSlots(64)
		// Phases with different push/pop bias exercise growth (push-heavy),
		// wraparound (balanced), and drain (pop-heavy).
		for phase, pushBias := range []int{8, 5, 2} {
			for op := 0; op < 4000; op++ {
				if ring.len() != ref.len() {
					t.Fatalf("seed %d phase %d op %d: len %d != reference %d",
						seed, phase, op, ring.len(), ref.len())
				}
				if rng.Intn(10) < pushBias || ref.len() == 0 {
					r := reqs[rng.Intn(len(reqs))]
					ring.push(r)
					ref.push(r)
				} else {
					got, want := ring.pop(), ref.pop()
					if got != want {
						t.Fatalf("seed %d phase %d op %d: pop %+v, reference %+v",
							seed, phase, op, got, want)
					}
				}
			}
		}
		// Drain both completely: the tails must agree too.
		for ref.len() > 0 {
			if got, want := ring.pop(), ref.pop(); got != want {
				t.Fatalf("seed %d drain: pop %+v, reference %+v", seed, got, want)
			}
		}
		if ring.len() != 0 {
			t.Fatalf("seed %d: ring holds %d after reference drained", seed, ring.len())
		}
	}
}

// TestRingPopEmptyPanics pins the contract pop shares with the old slice
// queue: dequeueing from empty is a programming error, not a nil.
func TestRingPopEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("pop from empty ring did not panic")
		}
	}()
	var ring reqRing
	ring.pop()
}

// TestRingGrowUnwraps forces growth while the live window wraps the buffer
// edge and checks FIFO order survives the copy.
func TestRingGrowUnwraps(t *testing.T) {
	var ring reqRing
	reqs := distinctSlots(64)
	// Advance head so the window wraps, then grow under load.
	for i := 0; i < 6; i++ {
		ring.push(reqs[i])
	}
	for i := 0; i < 6; i++ {
		if ring.pop() != reqs[i] {
			t.Fatal("warmup order broken")
		}
	}
	for i := 0; i < len(reqs); i++ { // forces multiple doublings past head
		ring.push(reqs[i])
	}
	for i := 0; i < len(reqs); i++ {
		if got := ring.pop(); got != reqs[i] {
			t.Fatalf("after grow: pop %d out of order", i)
		}
	}
}
