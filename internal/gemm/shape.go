// Package gemm models the structure of tiled GPU GEMM kernels at the level
// T3 depends on (§2.5, §4.2 of the paper): a C[M×N] = A[M×K]·B[K×N] kernel
// is blocked into workgroup (WG) output tiles, each WG's tile is divided
// among its wavefronts (WFs), and the WG grid executes in "stages" (waves)
// bounded by how many WGs the compute units can hold concurrently.
//
// Tensor parallelism slices the K (dot-product) dimension: compute per WG
// shrinks but the output size, WG count and WG stages are unchanged — the
// observation T3's fine-grained overlap is built on.
package gemm

import (
	"fmt"
	"math"

	"t3sim/internal/units"
)

// Shape describes one GEMM: C[M×N] += A[M×K] · B[K×N].
type Shape struct {
	M, N, K int
	// ElemBytes is the element size (2 for the paper's FP16 runs).
	ElemBytes units.Bytes
	// TransA/TransB mark transposed operands as seen by the kernel. Forward
	// Transformer GEMMs read transposed weights, backward ones do not
	// (§5.2); transposed layouts stride awkwardly and cost some efficiency.
	TransA, TransB bool
}

// Validate reports whether the shape is usable.
func (s Shape) Validate() error {
	if s.M <= 0 || s.N <= 0 || s.K <= 0 {
		return fmt.Errorf("gemm: non-positive dimension in %v", s)
	}
	if s.ElemBytes <= 0 {
		return fmt.Errorf("gemm: non-positive element size in %v", s)
	}
	return nil
}

// checkSizes reports the first size product of s that does not fit in an
// int64: the C, A and B footprints in bytes and the FLOP count. The
// accessors below multiply without checks, so a shape that passes here
// cannot wrap in any of them.
func (s Shape) checkSizes() error {
	m, n, k, e := int64(s.M), int64(s.N), int64(s.K), int64(s.ElemBytes)
	for _, p := range []struct {
		name    string
		factors []int64
	}{
		{"output bytes M·N·ElemBytes", []int64{m, n, e}},
		{"operand A bytes M·K·ElemBytes", []int64{m, k, e}},
		{"operand B bytes K·N·ElemBytes", []int64{k, n, e}},
		{"FLOPs 2·M·N·K", []int64{2, m, n, k}},
	} {
		if _, ok := checkedProduct(p.factors...); !ok {
			return fmt.Errorf("gemm: %v: %s overflows int64", s, p.name)
		}
	}
	return nil
}

// checkedProduct multiplies non-negative factors, reporting false when the
// product does not fit in an int64.
func checkedProduct(factors ...int64) (int64, bool) {
	p := int64(1)
	for _, f := range factors {
		if f != 0 && p > math.MaxInt64/f {
			return 0, false
		}
		p *= f
	}
	return p, true
}

// String renders the shape compactly.
func (s Shape) String() string {
	ta, tb := "N", "N"
	if s.TransA {
		ta = "T"
	}
	if s.TransB {
		tb = "T"
	}
	return fmt.Sprintf("GEMM[%dx%dx%d %s%s e%d]", s.M, s.N, s.K, ta, tb, int64(s.ElemBytes))
}

// FLOPs returns the multiply-accumulate work, counting one MAC as two ops.
func (s Shape) FLOPs() int64 { return 2 * int64(s.M) * int64(s.N) * int64(s.K) }

// OutputBytes returns the size of C.
func (s Shape) OutputBytes() units.Bytes {
	return units.Bytes(int64(s.M)*int64(s.N)) * s.ElemBytes
}

// ABytes returns the size of operand A.
func (s Shape) ABytes() units.Bytes {
	return units.Bytes(int64(s.M)*int64(s.K)) * s.ElemBytes
}

// BBytes returns the size of operand B.
func (s Shape) BBytes() units.Bytes {
	return units.Bytes(int64(s.K)*int64(s.N)) * s.ElemBytes
}

// InputBytes returns the combined operand footprint.
func (s Shape) InputBytes() units.Bytes { return s.ABytes() + s.BBytes() }

// SliceK returns the tensor-parallel slice of s across tp devices: K is
// divided (rounded up so no work is lost), M, N and the output are unchanged.
// This is the row-parallel slicing whose partial outputs need an all-reduce
// (§2.4).
func (s Shape) SliceK(tp int) (Shape, error) {
	if tp <= 0 {
		return Shape{}, fmt.Errorf("gemm: SliceK degree %d, must be positive", tp)
	}
	if tp > s.K {
		return Shape{}, fmt.Errorf("gemm: SliceK degree %d exceeds K=%d", tp, s.K)
	}
	out := s
	out.K = int(units.CeilDiv(int64(s.K), int64(tp)))
	return out, nil
}

// SliceN returns the column-parallel slice of s across tp devices: each
// device computes a complete N/tp shard of the output (rounded up). Shards
// need no reduction; gathering them is the all-gather fusion target of
// §7.1/§7.2.
func (s Shape) SliceN(tp int) (Shape, error) {
	if tp <= 0 {
		return Shape{}, fmt.Errorf("gemm: SliceN degree %d, must be positive", tp)
	}
	if tp > s.N {
		return Shape{}, fmt.Errorf("gemm: SliceN degree %d exceeds N=%d", tp, s.N)
	}
	out := s
	out.N = int(units.CeilDiv(int64(s.N), int64(tp)))
	return out, nil
}
