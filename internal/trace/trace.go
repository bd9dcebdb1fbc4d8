// Package trace captures DRAM traffic timelines from the memory controller,
// backing the paper's Figure 17 (per-interval read/write/update bytes for
// the baseline GEMM versus the fused T3 run).
//
// The trace is a thin consumer of the metrics subsystem: each of Figure 17's
// four traffic classes is one metrics.TimeSeries, and the Sample view is
// reconstructed from the series on demand. NewRegistered additionally
// registers the series on a metrics.Sink so they appear in -metrics output.
package trace

import (
	"fmt"

	"t3sim/internal/memory"
	"t3sim/internal/metrics"
	"t3sim/internal/units"
)

// Sample is one time bucket of DRAM traffic, split the way Figure 17 plots
// it: producer (compute-stream) reads and writes versus communication
// (comm-stream) reads and updates.
type Sample struct {
	Start units.Time
	// ComputeRead/ComputeWrite are the producer kernel's bytes (GEMM reads,
	// GEMM writes or NMC updates).
	ComputeRead  units.Bytes
	ComputeWrite units.Bytes
	// CommRead is collective/DMA read traffic; CommWrite is incoming
	// staging/update traffic.
	CommRead  units.Bytes
	CommWrite units.Bytes
}

// Total returns all bytes in the bucket.
func (s Sample) Total() units.Bytes {
	return s.ComputeRead + s.ComputeWrite + s.CommRead + s.CommWrite
}

// Trace aggregates issued memory requests into fixed-width buckets, one
// metrics.TimeSeries per Figure 17 traffic class. It implements
// memory.Observer.
type Trace struct {
	bucket units.Time
	// cells holds the four traffic classes in Sample field order.
	computeRead  *metrics.TimeSeries
	computeWrite *metrics.TimeSeries
	commRead     *metrics.TimeSeries
	commWrite    *metrics.TimeSeries
}

// New returns a trace with the given bucket width.
func New(bucket units.Time) (*Trace, error) {
	if bucket <= 0 {
		return nil, fmt.Errorf("trace: bucket = %v", bucket)
	}
	t := &Trace{bucket: bucket}
	for _, cell := range []**metrics.TimeSeries{
		&t.computeRead, &t.computeWrite, &t.commRead, &t.commWrite,
	} {
		s, err := metrics.NewTimeSeries(bucket)
		if err != nil {
			return nil, err
		}
		*cell = s
	}
	return t, nil
}

// NewRegistered returns a trace whose four series are registered on m under
// "trace.compute_read_bytes", "trace.compute_write_bytes",
// "trace.comm_read_bytes" and "trace.comm_write_bytes", so the Figure 17
// timeline rides along in a -metrics export. A nil sink is equivalent to New.
func NewRegistered(m metrics.Sink, bucket units.Time) (*Trace, error) {
	if m == nil {
		return New(bucket)
	}
	if bucket <= 0 {
		return nil, fmt.Errorf("trace: bucket = %v", bucket)
	}
	t := &Trace{bucket: bucket}
	t.computeRead = m.Series("trace.compute_read_bytes", bucket)
	t.computeWrite = m.Series("trace.compute_write_bytes", bucket)
	t.commRead = m.Series("trace.comm_read_bytes", bucket)
	t.commWrite = m.Series("trace.comm_write_bytes", bucket)
	return t, nil
}

// OnIssue implements memory.Observer.
func (t *Trace) OnIssue(now units.Time, r memory.Request) {
	switch {
	case r.Stream == memory.StreamCompute && r.Kind == memory.Read:
		t.computeRead.Add(now, int64(r.Bytes))
	case r.Stream == memory.StreamCompute:
		t.computeWrite.Add(now, int64(r.Bytes))
	case r.Kind == memory.Read:
		t.commRead.Add(now, int64(r.Bytes))
	default:
		t.commWrite.Add(now, int64(r.Bytes))
	}
}

// Samples returns the bucketed timeline, reconstructed from the four series
// (zero-filled to the longest one).
func (t *Trace) Samples() []Sample {
	n := t.computeRead.Len()
	for _, l := range []int{t.computeWrite.Len(), t.commRead.Len(), t.commWrite.Len()} {
		if l > n {
			n = l
		}
	}
	if n == 0 {
		return nil
	}
	out := make([]Sample, n)
	for i := range out {
		out[i] = Sample{
			Start:        units.Time(i) * t.bucket,
			ComputeRead:  units.Bytes(t.computeRead.BucketValue(i)),
			ComputeWrite: units.Bytes(t.computeWrite.BucketValue(i)),
			CommRead:     units.Bytes(t.commRead.BucketValue(i)),
			CommWrite:    units.Bytes(t.commWrite.BucketValue(i)),
		}
	}
	return out
}

// Bucket returns the bucket width.
func (t *Trace) Bucket() units.Time { return t.bucket }

// TotalBytes sums the whole trace.
func (t *Trace) TotalBytes() units.Bytes {
	var total units.Bytes
	for _, s := range t.Samples() {
		total += s.Total()
	}
	return total
}

// PeakBucket returns the sample with the most traffic (zero value if empty).
func (t *Trace) PeakBucket() Sample {
	var peak Sample
	for _, s := range t.Samples() {
		if s.Total() > peak.Total() {
			peak = s
		}
	}
	return peak
}
