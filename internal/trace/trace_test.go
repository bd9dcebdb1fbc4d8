package trace

import (
	"testing"

	"t3sim/internal/memory"
	"t3sim/internal/units"
)

func TestNewValidation(t *testing.T) {
	if _, err := New(0); err == nil {
		t.Error("zero bucket: expected error")
	}
	if _, err := New(-1); err == nil {
		t.Error("negative bucket: expected error")
	}
}

func TestBucketing(t *testing.T) {
	tr, err := New(1 * units.Microsecond)
	if err != nil {
		t.Fatal(err)
	}
	tr.OnIssue(100*units.Nanosecond, memory.Request{Kind: memory.Read, Stream: memory.StreamCompute, Bytes: 10})
	tr.OnIssue(900*units.Nanosecond, memory.Request{Kind: memory.Write, Stream: memory.StreamCompute, Bytes: 20})
	tr.OnIssue(1500*units.Nanosecond, memory.Request{Kind: memory.Update, Stream: memory.StreamComm, Bytes: 30})
	tr.OnIssue(2500*units.Nanosecond, memory.Request{Kind: memory.Read, Stream: memory.StreamComm, Bytes: 40})

	s := tr.Samples()
	if len(s) != 3 {
		t.Fatalf("samples = %d, want 3", len(s))
	}
	if s[0].ComputeRead != 10 || s[0].ComputeWrite != 20 {
		t.Errorf("bucket 0 = %+v", s[0])
	}
	if s[1].CommWrite != 30 {
		t.Errorf("bucket 1 = %+v", s[1])
	}
	if s[2].CommRead != 40 {
		t.Errorf("bucket 2 = %+v", s[2])
	}
	if s[1].Start != 1*units.Microsecond {
		t.Errorf("bucket 1 start = %v", s[1].Start)
	}
	if tr.TotalBytes() != 100 {
		t.Errorf("total = %v, want 100", tr.TotalBytes())
	}
	if got := tr.PeakBucket(); got.Total() != 40 {
		t.Errorf("peak = %+v", got)
	}
	if tr.Bucket() != 1*units.Microsecond {
		t.Errorf("Bucket = %v", tr.Bucket())
	}
}

func TestGapsAreZeroFilled(t *testing.T) {
	tr, _ := New(1 * units.Microsecond)
	tr.OnIssue(5500*units.Nanosecond, memory.Request{Kind: memory.Read, Stream: memory.StreamCompute, Bytes: 1})
	if len(tr.Samples()) != 6 {
		t.Fatalf("samples = %d, want 6", len(tr.Samples()))
	}
	for i := 0; i < 5; i++ {
		if tr.Samples()[i].Total() != 0 {
			t.Errorf("bucket %d not empty", i)
		}
	}
}

func TestEmptyTrace(t *testing.T) {
	tr, _ := New(units.Microsecond)
	if tr.TotalBytes() != 0 || tr.PeakBucket().Total() != 0 || len(tr.Samples()) != 0 {
		t.Error("empty trace should be zeroed")
	}
}
