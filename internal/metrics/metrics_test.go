package metrics

import (
	"reflect"
	"strings"
	"testing"

	"t3sim/internal/units"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("memory.comm.read_bytes")
	c.Add(10)
	c.Inc()
	if got := c.Value(); got != 11 {
		t.Errorf("counter = %d, want 11", got)
	}
	if r.Counter("memory.comm.read_bytes") != c {
		t.Error("same name should return the same counter")
	}
	if got := r.CounterValue("memory.comm.read_bytes"); got != 11 {
		t.Errorf("CounterValue = %d, want 11", got)
	}
	if got := r.CounterValue("absent"); got != 0 {
		t.Errorf("absent CounterValue = %d, want 0", got)
	}

	g := r.Gauge("t3core.tracker.max_live")
	g.Set(5)
	g.SetMax(3) // lower: ignored
	g.SetMax(9)
	if got := g.Value(); got != 9 {
		t.Errorf("gauge = %d, want 9", got)
	}
	g.Add(3)
	g.Add(-5)
	if got := g.Value(); got != 7 {
		t.Errorf("gauge after Add = %d, want 7", got)
	}
}

func TestNilHandlesAreInert(t *testing.T) {
	var c *Counter
	var g *Gauge
	var s *TimeSeries
	var tr *Track
	c.Add(5)
	c.Inc()
	g.Set(1)
	g.SetMax(2)
	g.Add(4)
	s.Add(units.Microsecond, 3)
	tr.Span("x", 0, 10)
	tr.Instant("y", 5)
	if c.Value() != 0 || g.Value() != 0 || s.Len() != 0 || s.Width() != 0 ||
		s.BucketValue(0) != 0 || tr.Events() != 0 || tr.Instants("y") != nil {
		t.Error("nil handles must read as zero")
	}
}

// TestNilHandlesAllocateNothing is the nil-sink fast-path guard: every
// hot-path instrument operation on nil handles must be allocation-free, so
// uninstrumented simulations keep their exact allocation profile.
func TestNilHandlesAllocateNothing(t *testing.T) {
	var c *Counter
	var g *Gauge
	var s *TimeSeries
	var tr *Track
	allocs := testing.AllocsPerRun(1000, func() {
		c.Add(1)
		c.Inc()
		g.Set(1)
		g.SetMax(2)
		g.Add(-1)
		s.Add(0, 1)
		tr.Span("span", 0, 1)
		tr.Instant("instant", 0)
	})
	if allocs != 0 {
		t.Errorf("nil-handle ops allocate %.1f/op, want 0", allocs)
	}
}

func TestTimeSeriesBucketing(t *testing.T) {
	s, err := NewTimeSeries(units.Microsecond)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewTimeSeries(0); err == nil {
		t.Error("zero width: expected error")
	}
	s.Add(100*units.Nanosecond, 10)
	s.Add(900*units.Nanosecond, 20)
	s.Add(2500*units.Nanosecond, 40)
	if s.Len() != 3 {
		t.Fatalf("Len = %d, want 3", s.Len())
	}
	if s.BucketValue(0) != 30 || s.BucketValue(1) != 0 || s.BucketValue(2) != 40 {
		t.Errorf("buckets = %d,%d,%d", s.BucketValue(0), s.BucketValue(1), s.BucketValue(2))
	}
	if s.BucketValue(-1) != 0 || s.BucketValue(99) != 0 {
		t.Error("out-of-range buckets must read 0")
	}
	if s.Width() != units.Microsecond {
		t.Errorf("Width = %v", s.Width())
	}
}

func TestScopePrefixing(t *testing.T) {
	r := NewRegistry()
	sc := r.Scope("fused/T-NLG")
	sc.Counter("memory.read_bytes").Add(7)
	if got := r.CounterValue("fused/T-NLG/memory.read_bytes"); got != 7 {
		t.Errorf("scoped counter = %d, want 7", got)
	}
	inner := sc.Scope("dev0")
	inner.Gauge("depth").Set(3)
	if got := r.GaugeValue("fused/T-NLG/dev0/depth"); got != 3 {
		t.Errorf("nested scoped gauge = %d, want 3", got)
	}
	sc.Series("traffic", units.Microsecond).Add(0, 1)
	if _, ok := r.series["fused/T-NLG/traffic"]; !ok {
		t.Error("scoped series not registered under the prefixed name")
	}
}

func TestTimelineDisabledByDefault(t *testing.T) {
	r := NewRegistry()
	if tr := r.Track("gpu"); tr != nil {
		t.Error("Track must be nil while the timeline is disabled")
	}
	if r.TimelineEnabled() {
		t.Error("timeline enabled before EnableTimeline")
	}
	r.EnableTimeline()
	if tr := r.Track("gpu"); tr == nil {
		t.Error("Track must be live after EnableTimeline")
	}
}

func TestTrackRecording(t *testing.T) {
	r := NewRegistry()
	r.EnableTimeline()
	tr := r.Scope("run").Track("gpu")
	tr.Span("stage0.compute", 10, 30)
	tr.Instant("gemm-done", 30)
	tr.Instant("dma-triggered", 12)
	tr.Instant("gemm-done", 40)
	if tr.Events() != 4 {
		t.Errorf("events = %d, want 4", tr.Events())
	}
	if got := tr.Instants("gemm-done"); !reflect.DeepEqual(got, []units.Time{30, 40}) {
		t.Errorf("Instants(gemm-done) = %v, want [30 40]", got)
	}
	if got := tr.Instants("stage0.compute"); got != nil {
		t.Errorf("Instants must skip spans, got %v", got)
	}
	if got := r.Scope("run").Track("gpu"); got != tr {
		t.Error("same scope+track name must return the same track")
	}
	names := r.TrackNames()
	if len(names) != 1 || names[0] != "run/gpu" {
		t.Errorf("TrackNames = %v", names)
	}
}

func TestSpanPanicsOnInvertedRange(t *testing.T) {
	r := NewRegistry()
	r.EnableTimeline()
	tr := r.Track("x")
	defer func() {
		if recover() == nil {
			t.Error("inverted span should panic")
		}
	}()
	tr.Span("bad", 10, 5)
}

func TestWriteMetricsStableAndSorted(t *testing.T) {
	r := NewRegistry()
	r.Counter("b.second").Add(2)
	r.Counter("a.first").Add(1)
	r.Gauge("g").Set(-4)
	r.Series("s", 2*units.Nanosecond).Add(5*units.Nanosecond, 9)

	var one, two strings.Builder
	if err := r.WriteMetrics(&one); err != nil {
		t.Fatal(err)
	}
	if err := r.WriteMetrics(&two); err != nil {
		t.Fatal(err)
	}
	if one.String() != two.String() {
		t.Error("WriteMetrics not deterministic")
	}
	out := one.String()
	if strings.Index(out, "a.first") > strings.Index(out, "b.second") {
		t.Error("counters not sorted by name")
	}
	want := `{
  "counters": {
    "a.first": 1,
    "b.second": 2
  },
  "gauges": {
    "g": -4
  },
  "series": {
    "s": {"bucket_ps": 2000, "values": [0, 0, 9]}
  }
}
`
	if out != want {
		t.Errorf("WriteMetrics output:\n%s\nwant:\n%s", out, want)
	}
}
