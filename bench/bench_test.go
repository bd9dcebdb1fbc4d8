package main

import (
	"math"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"t3sim/internal/experiments"
)

// TestMetricsMatchManifest pins BENCHMARK.json to the code: the same
// workloads in the same order, and the same metrics with the same units,
// and the results carry exactly the manifest's metrics.
func TestMetricsMatchManifest(t *testing.T) {
	m, err := readManifest("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range m.Workloads {
		names = append(names, w.Name)
	}
	var code []string
	for _, w := range workloads {
		code = append(code, w.name)
	}
	if !reflect.DeepEqual(names, code) {
		t.Errorf("workloads: manifest %v, code %v", names, code)
	}
	defs := func(ms []manifestMetric) []metricDef {
		var out []metricDef
		for _, x := range ms {
			out = append(out, metricDef{x.Name, x.Unit})
		}
		return out
	}
	if got := defs(m.EndToEnd); !reflect.DeepEqual(got, endToEndMetrics) {
		t.Errorf("end_to_end: manifest %v, code %v", got, endToEndMetrics)
	}
	if got := defs(m.PerLayer); !reflect.DeepEqual(got, perLayerMetrics()) {
		t.Errorf("per_layer: manifest %v, code %v", got, perLayerMetrics())
	}

	rep := &childReport{Passes: []passRecord{
		{Wall: 1, CPU: 1, Counters: map[string]float64{}},
		{Traced: true, Wall: 1.1, CPU: 1, Counters: map[string]float64{"memo.hits": 3, "stray": 1}},
	}, PeakRSSKB: 2048}
	shares := map[string]float64{"sim": 1}
	for _, c := range []struct {
		ms   []manifestMetric
		recs map[string]metricRecord
	}{
		{m.EndToEnd, endToEnd(rep, []float64{0.5})},
		{m.PerLayer, perLayer(rep, nil, shares)},
	} {
		if len(c.recs) != len(c.ms) {
			t.Errorf("emitted %d metrics, manifest lists %d", len(c.recs), len(c.ms))
		}
		for _, x := range c.ms {
			r, ok := c.recs[x.Name]
			if !ok || r.Unit != x.Unit {
				t.Errorf("metric %s: emitted %+v", x.Name, r)
			}
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// Expected values from Python's statistics.quantiles(xs, n=4).
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
		median float64
	}{
		{[]float64{1, 2}, 0.75, 2.25, 1.5},
		{[]float64{3, 1, 2}, 1, 3, 2},
		{[]float64{5, 1, 4, 2, 3}, 1.5, 4.5, 3},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25, 5.5},
		{[]float64{7}, 7, 7, 7},
	} {
		s := summarize(c.xs)
		if s.Q1 != c.q1 || s.Q3 != c.q3 || s.Median != c.median || s.N != len(c.xs) {
			t.Errorf("summarize(%v) = %+v, want q1 %g median %g q3 %g", c.xs, s, c.q1, c.median, c.q3)
		}
	}
}

func TestPairWinsAndVerdict(t *testing.T) {
	if w, l, p := pairWins([]float64{10, 10, 10}, []float64{9, 11, 10}, true); w != 1 || l != 1 || p != 3 {
		t.Errorf("pairWins lower = %d/%d/%d, want 1/1/3", w, l, p)
	}
	if w, l, p := pairWins([]float64{1, 1}, []float64{2, 2, 2}, false); w != 2 || l != 0 || p != 2 {
		t.Errorf("pairWins higher = %d/%d/%d, want 2/0/2", w, l, p)
	}

	base := []float64{10, 10.1, 9.9, 10, 10.2, 9.8, 10, 10.1, 9.9, 10}
	scaled := func(f float64) []float64 {
		out := make([]float64, len(base))
		for i, b := range base {
			out[i] = b * f
		}
		return out
	}
	wall := manifestMetric{Name: "wall_s", Better: "lower", Bound: 0.1}
	setup := manifestMetric{Name: "setup_s", Better: "lower", Bound: 0.1}
	counter := manifestMetric{Name: "memo.hits", Better: "higher"}
	ms := func(xs ...float64) []float64 {
		for i := range xs {
			xs[i] /= 1000
		}
		return xs
	}
	for _, c := range []struct {
		m            manifestMetric
		base, change []float64
		want         string
	}{
		{wall, base, scaled(0.8), "gain"},
		{wall, base, scaled(1.05), "within bound"},
		{wall, base, scaled(1.2), "REGRESSION"},
		{wall, scaled(1)[:6], []float64{10, 10, 10, 10, 10, 10}, "within bound"},
		{wall, []float64{5, 15, 5, 15, 5, 15}, []float64{10, 10, 10, 10, 10, 10}, "unresolved"},
		{wall, []float64{5, 15, 5, 15, 5, 15}, []float64{4, 4, 4, 4, 4, 4}, "every run better"},
		{counter, []float64{96, 96}, []float64{96, 96}, "same"},
		{counter, scaled(9.6), scaled(9), "loss"},
		{counter, []float64{96, 96}, []float64{90, 90}, "-"},
		{wall, base[:9], scaled(0.8)[:9], "within bound"},
		// A few milliseconds of set-up moving by a third is below setup_s's
		// absolute floor; the same samples as wall_s are not.
		{setup, ms(1.5, 1.5, 1.5, 1.5, 1.5, 1.5), ms(2, 2, 2, 2, 2, 2), "within bound"},
		{setup, ms(1, 2, 1, 2, 1, 2), ms(2, 2, 2, 2, 2, 2), "within bound"},
		{wall, ms(1.5, 1.5, 1.5, 1.5, 1.5, 1.5), ms(2, 2, 2, 2, 2, 2), "REGRESSION"},
		{wall, ms(1, 2, 1, 2, 1, 2), ms(2, 2, 2, 2, 2, 2), "unresolved"},
		{setup, []float64{15, 15, 15, 15, 15, 15}, []float64{20, 20, 20, 20, 20, 20}, "REGRESSION"},
	} {
		if got := verdict(c.m, c.base, c.change); got != c.want {
			t.Errorf("verdict(%s, %v, %v) = %q, want %q", c.m.Name, c.base, c.change, got, c.want)
		}
	}
}

// TestMoreFailuresVoidGain checks that a gain on a workload where the change
// failed more operations than the base does not count, and fails -compare.
func TestMoreFailuresVoidGain(t *testing.T) {
	m := &manifest{
		Workloads: []manifestWorkload{{Name: "w"}},
		EndToEnd:  []manifestMetric{{Name: "wall_s", Unit: "s", Better: "lower", Bound: 0.1}},
	}
	runs := func(wall float64, failed int) []record {
		var recs []record
		for i := 0; i < minPairs; i++ {
			recs = append(recs, record{Workload: "w", Failed: failed,
				Metrics: map[string]metricRecord{"wall_s": {Value: wall + float64(i)/100}}})
		}
		return recs
	}
	for _, c := range []struct {
		changeFailed int
		wantBad      int
		want         string
	}{{0, 0, "gain"}, {1, 1, moreFailures}} {
		var out strings.Builder
		bad := writeComparison(&out, m, runs(10, 0), runs(8, c.changeFailed))
		if bad != c.wantBad || !strings.Contains(out.String(), c.want) {
			t.Errorf("change with %d failed ops: %d bad, output\n%s", c.changeFailed, bad, out.String())
		}
	}
}

func TestFuncPackage(t *testing.T) {
	for fn, want := range map[string]string{
		"t3sim/internal/sim.(*Engine).pop":                                          "t3sim/internal/sim",
		"runtime.mallocgc":                                                          "runtime",
		"encoding/gob.(*Decoder).decodeStruct":                                      "encoding/gob",
		"slices.pdqsortOrdered[go.shape.float64]":                                   "slices",
		"t3sim/internal/experiments.(*memoTable[go.shape.struct { t3sim/x.T }]).do": "t3sim/internal/experiments",
		"main.prepareServe.func2.1":                                                 "main",
		"internal/runtime/syscall.Syscall6":                                         "internal/runtime/syscall",
	} {
		if got := funcPackage(fn); got != want {
			t.Errorf("funcPackage(%q) = %q, want %q", fn, got, want)
		}
	}
}

func TestSampleBucket(t *testing.T) {
	for _, c := range []struct {
		frames []string
		want   string
	}{
		{[]string{"t3sim/internal/sim.(*Engine).pop", "t3sim/internal/serving.(*Sim).Run"}, "sim"},
		{[]string{"runtime.mallocgc", "t3sim/internal/sim.(*Engine).push"}, "runtime"},
		{[]string{"slices.pdqsortOrdered[go.shape.float64]", "t3sim/internal/serving.summarize", "main.run"}, "serving"},
		{[]string{"t3sim/internal/rng.(*Rand).Exp", "t3sim/internal/serving.(*Sim).scheduleNextArrival"}, "serving"},
		{[]string{"reflect.Value.Field", "encoding/gob.(*Decoder).decodeStruct", "t3sim/internal/store.(*Store).Get"}, "gob"},
		{[]string{"syscall.Syscall6", "os.ReadFile", "t3sim/internal/store.(*Store).Get"}, "io"},
		{[]string{"internal/runtime/syscall.Syscall6", "runtime.read"}, "io"},
		{[]string{"bytes.Equal", "main.(*env).check", "runtime.main"}, "other"},
		{[]string{"sort.Strings", "runtime.goexit"}, "other"},
	} {
		if got := sampleBucket(c.frames); got != c.want {
			t.Errorf("sampleBucket(%v) = %q, want %q", c.frames, got, c.want)
		}
	}
}

// TestProfileFixture parses pprof -traces output captured from traced runs
// of cluster-256 and catalogue-warm, trimmed to a few stacks per layer.
func TestProfileFixture(t *testing.T) {
	f, err := os.Open("testdata/traces.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	samples, err := parseTraces(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) != 24 {
		t.Fatalf("parsed %d stacks, want 24", len(samples))
	}
	for _, s := range samples {
		if s.secs <= 0 || len(s.frames) == 0 {
			t.Fatalf("bad stack %+v", s)
		}
	}
	shares, err := bucketShares(samples)
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for _, b := range profBuckets {
		sum += shares[b]
	}
	if len(shares) != len(profBuckets) || math.Abs(sum-1) > 1e-9 {
		t.Errorf("shares %v sum to %g over %d buckets", shares, sum, len(shares))
	}
	for _, b := range []string{"sim", "memory", "t3core", "interconnect", "runtime", "gob", "io"} {
		if shares[b] == 0 {
			t.Errorf("bucket %s has no share: %v", b, shares)
		}
	}
	for in, want := range map[string]float64{"0.05s": 0.05, "10ms": 0.01, "1.50mins": 90, "250us": 250e-6} {
		if got, err := parseDuration(in); err != nil || math.Abs(got-want) > 1e-12 {
			t.Errorf("parseDuration(%q) = %g, %v; want %g", in, got, err, want)
		}
	}
}

func TestFlippedGoldenByteFails(t *testing.T) {
	e := &env{golden: map[string][]byte{"table2": []byte("models\n")}}
	res := experiments.TextResult{Text: "models"}
	if err := e.check("table2", res); err != nil {
		t.Fatalf("matching output: %v", err)
	}
	e.golden["table2"][3] ^= 1
	rep := &childReport{}
	p := newPassState(rep, false, time.Now())
	p.entry("table2", func() error { return e.check("table2", res) })
	if rep.Ops != 1 || rep.Failed != 1 || len(rep.Errors) != 1 {
		t.Errorf("flipped golden byte: %d ops, %d failed, errors %v", rep.Ops, rep.Failed, rep.Errors)
	}
}

// TestServeOpenloopSmoke sets the serving workload up and runs one traced
// pass of it.
func TestServeOpenloopSmoke(t *testing.T) {
	e := &env{root: "..", seed: 7}
	rep := &childReport{}
	clock := time.Now()
	pass, err := prepareServe(e, newPassState(rep, false, clock))
	if err != nil {
		t.Fatal(err)
	}
	rec := measure(rep, true, clock, pass)
	if rep.Failed != 0 {
		t.Fatalf("failures: %v", rep.Errors)
	}
	calls := 2 * len(serveQPS) * serveSeeds
	if want := 2 + calls; rep.Ops != want {
		t.Errorf("%d operations, want %d", rep.Ops, want)
	}
	if rec.Counters["serving.prefills"] != float64(calls*serveRequests) {
		t.Errorf("prefills %g: every request is prefilled once", rec.Counters["serving.prefills"])
	}
	if rec.Wall <= 0 || rec.Counters["serving.req_per_s"] <= 0 || len(rep.Spans) != 1+calls {
		t.Errorf("wall %g, req/s %g, %d spans", rec.Wall, rec.Counters["serving.req_per_s"], len(rep.Spans))
	}
}
