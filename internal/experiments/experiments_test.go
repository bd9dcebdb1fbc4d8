package experiments

import (
	"reflect"
	"strings"
	"sync"
	"testing"

	"t3sim/internal/memory"
	"t3sim/internal/metrics"
	"t3sim/internal/transformer"
	"t3sim/internal/units"
)

// sharedEv memoizes sub-layer simulations across the test suite.
var (
	sharedOnce sync.Once
	sharedEval *Evaluator
)

func evaluator(t *testing.T) *Evaluator {
	t.Helper()
	sharedOnce.Do(func() {
		ev, err := NewEvaluator(DefaultSetup())
		if err != nil {
			t.Fatal(err)
		}
		sharedEval = ev
	})
	return sharedEval
}

func TestSetupValidate(t *testing.T) {
	if err := DefaultSetup().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []func(*Setup){
		func(s *Setup) { s.GPU.CUs = 0 },
		func(s *Setup) { s.Memory.Channels = 0 },
		func(s *Setup) { s.Link.PacketSize = 0 },
		func(s *Setup) { s.Tracker.Sets = 0 },
		func(s *Setup) { s.BlockBytes = 0 },
		func(s *Setup) { s.CollectiveCUs = 0 },
		func(s *Setup) { s.CollectiveCUs = 999 },
		func(s *Setup) { s.PerCUMemBandwidth = 0 },
	}
	for i, mutate := range bad {
		s := DefaultSetup()
		mutate(&s)
		if err := s.Validate(); err == nil {
			t.Errorf("case %d: expected error", i)
		}
		if _, err := NewEvaluator(s); err == nil {
			t.Errorf("case %d: NewEvaluator should fail", i)
		}
	}
}

func TestCaseLists(t *testing.T) {
	small := SmallModelCases()
	if len(small) != 16 {
		t.Errorf("small cases = %d, want 16 (2 models x 2 TPs x 4 kinds)", len(small))
	}
	large := LargeModelCases()
	if len(large) != 12 {
		t.Errorf("large cases = %d, want 12 (3 models x 4 kinds)", len(large))
	}
	for _, c := range large {
		if c.TP != 32 {
			t.Errorf("%v: TP = %d, want 32", c, c.TP)
		}
	}
}

func TestFig4Breakdown(t *testing.T) {
	res, err := Fig4(DefaultSetup())
	if err != nil {
		t.Fatal(err)
	}
	// 5 models x their TPs + 2 futuristic, x 2 phases.
	wantRows := (2*2 + 3 + 2) * 2
	if len(res.Rows) != wantRows {
		t.Fatalf("rows = %d, want %d", len(res.Rows), wantRows)
	}
	for _, row := range res.Rows {
		sum := row.SlicedGEMMFrac + row.RSFrac + row.AGFrac + row.OtherFrac
		if sum < 0.999 || sum > 1.001 {
			t.Errorf("%s TP%d %v: fractions sum to %.4f", row.Model, row.TP, row.Phase, sum)
		}
		if row.CommFrac() <= 0.05 || row.CommFrac() > 0.6 {
			t.Errorf("%s TP%d %v: comm fraction %.2f implausible", row.Model, row.TP, row.Phase, row.CommFrac())
		}
	}
	if !strings.Contains(res.Render(), "Figure 4") {
		t.Error("render missing title")
	}
}

func TestFig6CUSharing(t *testing.T) {
	res, err := Fig6(evaluator(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4*3 {
		t.Fatalf("rows = %d, want 12", len(res.Rows))
	}
	ideal := res.GeomeanSpeedup["ideal"]
	s72 := res.GeomeanSpeedup["72-8"]
	s64 := res.GeomeanSpeedup["64-16"]
	// Paper ordering: ideal > 64-16 > 72-8 (8 CUs starve the AR the most).
	if !(ideal > s64 && s64 > s72) {
		t.Errorf("geomeans ideal=%.2f 64-16=%.2f 72-8=%.2f: want ideal > 64-16 > 72-8", ideal, s64, s72)
	}
	if ideal < 1.3 || ideal > 2.0 {
		t.Errorf("ideal geomean %.2f outside plausible range (paper 1.67)", ideal)
	}
	for _, row := range res.Rows {
		if row.Split.ARCUs == 8 && row.ARSlowdown < 1.05 {
			t.Errorf("%v 72-8: AR slowdown %.2f, want noticeable (paper ~1.41)", row.Case, row.ARSlowdown)
		}
		if row.Split.ARCUs == 16 && row.GEMMSlowdown < 1.05 {
			t.Errorf("%v 64-16: GEMM slowdown %.2f, want noticeable (paper ~1.21)", row.Case, row.GEMMSlowdown)
		}
	}
	if !strings.Contains(res.Render(), "Figure 6") {
		t.Error("render missing title")
	}
}

func TestFig14Validation(t *testing.T) {
	res, err := Fig14(DefaultSetup())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 6 {
		t.Fatalf("rows = %d, want 6 sizes", len(res.Rows))
	}
	// The paper reports 6% geomean error vs hardware; our DES vs the
	// analytic reference must be at least that close.
	if res.GeomeanErr > 0.06 {
		t.Errorf("geomean error %.1f%%, want <= 6%%", 100*res.GeomeanErr)
	}
	for i := 1; i < len(res.Rows); i++ {
		if res.Rows[i].Simulated <= res.Rows[i-1].Simulated {
			t.Error("simulated time not monotone in size")
		}
	}
	if !strings.Contains(res.Render(), "Figure 14") {
		t.Error("render missing title")
	}
}

func TestFig15Distribution(t *testing.T) {
	res, err := Fig15(evaluator(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 16 {
		t.Fatalf("rows = %d, want 16", len(res.Rows))
	}
	for _, row := range res.Rows {
		sum := row.GEMMFrac + row.RSFrac + row.AGFrac
		if sum < 0.999 || sum > 1.001 {
			t.Errorf("%v: fractions sum to %.4f", row.Case, sum)
		}
		// FC sub-layers are GEMM-heavy; OP is collective-heavy (paper).
		if row.Case.Kind == transformer.FC2 && row.GEMMFrac < 0.35 {
			t.Errorf("%v: FC-2 GEMM fraction %.2f too small", row.Case, row.GEMMFrac)
		}
		if row.Case.Kind == transformer.OutProj && row.GEMMFrac > 0.55 {
			t.Errorf("%v: OP GEMM fraction %.2f too large", row.Case, row.GEMMFrac)
		}
	}
	if !strings.Contains(res.Render(), "Figure 15") {
		t.Error("render missing title")
	}
}

func TestFig16Speedups(t *testing.T) {
	res, err := Fig16(evaluator(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 16 {
		t.Fatalf("rows = %d, want 16", len(res.Rows))
	}
	for _, row := range res.Rows {
		if row.T3 <= 1.0 {
			t.Errorf("%v: T3 speedup %.2f <= 1", row.Case, row.T3)
		}
		if row.T3MCA < row.T3*0.98 {
			t.Errorf("%v: T3-MCA %.2f clearly below T3 %.2f", row.Case, row.T3MCA, row.T3)
		}
		if row.T3MCA > row.IdealRSNMC*1.02 {
			t.Errorf("%v: T3-MCA %.2f exceeds the NMC-enhanced ideal %.2f", row.Case, row.T3MCA, row.IdealRSNMC)
		}
		if row.IdealRSNMC < row.IdealOverlap {
			t.Errorf("%v: NMC ideal below plain ideal", row.Case)
		}
	}
	// Headline shape: T3-MCA geomean ~1.3 (paper 1.30, max 1.47).
	if res.GeomeanMCA < 1.20 || res.GeomeanMCA > 1.45 {
		t.Errorf("T3-MCA geomean %.2f outside 1.20..1.45 (paper 1.30)", res.GeomeanMCA)
	}
	if res.MaxMCA < 1.35 || res.MaxMCA > 1.60 {
		t.Errorf("T3-MCA max %.2f outside 1.35..1.60 (paper 1.47)", res.MaxMCA)
	}
	// T3-MCA within ~7% of the ideal overlap geomean (paper: 5%).
	if res.GeomeanIdeal/res.GeomeanMCA > 1.07 {
		t.Errorf("T3-MCA geomean %.2f too far below ideal %.2f", res.GeomeanMCA, res.GeomeanIdeal)
	}
	if !strings.Contains(res.Render(), "Figure 16") {
		t.Error("render missing title")
	}
}

func TestFig16LargeModels(t *testing.T) {
	res, err := Fig16Large(evaluator(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 12 {
		t.Fatalf("rows = %d, want 12", len(res.Rows))
	}
	// Paper §6.4: ~29% geomean for the ~0.5T models.
	if res.GeomeanMCA < 1.15 || res.GeomeanMCA > 1.45 {
		t.Errorf("large-model T3-MCA geomean %.2f outside 1.15..1.45 (paper 1.29)", res.GeomeanMCA)
	}
}

func TestFig17Traffic(t *testing.T) {
	res, err := Fig17(DefaultSetup())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Baseline) == 0 || len(res.T3) == 0 {
		t.Fatal("empty timelines")
	}
	// The T3 timeline must contain communication traffic; the baseline none.
	var baseComm, t3Comm int64
	for _, s := range res.Baseline {
		baseComm += int64(s.CommRead + s.CommWrite)
	}
	for _, s := range res.T3 {
		t3Comm += int64(s.CommRead + s.CommWrite)
	}
	if baseComm != 0 {
		t.Errorf("baseline timeline has %d comm bytes", baseComm)
	}
	if t3Comm == 0 {
		t.Error("T3 timeline has no comm traffic")
	}
	if !strings.Contains(res.Render(), "Figure 17") {
		t.Error("render missing title")
	}
}

// TestFig17SinkIndependent: Figure 17 reads its timelines back from the
// controllers' series on whichever sink the run records into, so a caller's
// live registry and the private one a nil sink gets yield the same result.
func TestFig17SinkIndependent(t *testing.T) {
	plain, err := Fig17(DefaultSetup())
	if err != nil {
		t.Fatal(err)
	}
	s := DefaultSetup()
	reg := metrics.NewRegistry()
	reg.EnableTimeline()
	s.Metrics = reg
	live, err := Fig17(s)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain, live) {
		t.Error("Fig17 with a live sink diverged from the nil-sink run")
	}
	if reg.Scope("fig17/t3").Series(memory.TraceSeriesName(memory.Read, memory.StreamComm), memory.TraceBucket).Len() == 0 {
		t.Error("live sink holds no fig17/t3 comm-read series")
	}
}

// TestFig17SamplesEmpty pins the empty read-back: a sink with no traffic
// reads as no samples and a zero peak.
func TestFig17SamplesEmpty(t *testing.T) {
	if got, peak := samples(metrics.NewRegistry()); got != nil || peak != (Sample{}) {
		t.Errorf("empty sink: samples %v, peak %+v; want none", got, peak)
	}
}

// TestFig17SamplesGapsAreZeroFilled pins the read-back: the four series
// zero-fill to the longest, bucket i starts at i×TraceBucket, and the peak is
// the busiest bucket.
func TestFig17SamplesGapsAreZeroFilled(t *testing.T) {
	reg := metrics.NewRegistry()
	add := func(k memory.AccessKind, s memory.Stream, at units.Time, n int64) {
		reg.Series(memory.TraceSeriesName(k, s), memory.TraceBucket).Add(at, n)
	}
	add(memory.Read, memory.StreamCompute, 0, 10)
	add(memory.Write, memory.StreamCompute, 1, 20)
	add(memory.Update, memory.StreamComm, memory.TraceBucket+1, 30)
	add(memory.Read, memory.StreamComm, 5*memory.TraceBucket, 40)
	got, peak := samples(reg)
	want := []Sample{
		{Start: 0, ComputeRead: 10, ComputeWrite: 20},
		{Start: memory.TraceBucket, CommWrite: 30},
		{Start: 2 * memory.TraceBucket},
		{Start: 3 * memory.TraceBucket},
		{Start: 4 * memory.TraceBucket},
		{Start: 5 * memory.TraceBucket, CommRead: 40},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("samples = %+v\nwant %+v", got, want)
	}
	if peak != want[5] {
		t.Errorf("peak = %+v, want %+v", peak, want[5])
	}
}

func TestFig18DataMovement(t *testing.T) {
	res, err := Fig18(evaluator(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 16 {
		t.Fatalf("rows = %d, want 16", len(res.Rows))
	}
	// Paper: 22% geomean reduction, max 36%.
	if res.GeomeanReduction < 0.15 || res.GeomeanReduction > 0.32 {
		t.Errorf("geomean reduction %.1f%% outside 15..32%% (paper 22%%)", 100*res.GeomeanReduction)
	}
	if res.MaxReduction < 0.25 || res.MaxReduction > 0.40 {
		t.Errorf("max reduction %.1f%% outside 25..40%% (paper 36%%)", 100*res.MaxReduction)
	}
	// RS reads shrink by ~2.4x geomean (paper), more at lower TP.
	if res.GeomeanRSRead < 2.0 || res.GeomeanRSRead > 2.9 {
		t.Errorf("RS read ratio %.2f outside 2.0..2.9 (paper 2.4)", res.GeomeanRSRead)
	}
	for _, row := range res.Rows {
		if row.Reduction <= 0 {
			t.Errorf("%v: no data-movement reduction", row.Case)
		}
		if row.T3.Total() >= row.Baseline.Total() {
			t.Errorf("%v: T3 moved more data than baseline", row.Case)
		}
	}
	if !strings.Contains(res.Render(), "Figure 18") {
		t.Error("render missing title")
	}
}

func TestFig19EndToEnd(t *testing.T) {
	res, err := Fig19(evaluator(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 8 {
		t.Fatalf("rows = %d, want 8", len(res.Rows))
	}
	for _, row := range res.Rows {
		if row.T3 <= 1.0 || row.T3MCA < row.T3*0.99 {
			t.Errorf("%s TP%d %v: T3=%.3f MCA=%.3f", row.Model, row.TP, row.Phase, row.T3, row.T3MCA)
		}
		if row.T3MCA > 1.25 {
			t.Errorf("%s TP%d %v: end-to-end %.3f implausibly high", row.Model, row.TP, row.Phase, row.T3MCA)
		}
	}
	// Paper: training max 12%, prompt max 15%; prompt benefits more overall
	// (no backprop compute diluting the sliced sub-layers).
	if res.MaxTrainMCA < 1.04 || res.MaxTrainMCA > 1.22 {
		t.Errorf("max training speedup %.3f outside 1.04..1.22 (paper 1.12)", res.MaxTrainMCA)
	}
	if res.GeomeanInferMCA <= res.GeomeanTrainMCA {
		t.Errorf("prompt geomean %.3f not above training geomean %.3f",
			res.GeomeanInferMCA, res.GeomeanTrainMCA)
	}
	if !strings.Contains(res.Render(), "Figure 19") {
		t.Error("render missing title")
	}
}

func TestFig20FutureHW(t *testing.T) {
	res, err := Fig20(evaluator(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 10 {
		t.Fatalf("rows = %d, want 10", len(res.Rows))
	}
	// Paper §7.5: compute-dominated FC-2 gains more from overlap with 2x
	// CUs; OP's benefit shrinks as communication gets exposed.
	var fcUp, opDown int
	for _, row := range res.Rows {
		if row.Case.Kind == transformer.FC2 && row.Speedup2x > row.Speedup1x {
			fcUp++
		}
		if row.Case.Kind == transformer.OutProj && row.Speedup2x < row.Speedup1x {
			opDown++
		}
	}
	if fcUp < 4 {
		t.Errorf("only %d/5 FC-2 cases improved with 2x CUs", fcUp)
	}
	if opDown < 4 {
		t.Errorf("only %d/5 OP cases declined with 2x CUs", opDown)
	}
	if !strings.Contains(res.Render(), "Figure 20") {
		t.Error("render missing title")
	}
}

func TestTables(t *testing.T) {
	s := DefaultSetup()
	if !strings.Contains(Table1(s), "Table 1") || !strings.Contains(Table1(s), "1000.0GB/s") {
		t.Error("Table1 rendering wrong")
	}
	t2 := Table2()
	for _, name := range []string{"Mega-GPT-2", "T-NLG", "GPT-3", "PALM", "MT-NLG", "1T", "10T"} {
		if !strings.Contains(t2, name) {
			t.Errorf("Table2 missing %s", name)
		}
	}
	if !strings.Contains(Table3(), "T3-MCA") {
		t.Error("Table3 rendering wrong")
	}
}

func TestEvaluatorMemoizes(t *testing.T) {
	ev := evaluator(t)
	m, _ := transformer.ModelByName("T-NLG")
	c := SubCase{Model: m, Kind: transformer.FC2, TP: 8}
	r1, err := ev.Evaluate(c)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := ev.Evaluate(c)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Sequential != r2.Sequential || r1.T3 != r2.T3 || r1.T3MCA != r2.T3MCA {
		t.Error("memoized evaluation differs")
	}
}

func TestTrackerBudgetFinding(t *testing.T) {
	// The reproduction's tracker-sizing finding: at least one evaluated
	// sub-layer exceeds the paper's 2048-slot budget, and all fit in the
	// enlarged structure.
	ev := evaluator(t)
	paperBudget := 256 * 8
	exceeded := false
	for _, c := range SmallModelCases() {
		r, err := ev.Evaluate(c)
		if err != nil {
			t.Fatal(err)
		}
		if r.TrackerMaxLive > paperBudget {
			exceeded = true
		}
		if r.TrackerMaxLive > ev.Setup.Tracker.Sets*ev.Setup.Tracker.Ways {
			t.Errorf("%v: high-water %d exceeds enlarged tracker", c, r.TrackerMaxLive)
		}
	}
	if !exceeded {
		t.Log("note: no case exceeded the paper's 2048-entry tracker budget in this configuration")
	}
}
