package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"text/tabwriter"
)

// manifest is the part of BENCHMARK.json the benchmark reads.
type manifest struct {
	Workloads []manifestWorkload `json:"workloads"`
	EndToEnd  []manifestMetric   `json:"end_to_end"`
	PerLayer  []manifestMetric   `json:"per_layer"`
}

type manifestWorkload struct {
	Name string `json:"name"`
}

type manifestMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"` // end-to-end metrics only
}

func readManifest(path string) (*manifest, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var m manifest
	if err := json.Unmarshal(b, &m); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &m, nil
}

// readRecords reads result records, one JSON object per line, in order.
func readRecords(paths []string) ([]record, error) {
	var recs []record
	for _, path := range paths {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		dec := json.NewDecoder(bufio.NewReader(f))
		for {
			var r record
			if err := dec.Decode(&r); err == io.EOF {
				break
			} else if err != nil {
				f.Close()
				return nil, fmt.Errorf("%s: %w", path, err)
			}
			recs = append(recs, r)
		}
		f.Close()
	}
	return recs, nil
}

// compareMain implements -compare <base>... -- <change>...: for every
// metric and workload it prints both sides' medians and quartiles, the ratio
// of the medians, the pair win rate and a verdict (see verdict). It exits 1
// when an end-to-end metric regressed or the change failed more operations.
func compareMain(args []string, root string, stdout, stderr io.Writer) int {
	sep := -1
	for i, a := range args {
		if a == "--" {
			sep = i
			break
		}
	}
	if sep < 1 || sep == len(args)-1 {
		fmt.Fprintln(stderr, "bench: usage: -compare <base.jsonl>... -- <change.jsonl>...")
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintf(stderr, "bench: -compare: %v\n", err)
		return 1
	}
	m, err := readManifest(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return fail(err)
	}
	base, err := readRecords(args[:sep])
	if err != nil {
		return fail(err)
	}
	change, err := readRecords(args[sep+1:])
	if err != nil {
		return fail(err)
	}
	if writeComparison(stdout, m, base, change) > 0 {
		return 1
	}
	return 0
}

// moreFailures is the verdict that replaces a gain on a workload where the
// change failed more operations than the base: such a gain does not count.
const moreFailures = "no gain: more failed ops"

// sideSamples groups one side's runs by workload and metric, in run order.
// It also counts each workload's runs and failed operations.
type sideSamples struct {
	values map[string]map[string][]float64
	runs   map[string]int
	failed map[string]int
}

func group(recs []record) sideSamples {
	s := sideSamples{values: map[string]map[string][]float64{}, runs: map[string]int{}, failed: map[string]int{}}
	for _, r := range recs {
		if s.values[r.Workload] == nil {
			s.values[r.Workload] = map[string][]float64{}
		}
		s.runs[r.Workload]++
		s.failed[r.Workload] += r.Failed
		for name, v := range r.Metrics {
			s.values[r.Workload][name] = append(s.values[r.Workload][name], v.Value)
		}
	}
	return s
}

// writeComparison prints the comparison table and returns how many
// (end-to-end metric, workload) pairs regressed plus how many workloads
// failed more operations on the change than on the base.
func writeComparison(w io.Writer, m *manifest, baseRecs, changeRecs []record) int {
	base, change := group(baseRecs), group(changeRecs)
	metrics := append(append([]manifestMetric(nil), m.EndToEnd...), m.PerLayer...)
	bad := 0
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	for _, wl := range m.Workloads {
		if base.runs[wl.Name] == 0 || change.runs[wl.Name] == 0 {
			continue
		}
		fmt.Fprintf(tw, "\n%s: base %d runs (%d failed ops), change %d runs (%d failed ops)\n",
			wl.Name, base.runs[wl.Name], base.failed[wl.Name], change.runs[wl.Name], change.failed[wl.Name])
		failedMore := change.failed[wl.Name] > base.failed[wl.Name]
		if failedMore {
			bad++
			fmt.Fprintf(tw, "FAILED: the change failed more operations than the base\n")
		}
		fmt.Fprintln(tw, "metric\tbase median [q1, q3]\tchange median [q1, q3]\tchange/base\twins\tverdict\t")
		for _, mm := range metrics {
			b, c := base.values[wl.Name][mm.Name], change.values[wl.Name][mm.Name]
			if len(b) == 0 || len(c) == 0 {
				continue
			}
			bs, cs := summarize(b), summarize(c)
			wins, _, pairs := pairWins(b, c, mm.Better == "lower")
			v := verdict(mm, b, c)
			switch {
			case v == "REGRESSION":
				bad++
			case v == "gain" && failedMore:
				v = moreFailures
			}
			fmt.Fprintf(tw, "%s (%s)\t%.5g [%.5g, %.5g]\t%.5g [%.5g, %.5g]\t%s\t%d/%d\t%s\t\n",
				mm.Name, mm.Unit, bs.Median, bs.Q1, bs.Q3, cs.Median, cs.Q1, cs.Q3,
				ratio(cs.Median, bs.Median), wins, pairs, v)
		}
	}
	tw.Flush()
	return bad
}

func ratio(change, base float64) string {
	if base == 0 {
		if change == 0 {
			return "1 (both 0)"
		}
		return "- (base 0)"
	}
	return fmt.Sprintf("%.4fx", change/base)
}

// minPairs is the fewest run pairs a gain or loss may rest on.
const minPairs = 10

// absFloor is, per end-to-end metric, the absolute difference of medians
// below which the metric is within bound whatever its relative change or
// spread. setup_s is a few milliseconds of process start-up on some
// workloads, where noise alone moves it by a third; BENCHMARK.json has no
// field for this, so it lives here.
var absFloor = map[string]float64{"setup_s": 0.25}

// verdict applies the comparison rules to one metric on one workload:
//
//   - gain: over at least minPairs pairs, the change wins at least 9 in 10
//     and the medians differ by more than the base's interquartile range;
//   - unresolved: the base's interquartile range, as a share of its median,
//     is wider than the metric's bound, unless every change run is better
//     than every base run ("every run better");
//   - REGRESSION: the change's median is worse than the base's by more than
//     the bound;
//   - within bound: otherwise, and whenever the medians differ by less than
//     the metric's absFloor.
//
// Per-layer metrics have no bound: they read gain, loss (the mirror of
// gain), same (every run of both sides equal, as deterministic counters
// should be) or "-".
func verdict(m manifestMetric, base, change []float64) string {
	lower := m.Better == "lower"
	bs, cs := summarize(base), summarize(change)
	wins, losses, pairs := pairWins(base, change, lower)
	spread := bs.Q3 - bs.Q1
	worse := cs.Median - bs.Median // > 0: the change is worse
	if !lower {
		worse = -worse
	}
	if pairs >= minPairs && 10*wins >= 9*pairs && -worse > spread {
		return "gain"
	}
	if m.Bound == 0 {
		switch {
		case pairs >= minPairs && 10*losses >= 9*pairs && worse > spread:
			return "loss"
		case bs.Min == bs.Max && cs.Min == cs.Max && bs.Min == cs.Min:
			return "same"
		}
		return "-"
	}
	if math.Abs(worse) < absFloor[m.Name] {
		return "within bound"
	}
	scale := math.Abs(bs.Median)
	everyRunBetter := cs.Max < bs.Min
	if !lower {
		everyRunBetter = cs.Min > bs.Max
	}
	if scale > 0 && spread/scale > m.Bound {
		if everyRunBetter {
			return "every run better"
		}
		return "unresolved"
	}
	if scale > 0 && worse/scale > m.Bound {
		return "REGRESSION"
	}
	return "within bound"
}
