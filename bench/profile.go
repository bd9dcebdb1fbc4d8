package main

import (
	"bufio"
	"fmt"
	"io"
	"os/exec"
	"slices"
	"strconv"
	"strings"
)

// profileShares attributes a CPU profile's samples to profBuckets (see
// sampleBucket), reading the stacks the installed toolchain's
// `go tool pprof -traces` prints. The shares sum to 1.
func profileShares(path string) (map[string]float64, error) {
	out, err := exec.Command("go", "tool", "pprof", "-traces", path).Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %w", err)
	}
	samples, err := parseTraces(strings.NewReader(string(out)))
	if err != nil {
		return nil, err
	}
	return bucketShares(samples)
}

// stackSample is one distinct stack of a profile and the CPU time sampled
// in it. frames[0] is the leaf.
type stackSample struct {
	secs   float64
	frames []string
}

// parseTraces reads `pprof -traces` text: stacks separated by dashed rules,
// each starting with its sampled time and leaf frame, one caller per line
// after that.
func parseTraces(r io.Reader) ([]stackSample, error) {
	var samples []stackSample
	sc := bufio.NewScanner(r)
	inStack := false
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "-----------+") {
			inStack = true
			samples = append(samples, stackSample{secs: -1})
			continue
		}
		fields := strings.Fields(line)
		if !inStack || len(fields) == 0 {
			continue
		}
		s := &samples[len(samples)-1]
		if s.secs < 0 {
			if len(fields) < 2 {
				return nil, fmt.Errorf("pprof -traces: stack starts with %q", line)
			}
			secs, err := parseDuration(fields[0])
			if err != nil {
				return nil, fmt.Errorf("pprof -traces line %q: %w", line, err)
			}
			s.secs, fields = secs, fields[1:]
		}
		s.frames = append(s.frames, strings.TrimSuffix(strings.Join(fields, " "), " (inline)"))
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	// The last rule closes the last stack.
	if n := len(samples); n > 0 && samples[n-1].secs < 0 {
		samples = samples[:n-1]
	}
	return samples, nil
}

// parseDuration parses pprof's scaled durations ("10ms", "1.25s",
// "2.50mins") into seconds.
func parseDuration(s string) (float64, error) {
	for _, u := range []struct {
		suffix string
		secs   float64
	}{{"mins", 60}, {"hrs", 3600}, {"ns", 1e-9}, {"us", 1e-6}, {"ms", 1e-3}, {"s", 1}} {
		if num, ok := strings.CutSuffix(s, u.suffix); ok {
			v, err := strconv.ParseFloat(num, 64)
			if err != nil {
				return 0, err
			}
			return v * u.secs, nil
		}
	}
	return 0, fmt.Errorf("unknown duration %q", s)
}

// bucketShares sums sampled time per bucket and normalizes to shares of the
// total.
func bucketShares(samples []stackSample) (map[string]float64, error) {
	shares := map[string]float64{}
	for _, b := range profBuckets {
		shares[b] = 0
	}
	total := 0.0
	for _, s := range samples {
		shares[sampleBucket(s.frames)] += s.secs
		total += s.secs
	}
	if total <= 0 {
		return nil, fmt.Errorf("pprof -traces: profile has no samples")
	}
	for b := range shares {
		shares[b] /= total
	}
	return shares, nil
}

// sampleBucket attributes one stack to the layer whose self time it is: the
// bucket of the innermost frame that has one. Library code without a bucket
// of its own (sort, math, reflect, the model's helper packages) counts
// towards the layer that called it. Runtime frames count only as the leaf,
// since every stack ends in them; a frame of this benchmark ends the search
// in "other".
func sampleBucket(frames []string) string {
	for i, fn := range frames {
		pkg := funcPackage(fn)
		if pkg == "main" {
			break
		}
		b := profBucket(pkg)
		if b == "other" || (b == "runtime" && i > 0) {
			continue
		}
		return b
	}
	return "other"
}

// funcPackage returns the import path of a pprof function name such as
// "t3sim/internal/sim.(*Engine).pop" or "encoding/gob.(*Decoder).Decode".
// Receivers and type arguments can themselves contain dots and slashes, so
// the search stops at the first parenthesis or bracket.
func funcPackage(fn string) string {
	head := fn
	if i := strings.IndexAny(head, "(["); i >= 0 {
		head = head[:i]
	}
	slash := strings.LastIndex(head, "/")
	if dot := strings.Index(head[slash+1:], "."); dot >= 0 {
		return head[:slash+1+dot]
	}
	return head
}

// profBucket maps an import path to its profBuckets entry.
func profBucket(pkg string) string {
	if layer, ok := strings.CutPrefix(pkg, "t3sim/internal/"); ok {
		if slices.Contains(layerPackages, layer) {
			return layer
		}
		return "other"
	}
	switch {
	case pkg == "encoding/gob":
		return "gob"
	case pkg == "syscall", pkg == "os", pkg == "io", pkg == "io/fs", pkg == "bufio",
		pkg == "path/filepath", pkg == "internal/poll",
		strings.HasPrefix(pkg, "internal/syscall/"), pkg == "internal/runtime/syscall":
		return "io"
	case pkg == "runtime", strings.HasPrefix(pkg, "runtime/"), strings.HasPrefix(pkg, "internal/runtime/"):
		return "runtime"
	}
	return "other"
}
