package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
	"syscall"
	"time"
)

// This file is the workload child: the process that sets a workload up,
// runs its passes in a closed loop and reports what each pass measured.

// span is one timed call of a traced run: the workload, a pass, or one call
// into the simulator. Times are seconds since the workload span started.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"` // -1 for the workload span
	Name   string  `json:"name"`
	Start  float64 `json:"start"`
	End    float64 `json:"end"`
}

// passRecord is what one pass measured. Counters holds the per-layer values
// under their metric names.
type passRecord struct {
	Traced   bool               `json:"traced"`
	Wall     float64            `json:"wall_s"`
	CPU      float64            `json:"cpu_s"`
	Counters map[string]float64 `json:"counters"`
}

// childReport is the last line a workload or populate child prints.
type childReport struct {
	Passes []passRecord `json:"passes"`
	// Setup holds counters of work done before the first pass (the store
	// writes of a populate child).
	Setup     map[string]float64 `json:"setup,omitempty"`
	Ops       int                `json:"ops"`
	Failed    int                `json:"failed"`
	Errors    []string           `json:"errors,omitempty"`
	PeakRSSKB int64              `json:"peak_rss_kb"`
	Spans     []span             `json:"spans,omitempty"`
}

// passState collects one pass: its operations, their failures, its spans
// and counters. Workloads call op (or entry) once per call into the
// simulator.
type passState struct {
	traced   bool
	rep      *childReport
	clock    time.Time // start of the workload span
	parent   int       // span ID of this pass
	counters map[string]float64
	entries  map[string]time.Duration // catalogue Run time by exp.* bucket
}

func newPassState(rep *childReport, traced bool, clock time.Time) *passState {
	return &passState{
		traced: traced, rep: rep, clock: clock, parent: -1,
		counters: map[string]float64{}, entries: map[string]time.Duration{},
	}
}

// op runs one operation and returns how long it took. An error or a panic
// counts the operation as failed.
func (p *passState) op(name string, f func() error) time.Duration {
	start := time.Now()
	err := recovered(f)
	end := time.Now()
	p.rep.Ops++
	if err != nil {
		p.rep.Failed++
		p.rep.Errors = append(p.rep.Errors, name+": "+err.Error())
	}
	if p.traced {
		p.span(name, p.parent, start, end)
	}
	return end.Sub(start)
}

// entry is op for one catalogue entry's Run call, whose time also counts
// towards the entry's exp.* share of the pass.
func (p *passState) entry(name string, f func() error) {
	d := p.op(name, f)
	bucket := "rest"
	if slices.Contains(spanEntries, name) {
		bucket = name
	}
	p.entries[bucket] += d
}

func (p *passState) span(name string, parent int, start, end time.Time) int {
	id := len(p.rep.Spans)
	p.rep.Spans = append(p.rep.Spans, span{
		ID: id, Parent: parent, Name: name,
		Start: start.Sub(p.clock).Seconds(), End: end.Sub(p.clock).Seconds(),
	})
	return id
}

// recovered runs f, turning a panic into an error.
func recovered(f func() error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	return f()
}

// rusage returns the process's user+system CPU seconds and peak RSS in KB
// (ru_maxrss is in kilobytes on Linux), or zeros if getrusage fails.
func rusage() (cpu float64, maxRSSKB int64) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime), int64(ru.Maxrss)
}

// measure runs one pass from a collected heap and records its wall and CPU
// time, Go runtime deltas and, when traced, its span and exp.* shares.
func measure(rep *childReport, traced bool, clock time.Time, pass func(*passState)) passRecord {
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cpu0, _ := rusage()
	ps := newPassState(rep, traced, clock)
	start := time.Now()
	if traced {
		ps.parent = ps.span("pass", 0, start, start)
	}
	pass(ps)
	end := time.Now()
	cpu1, _ := rusage()
	runtime.ReadMemStats(&m1)

	wall := end.Sub(start).Seconds()
	c := ps.counters
	c["go.alloc_mb"] = float64(m1.TotalAlloc-m0.TotalAlloc) / (1 << 20)
	c["go.mallocs"] = float64(m1.Mallocs - m0.Mallocs)
	c["go.gc_cycles"] = float64(m1.NumGC - m0.NumGC)
	c["go.gc_pause_ms"] = float64(m1.PauseTotalNs-m0.PauseTotalNs) / 1e6
	if traced {
		rep.Spans[ps.parent].End = end.Sub(clock).Seconds()
		for bucket, d := range ps.entries {
			c["exp."+bucket] = d.Seconds() / wall
		}
	}
	return passRecord{Traced: traced, Wall: wall, CPU: cpu1 - cpu0, Counters: c}
}

// closedLoop runs passes one after another for about window: a pass starts
// only while the previous pass's duration still fits in what is left, and
// there is always at least one.
func closedLoop(rep *childReport, window time.Duration, traced bool, clock time.Time, pass func(*passState)) {
	start := time.Now()
	for {
		rec := measure(rep, traced, clock, pass)
		rep.Passes = append(rep.Passes, rec)
		if time.Since(start)+time.Duration(rec.Wall*float64(time.Second)) > window {
			return
		}
	}
}

// runChild is the -role setup|run process of one workload. It prepares the
// workload, prints "ready", and for role run then measures the passes: a
// window of untraced passes, plus with -trace a second window of traced
// passes under the CPU profiler, and prints its childReport.
func runChild(o options, stdout io.Writer) int {
	w, _ := lookupWorkload(o.workload)
	rep := &childReport{}
	clock := time.Now()
	e := &env{root: o.root, seed: o.seed, store: o.store}
	setup := newPassState(rep, false, clock)
	pass, err := w.prepare(e, setup)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: set-up: %v\n", w.name, err)
		return 1
	}
	fmt.Fprintln(stdout, "ready")
	if o.role == "setup" {
		for _, msg := range rep.Errors {
			fmt.Fprintf(os.Stderr, "bench: %s: set-up: %s\n", w.name, msg)
		}
		if rep.Failed > 0 {
			return 1
		}
		return 0
	}

	window := time.Duration(o.seconds) * time.Second
	closedLoop(rep, window, false, clock, pass)
	if o.trace == 1 {
		f, err := os.Create(o.profile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
			return 1
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
			return 1
		}
		rep.Spans = append(rep.Spans, span{ID: 0, Parent: -1, Name: w.name})
		closedLoop(rep, window, true, clock, pass)
		pprof.StopCPUProfile()
		rep.Spans[0].End = time.Since(clock).Seconds()
		if err := f.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
			return 1
		}
	}
	_, rep.PeakRSSKB = rusage()
	if err := json.NewEncoder(stdout).Encode(rep); err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
		return 1
	}
	return 0
}
