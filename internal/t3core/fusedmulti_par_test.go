package t3core

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"t3sim/internal/check"
	"t3sim/internal/gemm"
	"t3sim/internal/gpu"
	"t3sim/internal/interconnect"
	"t3sim/internal/memory"
	"t3sim/internal/metrics"
)

// parOptions builds a multi-device configuration for the parallel-DES tests.
func parOptions(t *testing.T, m, n, k, devices int) FusedOptions {
	t.Helper()
	g, err := gemm.NewGrid(gemm.Shape{M: m, N: n, K: k, ElemBytes: 2}, gemm.DefaultTiling())
	if err != nil {
		t.Fatal(err)
	}
	return FusedOptions{
		GPU:         gpu.DefaultConfig(),
		Memory:      memory.DefaultConfig(),
		Link:        interconnect.DefaultConfig(),
		Tracker:     TrackerConfig{Sets: 256, Ways: 64, MaxWFsPerWG: 8},
		Devices:     devices,
		Grid:        g,
		Collective:  RingReduceScatter,
		Arbitration: ArbRoundRobin,
	}
}

// TestMultiDeviceParallelMatchesSequential is the load-bearing equivalence
// test of the conservative parallel layer: driving the cluster with 1, 2 or
// N workers must reproduce the sequential (ParWorkers 0, inline) result
// exactly — every per-device completion time, every DRAM counter, every
// link byte. The golden snapshots pin the sequential result itself.
func TestMultiDeviceParallelMatchesSequential(t *testing.T) {
	for _, devices := range []int{2, 3, 4, 8} {
		o := parOptions(t, 512, 512, 256, devices)
		want, err := RunFusedGEMMRSMultiDevice(o)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 2, devices} {
			po := o
			po.ParWorkers = workers
			chk := check.New()
			po.Check = chk
			got, err := RunFusedGEMMRSMultiDevice(po)
			if err != nil {
				t.Fatalf("devices=%d workers=%d: %v", devices, workers, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("devices=%d workers=%d: parallel result diverged from sequential\n got: %+v\nwant: %+v",
					devices, workers, got, want)
			}
			if !chk.Ok() {
				t.Errorf("devices=%d workers=%d: violations: %v", devices, workers, chk.Violations())
			}
		}
	}
}

// TestPropertyParallelWorkersInvariant: for random tile-aligned shapes the
// explicit run's result is a pure function of the model — identical at
// workers 1, 2 and N, and identical to the sequential path.
func TestPropertyParallelWorkersInvariant(t *testing.T) {
	f := func(mRaw, nRaw uint8, devRaw uint8) bool {
		m := (int(mRaw)%4 + 2) * 128
		n := (int(nRaw)%4 + 2) * 128
		devices := []int{2, 4}[int(devRaw)%2]
		g, err := gemm.NewGrid(gemm.Shape{M: m, N: n, K: 256, ElemBytes: 2}, gemm.DefaultTiling())
		if err != nil || g.NumWFs() < devices {
			return err == nil
		}
		o := FusedOptions{
			GPU:         gpu.DefaultConfig(),
			Memory:      memory.DefaultConfig(),
			Link:        interconnect.DefaultConfig(),
			Tracker:     TrackerConfig{Sets: 256, Ways: 64, MaxWFsPerWG: 8},
			Devices:     devices,
			Grid:        g,
			Collective:  RingReduceScatter,
			Arbitration: ArbRoundRobin,
		}
		want, err := RunFusedGEMMRSMultiDevice(o)
		if err != nil {
			return false
		}
		for _, workers := range []int{1, 2, devices} {
			o.ParWorkers = workers
			got, err := RunFusedGEMMRSMultiDevice(o)
			if err != nil || !reflect.DeepEqual(got, want) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 6}); err != nil {
		t.Error(err)
	}
}

// TestMultiDevice64ParallelMatchesSequential extends the byte-identity proof
// to the Fig-20 scale regime: 64 explicit devices, per-device horizons doing
// real work (devices run far past the global window between ring phases),
// and still every field of the result, the cluster stats included, must
// DeepEqual the sequential (ParWorkers 0) reference at every worker count. Skipped under -short: it simulates 64
// devices five times over.
func TestMultiDevice64ParallelMatchesSequential(t *testing.T) {
	if testing.Short() {
		t.Skip("64-device equivalence sweep is long; run without -short")
	}
	o := parOptions(t, 1024, 1024, 256, 64)
	want, err := RunFusedGEMMRSMultiDevice(o)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 4, 8} {
		po := o
		po.ParWorkers = workers
		chk := check.New()
		po.Check = chk
		got, err := RunFusedGEMMRSMultiDevice(po)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		// The DeepEqual covers the cluster stats too: they are identical
		// at every worker count.
		if !reflect.DeepEqual(got, want) {
			t.Errorf("workers=%d: 64-device parallel result diverged from sequential", workers)
		}
		st := got.Cluster
		if !chk.Ok() {
			t.Errorf("workers=%d: violations: %v", workers, chk.Violations())
		}
		if st.Windows == 0 || st.EngineWindows == 0 {
			t.Errorf("workers=%d: cluster stats not populated: %+v", workers, st)
		}
		if st.AvgWindowWidth() < o.Link.LinkLatency {
			t.Errorf("workers=%d: average window %v narrower than the link latency %v — dynamic lookahead is not engaging",
				workers, st.AvgWindowWidth(), o.Link.LinkLatency)
		}
	}
}

// TestMultiDeviceZeroLatencyRejected pins the fail-fast rule: the minimum
// link latency is the cluster's lookahead, and a zero lookahead admits no
// conservative window, so a zero-latency ring — or any topology with one
// zero-latency link — is rejected up front with an error naming the
// lookahead, at every worker count.
func TestMultiDeviceZeroLatencyRejected(t *testing.T) {
	zero := interconnect.DefaultConfig()
	zero.LinkLatency = 0
	cases := []struct {
		name string
		set  func(o *FusedOptions)
	}{
		{"ring", func(o *FusedOptions) { o.Link = zero }},
		{"torus", func(o *FusedOptions) { o.Topo = interconnect.TorusTopo(2, 2, zero) }},
		{"hier-inter", func(o *FusedOptions) {
			o.Topo = interconnect.HierarchicalTopo(2, 2, interconnect.DefaultConfig(), zero)
		}},
	}
	for _, tc := range cases {
		for _, workers := range []int{0, 2} {
			o := parOptions(t, 256, 256, 128, 4)
			tc.set(&o)
			o.ParWorkers = workers
			if !o.Topo.IsZero() && o.Topo.MinLinkLatency() != 0 {
				t.Fatalf("%s: test topology has a positive minimum link latency", tc.name)
			}
			_, err := RunFusedGEMMRSMultiDevice(o)
			if err == nil || !strings.Contains(err.Error(), "lookahead") {
				t.Errorf("%s workers=%d: got error %v, want a rejection naming the lookahead", tc.name, workers, err)
			}
		}
	}
}

// TestMultiDeviceResultIndependentOfSink is the satellite regression test:
// per-device GEMMDone/CollectiveDone and DRAM counters are collected
// unconditionally — attaching a metrics sink must not change (or be required
// for) any of them, in either execution mode, and Skew() must be a real
// number computed from real completion times.
func TestMultiDeviceResultIndependentOfSink(t *testing.T) {
	for _, workers := range []int{0, 2} {
		o := parOptions(t, 512, 512, 256, 4)
		o.ParWorkers = workers
		bare, err := RunFusedGEMMRSMultiDevice(o)
		if err != nil {
			t.Fatal(err)
		}
		reg := metrics.NewRegistry()
		o.Metrics = reg
		sunk, err := RunFusedGEMMRSMultiDevice(o)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(bare, sunk) {
			t.Errorf("workers=%d: result depends on metrics sink\n bare: %+v\n sunk: %+v",
				workers, bare, sunk)
		}
		if len(bare.GEMMDone) != 4 || len(bare.CollectiveDone) != 4 || len(bare.PerDeviceDRAM) != 4 {
			t.Fatalf("workers=%d: per-device slices not fully populated: %+v", workers, bare)
		}
		for d := 0; d < 4; d++ {
			if bare.GEMMDone[d] <= 0 || bare.CollectiveDone[d] < bare.GEMMDone[d] {
				t.Errorf("workers=%d device %d: implausible times gemm=%v collective=%v",
					workers, d, bare.GEMMDone[d], bare.CollectiveDone[d])
			}
			if bare.PerDeviceDRAM[d].TotalBytes() == 0 {
				t.Errorf("workers=%d device %d: no DRAM traffic collected", workers, d)
			}
		}
		if bare.Skew() < 0 {
			t.Errorf("workers=%d: negative skew %v", workers, bare.Skew())
		}
		// The mirror methodology cross-check: the explicit run's completion
		// stays within the mirror tolerance whether or not a sink is attached.
		mo := parOptions(t, 512, 512, 256, 4)
		mirror, err := RunFused(mo)
		if err != nil {
			t.Fatal(err)
		}
		rel := (float64(bare.Done) - float64(mirror.CollectiveDone)) / float64(bare.Done)
		if rel < -0.05 || rel > 0.05 {
			t.Errorf("workers=%d: explicit run drifted %v%% from mirror", workers, 100*rel)
		}
	}
}

// TestMultiDeviceTimelineMergeDeterministic is the timeline-merge satellite:
// the merged Perfetto trace — one track per device, stable ordering — must
// be byte-identical between the sequential (ParWorkers 0) run and any
// worker count.
func TestMultiDeviceTimelineMergeDeterministic(t *testing.T) {
	export := func(workers int) []byte {
		o := parOptions(t, 512, 512, 256, 4)
		o.ParWorkers = workers
		reg := metrics.NewRegistry()
		o.Metrics = reg
		if _, err := RunFusedGEMMRSMultiDevice(o); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := reg.WriteTrace(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	want := export(0)
	if len(want) == 0 {
		t.Fatal("empty trace from sequential run")
	}
	for _, workers := range []int{1, 2, 4} {
		if got := export(workers); !bytes.Equal(got, want) {
			t.Errorf("workers=%d: merged timeline not byte-identical to sequential (%d vs %d bytes)",
				workers, len(got), len(want))
		}
	}
}

// TestMultiDeviceParallelStress hammers the window barrier and mailboxes
// through the full model — many devices, maximal workers — and doubles as
// the -race exercise for the whole t3core cluster path. The hierarchical
// case routes sends over two hops, so tile deliveries and their pooled ops
// cross engines through a transit device as well as between neighbors.
func TestMultiDeviceParallelStress(t *testing.T) {
	link := interconnect.DefaultConfig()
	inter := link
	inter.LinkBandwidth = link.LinkBandwidth / 3
	inter.LinkLatency = 4 * link.LinkLatency
	for _, spec := range []interconnect.TopoSpec{{}, interconnect.HierarchicalTopo(2, 4, link, inter)} {
		o := parOptions(t, 512, 512, 128, 8)
		o.Topo = spec
		want, err := RunFusedGEMMRSMultiDevice(o)
		if err != nil {
			t.Fatal(err)
		}
		for rep := 0; rep < 3; rep++ {
			po := o
			po.ParWorkers = 8
			got, err := RunFusedGEMMRSMultiDevice(po)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("topology %v rep %d: nondeterministic parallel result", spec.Kind, rep)
			}
		}
	}
}
