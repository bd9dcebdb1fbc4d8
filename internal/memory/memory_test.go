package memory

import (
	"math"
	"reflect"
	"testing"

	"t3sim/internal/metrics"
	"t3sim/internal/sim"
	"t3sim/internal/units"
)

func testConfig() Config {
	cfg := DefaultConfig()
	cfg.Channels = 4
	cfg.TotalBandwidth = 4 * units.GBps // 1 GB/s per channel: 1 byte/ns
	cfg.RequestGranularity = 1 * units.KiB
	cfg.QueueDepth = 8
	cfg.ReadLatency = 0
	return cfg
}

func newTestController(t *testing.T, cfg Config, arb Arbiter) (*sim.Engine, *Controller) {
	t.Helper()
	eng := sim.NewEngine()
	c, err := NewController(eng, cfg, arb)
	if err != nil {
		t.Fatal(err)
	}
	return eng, c
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Errorf("DefaultConfig invalid: %v", err)
	}
	bad := []func(*Config){
		func(c *Config) { c.Channels = 0 },
		func(c *Config) { c.TotalBandwidth = 0 },
		func(c *Config) { c.RequestGranularity = 0 },
		func(c *Config) { c.RequestGranularity = math.MaxUint32 + 1 },
		func(c *Config) { c.QueueDepth = 0 },
		func(c *Config) { c.ReadLatency = -1 },
		func(c *Config) { c.UpdateFactor = 0.5 },
	}
	for i, mutate := range bad {
		cfg := DefaultConfig()
		mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("case %d: expected validation error", i)
		}
	}
	eng := sim.NewEngine()
	if _, err := NewController(eng, DefaultConfig(), nil); err == nil {
		t.Error("nil arbiter: expected error")
	}
}

func TestTransferBandwidthAsymptote(t *testing.T) {
	// Moving 4 MiB at 4 GB/s should take ~1.048 ms (4 MiB / 4e9 B/s), within
	// a small tolerance for request rounding.
	eng, c := newTestController(t, testConfig(), ComputeFirst{})
	total := 4 * units.MiB
	var done units.Time
	c.Transfer(Read, StreamCompute, total, Tag{}, func() { done = eng.Now() })
	eng.Run()
	want := (4 * units.GBps).TransferTime(total)
	if done < want || done > want+want/100 {
		t.Errorf("transfer finished at %v, want about %v", done, want)
	}
	if got := c.Counters().KindBytes(Read); got != total {
		t.Errorf("read bytes = %v, want %v", got, total)
	}
}

func TestUpdateFactorSlowsService(t *testing.T) {
	cfg := testConfig()
	engW, cW := newTestController(t, cfg, ComputeFirst{})
	var doneW units.Time
	cW.Transfer(Write, StreamCompute, 1*units.MiB, Tag{}, func() { doneW = engW.Now() })
	engW.Run()

	engU, cU := newTestController(t, cfg, ComputeFirst{})
	var doneU units.Time
	cU.Transfer(Update, StreamCompute, 1*units.MiB, Tag{}, func() { doneU = engU.Now() })
	engU.Run()

	ratio := float64(doneU) / float64(doneW)
	if ratio < 1.9 || ratio > 2.1 {
		t.Errorf("update/write time ratio = %.3f, want about %v", ratio, cfg.UpdateFactor)
	}
}

func TestReadLatencyAddsToCompletion(t *testing.T) {
	cfg := testConfig()
	cfg.ReadLatency = 100 * units.Nanosecond
	eng, c := newTestController(t, cfg, ComputeFirst{})
	var done units.Time
	c.Transfer(Read, StreamCompute, 1024, Tag{}, func() { done = eng.Now() })
	eng.Run()
	// 1024 B at 1 B/ns service = 1024 ns + 100 ns latency (+1 for ceil).
	want := units.Time(1024+100) * units.Nanosecond
	if done < want || done > want+units.Nanosecond {
		t.Errorf("read completed at %v, want about %v", done, want)
	}
}

func TestComputeFirstPriority(t *testing.T) {
	// Saturate a single channel with comm, then submit compute: the compute
	// request must overtake all still-queued comm requests.
	cfg := testConfig()
	cfg.Channels = 1
	cfg.TotalBandwidth = 1 * units.GBps
	cfg.QueueDepth = 2
	eng, c := newTestController(t, cfg, ComputeFirst{})

	var order []string
	for i := 0; i < 8; i++ {
		c.Transfer(Read, StreamComm, 1024, Tag{}, func() { order = append(order, "comm") })
	}
	var computeDone int
	eng.After(1, func() {
		c.Transfer(Read, StreamCompute, 1024, Tag{}, func() {
			order = append(order, "compute")
			computeDone = len(order)
		})
	})
	eng.Run()
	// QueueDepth 2 comm requests were already issued before compute arrived;
	// at most one more is in service. Compute must finish no later than 4th.
	if computeDone == 0 || computeDone > 4 {
		t.Errorf("compute completed at position %d of %v, want <= 4", computeDone, order)
	}
}

func TestRoundRobinAlternates(t *testing.T) {
	cfg := testConfig()
	cfg.Channels = 1
	cfg.QueueDepth = 1
	eng, c := newTestController(t, cfg, &RoundRobin{})
	var order []Stream
	submit := func(s Stream) {
		c.Transfer(Read, s, 1024, Tag{}, func() { order = append(order, s) })
	}
	for i := 0; i < 3; i++ {
		submit(StreamCompute)
		submit(StreamComm)
	}
	eng.Run()
	if len(order) != 6 {
		t.Fatalf("completed %d, want 6", len(order))
	}
	// With queue depth 1 and both queues loaded the policy must alternate.
	for i := 1; i < len(order); i++ {
		if order[i] == order[i-1] {
			t.Errorf("round robin did not alternate at %d: %v", i, order)
			break
		}
	}
}

func TestMCAThresholdBlocksComm(t *testing.T) {
	// With an MCA threshold of 0-ish restrictiveness, comm issues only when
	// the DRAM queue has room below the threshold even though compute is idle.
	cfg := testConfig()
	cfg.Channels = 1
	cfg.QueueDepth = 8
	mca := NewMCA(DefaultMCAConfig())
	mca.SetIntensity(0.9) // most restrictive threshold = 5
	if mca.Threshold() != 5 {
		t.Fatalf("threshold = %d, want 5", mca.Threshold())
	}
	reg := metrics.NewRegistry()
	cfg.Metrics = reg
	eng, c := newTestController(t, cfg, mca)
	issued := func() int64 { return reg.CounterValue("memory.arb.comm_issues") }
	for i := 0; i < 20; i++ {
		c.Transfer(Write, StreamComm, 1024, Tag{}, nil)
	}
	// Immediately after submission, at most threshold requests may be in the
	// DRAM queue (issue stops at occupancy 5); one more can issue each time
	// the service stage pops the queue.
	if got := issued(); got > int64(mca.Threshold()+1) {
		t.Errorf("issued %d comm requests at t=0, want <= %d", got, mca.Threshold()+1)
	}
	eng.Run()
	if got := issued(); got != 20 {
		t.Errorf("total issued = %d, want 20 (no request lost)", got)
	}
}

// TestTraceSeriesClassifyIssues pins the issue-time traffic series a
// controller with a sink keeps: each request lands, at its issue time, in
// its [kind][stream] class's TraceBucket-wide bucket, writes and NMC updates
// share a class, and a class with no traffic is registered but empty.
func TestTraceSeriesClassifyIssues(t *testing.T) {
	reg := metrics.NewRegistry()
	cfg := testConfig()
	cfg.Metrics = reg
	eng, c := newTestController(t, cfg, &RoundRobin{})
	series := func(k AccessKind, s Stream) *metrics.TimeSeries {
		return reg.Series(TraceSeriesName(k, s), TraceBucket)
	}
	c.Transfer(Read, StreamCompute, 3*units.KiB, Tag{}, nil)
	c.Transfer(Write, StreamCompute, 1*units.KiB, Tag{}, nil)
	eng.At(2*TraceBucket+5, func() {
		c.Transfer(Update, StreamCompute, 2*units.KiB, Tag{}, nil)
		c.Transfer(Read, StreamComm, 1*units.KiB, Tag{}, nil)
	})
	eng.Run()
	for _, tc := range []struct {
		k    AccessKind
		s    Stream
		want []int64
	}{
		{Read, StreamCompute, []int64{3 << 10}},
		{Write, StreamCompute, []int64{1 << 10, 0, 2 << 10}},
		{Update, StreamCompute, []int64{1 << 10, 0, 2 << 10}},
		{Read, StreamComm, []int64{0, 0, 1 << 10}},
		{Write, StreamComm, nil},
	} {
		ts := series(tc.k, tc.s)
		var got []int64
		for i := 0; i < ts.Len(); i++ {
			got = append(got, ts.BucketValue(i))
		}
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%v/%v series = %v, want %v", tc.k, tc.s, got, tc.want)
		}
	}
}

func TestMCAStarvationBound(t *testing.T) {
	// Keep the compute stream permanently full; comm must still issue within
	// the starvation limit.
	cfg := testConfig()
	cfg.Channels = 1
	cfg.QueueDepth = 4
	mcfg := DefaultMCAConfig()
	mcfg.StarvationLimit = 10 * units.Microsecond
	mca := NewMCA(mcfg)
	mca.SetIntensity(0.9)
	eng, c := newTestController(t, cfg, mca)
	// Feed compute continuously: each completion enqueues another.
	var feed func()
	remaining := 200
	feed = func() {
		if remaining == 0 {
			return
		}
		remaining--
		c.Transfer(Read, StreamCompute, 1024, Tag{}, feed)
	}
	for i := 0; i < 8; i++ {
		feed()
	}
	c.Transfer(Write, StreamComm, 1024, Tag{}, nil)
	eng.Run()
	// The single comm request is one granularity-sized request on the only
	// channel, so the channel's last comm issue time is its first.
	commIssue := c.channels[0].lastComm
	if commIssue == 0 {
		t.Fatal("comm request never issued")
	}
	if commIssue > mcfg.StarvationLimit+20*units.Microsecond {
		t.Errorf("comm issued at %v, want within starvation bound %v", commIssue, mcfg.StarvationLimit)
	}
}

func TestMCAIntensityMapping(t *testing.T) {
	cases := []struct {
		intensity float64
		want      int
	}{
		{0.9, 5}, {0.7, 5}, {0.5, 10}, {0.3, 10}, {0.2, 30}, {0.1, 30}, {0.01, -1}, {0, -1},
	}
	for _, cse := range cases {
		m := NewMCA(DefaultMCAConfig())
		m.SetIntensity(cse.intensity)
		if m.Threshold() != cse.want {
			t.Errorf("SetIntensity(%v): threshold = %d, want %d", cse.intensity, m.Threshold(), cse.want)
		}
		if !m.Calibrated() {
			t.Errorf("SetIntensity(%v): not calibrated", cse.intensity)
		}
	}
	if NewMCA(MCAConfig{}).Threshold() != 5 {
		t.Error("zero-config MCA should start at the most restrictive threshold")
	}
}

func TestMonitorWindowCalibratesMCA(t *testing.T) {
	cfg := testConfig()
	cfg.Channels = 1
	mca := NewMCA(DefaultMCAConfig())
	eng, c := newTestController(t, cfg, mca)
	c.BeginMonitor()
	// A heavy burst keeps DRAM queue occupancy high during the window.
	for i := 0; i < 200; i++ {
		c.Transfer(Read, StreamCompute, 1024, Tag{}, nil)
	}
	eng.Run()
	c.EndMonitor()
	if !mca.Calibrated() {
		t.Fatal("monitor window did not calibrate MCA")
	}
	if mca.Threshold() != 5 && mca.Threshold() != 10 {
		t.Errorf("threshold after heavy window = %d, want restrictive (5 or 10)", mca.Threshold())
	}

	// An idle window maps to the unlimited threshold.
	mca2 := NewMCA(DefaultMCAConfig())
	_, c2 := newTestController(t, cfg, mca2)
	c2.BeginMonitor()
	c2.EndMonitor()
	if mca2.Threshold() != -1 {
		t.Errorf("threshold after idle window = %d, want -1", mca2.Threshold())
	}
}

func TestWhenIdle(t *testing.T) {
	eng, c := newTestController(t, testConfig(), ComputeFirst{})
	var commIdleAt, allIdleAt units.Time
	c.Transfer(Write, StreamComm, 64*units.KiB, Tag{}, nil)
	c.Transfer(Read, StreamCompute, 128*units.KiB, Tag{}, nil)
	c.WhenIdle(StreamComm, func() { commIdleAt = eng.Now() })
	c.WhenAllIdle(func() { allIdleAt = eng.Now() })
	eng.Run()
	if commIdleAt == 0 || allIdleAt == 0 {
		t.Fatalf("idle callbacks did not run: comm=%v all=%v", commIdleAt, allIdleAt)
	}
	if commIdleAt > allIdleAt {
		t.Errorf("comm idle (%v) after all idle (%v)", commIdleAt, allIdleAt)
	}
	// Already-idle controller runs callback immediately.
	ran := false
	c.WhenIdle(StreamComm, func() { ran = true })
	if !ran {
		t.Error("WhenIdle on idle controller should run immediately")
	}
}

func TestCounters(t *testing.T) {
	eng, c := newTestController(t, testConfig(), ComputeFirst{})
	c.Transfer(Read, StreamCompute, 10*units.KiB, Tag{}, nil)
	c.Transfer(Write, StreamComm, 6*units.KiB, Tag{}, nil)
	c.Transfer(Update, StreamComm, 4*units.KiB, Tag{}, nil)
	eng.Run()
	cnt := c.Counters()
	if got := cnt.KindBytes(Read); got != 10*units.KiB {
		t.Errorf("read bytes = %v", got)
	}
	if got := cnt.StreamBytes(StreamComm); got != 10*units.KiB {
		t.Errorf("comm bytes = %v", got)
	}
	if got := cnt.TotalBytes(); got != 20*units.KiB {
		t.Errorf("total bytes = %v", got)
	}
	if cnt.Requests[Read][StreamCompute] != 10 {
		t.Errorf("read requests = %d, want 10", cnt.Requests[Read][StreamCompute])
	}
}

func TestTransferZeroBytesCompletesImmediately(t *testing.T) {
	_, c := newTestController(t, testConfig(), ComputeFirst{})
	ran := false
	c.Transfer(Read, StreamCompute, 0, Tag{}, func() { ran = true })
	if !ran {
		t.Error("zero-byte transfer should complete synchronously")
	}
}

func TestRequestsFor(t *testing.T) {
	_, c := newTestController(t, testConfig(), ComputeFirst{})
	g := c.Config().RequestGranularity
	cases := []struct {
		in   units.Bytes
		want int
	}{{0, 0}, {1, 1}, {g, 1}, {g + 1, 2}, {10 * g, 10}}
	for _, cse := range cases {
		if got := c.RequestsFor(cse.in); got != cse.want {
			t.Errorf("RequestsFor(%v) = %d, want %d", cse.in, got, cse.want)
		}
	}
}

func TestStringers(t *testing.T) {
	if Read.String() != "read" || Write.String() != "write" || Update.String() != "update" {
		t.Error("AccessKind strings wrong")
	}
	if StreamCompute.String() != "compute" || StreamComm.String() != "comm" {
		t.Error("Stream strings wrong")
	}
	if AccessKind(9).String() == "" || Stream(9).String() == "" {
		t.Error("unknown values should still render")
	}
}
