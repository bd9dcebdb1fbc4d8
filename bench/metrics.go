package main

// metricDef names one reported metric and its unit. BENCHMARK.json at the
// repository root lists the same names and units (TestMetricsMatchManifest).
type metricDef struct{ name, unit string }

// endToEndMetrics are what a user of the simulator sees, measured with
// tracing off: host time and memory per pass, and the time before the first
// pass can start.
var endToEndMetrics = []metricDef{
	{"wall_s", "s"},
	{"cpu_s", "s"},
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
}

// layerPackages are the repository's packages (under t3sim/internal/) that
// get a CPU-profile bucket of their own.
var layerPackages = []string{
	"sim", "memory", "t3core", "interconnect", "collective", "gpu",
	"experiments", "store", "serving",
}

// profBuckets are the layers CPU-profile self time is attributed to;
// profBucket maps a frame's package to one of them.
var profBuckets = append(append([]string(nil), layerPackages...), "gob", "runtime", "io", "other")

// spanEntries are the catalogue entries whose Run calls get their own share
// of a pass: the ones that cost the most on a cold catalogue, plus fig17
// and ablation-arb, whose runs are never cached and so dominate a warm one.
// Every other entry's call counts towards exp.rest.
var spanEntries = []string{
	"fig14", "fig15", "fig16-large", "fig17", "fig20", "mirror", "multi64", "multi256",
	"coarse-overlap", "layer", "topo-sweep", "ablation-arb",
}

// clusterShapes are the three 256-device topologies of experiments.Multi256,
// named as its metrics scopes name them.
var clusterShapes = []string{"ring-256", "torus-16x16", "hier-4x64"}

// perLayerMetrics lists what the traced run reports, grouped by the module
// it measures. Shares ("frac") are of CPU-profile samples or of pass wall
// time; "sim_ps" is simulated time, which is deterministic.
func perLayerMetrics() []metricDef {
	var ms []metricDef
	for _, b := range profBuckets {
		ms = append(ms, metricDef{"prof." + b, "frac"})
	}
	ms = append(ms,
		metricDef{"go.alloc_mb", "MB"},
		metricDef{"go.mallocs", "count"},
		metricDef{"go.gc_cycles", "count"},
		metricDef{"go.gc_pause_ms", "ms"},
	)
	for _, e := range spanEntries {
		ms = append(ms, metricDef{"exp." + e, "frac"})
	}
	ms = append(ms,
		metricDef{"exp.rest", "frac"},
		metricDef{"memo.hits", "count"},
		metricDef{"memo.misses", "count"},
		metricDef{"store.hits", "count"},
		metricDef{"store.misses", "count"},
		metricDef{"store.corrupt", "count"},
		metricDef{"store.bytes_read", "B"},
		metricDef{"store.puts", "count"},
		metricDef{"store.bytes_written", "B"},
	)
	for _, s := range clusterShapes {
		ms = append(ms,
			metricDef{"cluster." + s + ".windows", "count"},
			metricDef{"cluster." + s + ".null_messages", "count"},
			metricDef{"cluster." + s + ".stalled_engine_windows", "count"},
			metricDef{"cluster." + s + ".avg_window_ps", "sim_ps"},
		)
	}
	return append(ms,
		metricDef{"memory.issues", "count"},
		metricDef{"memory.stream_switches", "count"},
		metricDef{"gpu.wgs_launched", "count"},
		metricDef{"interconnect.sent_bytes", "B"},
		metricDef{"serving.req_per_s", "1/s"},
		metricDef{"serving.steps", "count"},
		metricDef{"serving.prefills", "count"},
		metricDef{"serving.decode_tokens", "count"},
		metricDef{"trace.overhead_frac", "frac"},
	)
}
