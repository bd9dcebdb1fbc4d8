package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"time"

	"t3sim/internal/experiments"
	"t3sim/internal/metrics"
	"t3sim/internal/rng"
	"t3sim/internal/serving"
	"t3sim/internal/store"
	"t3sim/internal/transformer"
)

// simWorkers bounds the simulation goroutines of every child, and is the
// GOMAXPROCS it runs with, so every host runs the same load.
const simWorkers = 2

// workload is one set of inputs the benchmark runs. prepare does the
// set-up — counting any checks it makes as operations of setup — and returns
// the pass the closed loop repeats.
type workload struct {
	name string
	// populate makes set-up first fill a fresh result store by running the
	// catalogue in a child process of this binary (see README: the store's
	// version is the build's identity).
	populate bool
	prepare  func(e *env, setup *passState) (func(*passState), error)
}

// workloads are the benchmark's workloads, in BENCHMARK.json order; its
// "why" fields and README.md say why each exists.
var workloads = []workload{
	{name: "catalogue-cold", prepare: prepareCold},
	{name: "cluster-256", prepare: prepareCluster},
	{name: "catalogue-warm", populate: true, prepare: prepareWarm},
	{name: "serve-openloop", prepare: prepareServe},
}

func lookupWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// env is what a child knows about its run: where the goldens are, the
// seed, and the populated store of a warm run.
type env struct {
	root   string
	seed   int64
	store  string
	golden map[string][]byte
}

// loadGolden reads testdata/golden/<id>.golden for each id.
func (e *env) loadGolden(ids ...string) error {
	if e.golden == nil {
		e.golden = map[string][]byte{}
	}
	for _, id := range ids {
		b, err := os.ReadFile(filepath.Join(e.root, "testdata", "golden", id+".golden"))
		if err != nil {
			return err
		}
		e.golden[id] = b
	}
	return nil
}

// check compares one rendered result, byte for byte, with its golden
// snapshot, printed the way t3sim prints it.
func (e *env) check(id string, r experiments.Renderable) error {
	got := []byte(r.Render() + "\n")
	want, ok := e.golden[id]
	if !ok {
		return fmt.Errorf("no golden snapshot loaded")
	}
	if bytes.Equal(got, want) {
		return nil
	}
	gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			return fmt.Errorf("output differs from golden at line %d: got %q, want %q", i+1, gl[i], wl[i])
		}
	}
	return fmt.Errorf("output has %d lines, golden has %d", len(gl), len(wl))
}

func catalogueIDs() []string {
	var ids []string
	for _, c := range experiments.Catalogue() {
		ids = append(ids, c.Name)
	}
	return ids
}

// cataloguePass renders every catalogue entry in order through runner and
// checks each against its golden. after, when set, is a further check run
// inside each entry's operation.
func cataloguePass(p *passState, e *env, runner *experiments.Runner, after func() error) {
	for _, c := range experiments.Catalogue() {
		p.entry(c.Name, func() error {
			res, err := c.Run(runner)
			if err != nil {
				return err
			}
			if err := e.check(c.Name, res); err != nil {
				return err
			}
			if after != nil {
				return after()
			}
			return nil
		})
	}
}

// countMemo records the memo counters of one pass.
func countMemo(p *passState, m *experiments.MemoCache) {
	h, mi := m.Stats()
	p.counters["memo.hits"] = float64(h)
	p.counters["memo.misses"] = float64(mi)
}

func prepareCold(e *env, _ *passState) (func(*passState), error) {
	if err := e.loadGolden(catalogueIDs()...); err != nil {
		return nil, err
	}
	return func(p *passState) {
		runner := experiments.NewRunner(experiments.DefaultSetup(), 1)
		cataloguePass(p, e, runner, nil)
		countMemo(p, runner.Setup().Memo)
	}, nil
}

func prepareWarm(e *env, _ *passState) (func(*passState), error) {
	if err := e.loadGolden(catalogueIDs()...); err != nil {
		return nil, err
	}
	if _, err := os.Stat(e.store); err != nil {
		return nil, fmt.Errorf("result store: %w", err)
	}
	return func(p *passState) {
		st, err := experiments.OpenStore(e.store, store.ReadOnly)
		if err != nil {
			p.op("open-store", func() error { return err })
			return
		}
		memo := experiments.NewMemoCache()
		memo.AttachStore(st)
		setup := experiments.DefaultSetup()
		setup.Memo = memo
		runner := experiments.NewRunner(setup, 1)
		// A warm pass must be served entirely from the store: a miss means
		// the entry simulated, which is a failure of this workload.
		misses := int64(0)
		cataloguePass(p, e, runner, func() error {
			if m := st.Stats().Misses; m > misses {
				n := m - misses
				misses = m
				return fmt.Errorf("%d result-store misses in a warm pass", n)
			}
			return nil
		})
		countMemo(p, memo)
		s := st.Stats()
		p.counters["store.hits"] = float64(s.Hits)
		p.counters["store.misses"] = float64(s.Misses)
		p.counters["store.corrupt"] = float64(s.Corrupt)
		p.counters["store.bytes_read"] = float64(s.BytesRead)
	}, nil
}

// runPopulate is the -role populate child of a catalogue-warm run: it runs
// the catalogue once into the fresh store at o.store, checking every entry
// against its golden, and reports the writes.
func runPopulate(o options) (*childReport, error) {
	e := &env{root: o.root}
	if err := e.loadGolden(catalogueIDs()...); err != nil {
		return nil, err
	}
	st, err := experiments.OpenStore(o.store, store.ReadWrite)
	if err != nil {
		return nil, err
	}
	memo := experiments.NewMemoCache()
	memo.AttachStore(st)
	setup := experiments.DefaultSetup()
	setup.Memo = memo
	setup.MultiDeviceWorkers = simWorkers
	rep := &childReport{}
	cataloguePass(newPassState(rep, false, time.Now()), e, experiments.NewRunner(setup, simWorkers), nil)
	st.Flush()
	s := st.Stats()
	if s.PutErrors > 0 {
		rep.Failed++
		rep.Errors = append(rep.Errors, fmt.Sprintf("populate: %d result-store writes failed", s.PutErrors))
	}
	rep.Setup = map[string]float64{
		"store.puts":          float64(s.Puts),
		"store.bytes_written": float64(s.BytesWritten),
	}
	return rep, nil
}

func prepareCluster(e *env, _ *passState) (func(*passState), error) {
	if err := e.loadGolden("multi256"); err != nil {
		return nil, err
	}
	return func(p *passState) {
		setup := experiments.DefaultSetup()
		setup.MultiDeviceWorkers = simWorkers
		var reg *metrics.Registry
		if p.traced {
			reg = metrics.NewRegistry()
			setup.Metrics = reg
		}
		p.entry("multi256", func() error {
			res, err := experiments.Multi256(setup)
			if err != nil {
				return err
			}
			return e.check("multi256", res)
		})
		if reg != nil {
			countCluster(p, reg)
		}
	}, nil
}

// countCluster records a Multi256 registry's coordinator counters per
// topology and its model work summed over every device and link.
func countCluster(p *passState, reg *metrics.Registry) {
	c := p.counters
	for _, s := range clusterShapes {
		scope := "multi256/" + s + "/cluster/"
		c["cluster."+s+".windows"] = float64(reg.CounterValue(scope + "windows"))
		c["cluster."+s+".null_messages"] = float64(reg.CounterValue(scope + "null_messages"))
		c["cluster."+s+".stalled_engine_windows"] = float64(reg.CounterValue(scope + "stalled_engine_windows"))
		if w := reg.CounterValue(scope + "engine_windows"); w > 0 {
			c["cluster."+s+".avg_window_ps"] = float64(reg.CounterValue(scope+"advance_ps")) / float64(w)
		}
	}
	for _, name := range reg.CounterNames() {
		v := float64(reg.CounterValue(name))
		leaf := name[strings.LastIndex(name, "/")+1:]
		switch {
		case leaf == "memory.arb.compute_issues", leaf == "memory.arb.comm_issues":
			c["memory.issues"] += v
		case leaf == "memory.arb.stream_switches":
			c["memory.stream_switches"] += v
		case leaf == "gpu.wgs_launched":
			c["gpu.wgs_launched"] += v
		case strings.HasPrefix(leaf, "interconnect.") && strings.HasSuffix(leaf, ".sent_bytes"):
			c["interconnect.sent_bytes"] += v
		}
	}
}

// The serving workload: Mega-GPT-2 at TP-8 with the serve-sweep experiment's
// request count, two-tenant mix and batching limits. A pass serves
// serveSeeds request populations at each rung instead of one, so that it
// takes long enough to time while each call keeps the shape real callers
// run.
const (
	serveModel    = "Mega-GPT-2"
	serveTP       = 8
	serveRequests = 200
	serveSeeds    = 100
	serveMaxBatch = 16
	servePrefills = 4
)

var (
	serveQPS     = []float64{4, 8, 12, 16, 20, 24}
	serveTenants = []serving.Tenant{
		{Name: "chat", PromptMin: 128, PromptMax: 512, OutputMin: 16, OutputMax: 64, Weight: 3},
		{Name: "batch", PromptMin: 256, PromptMax: 1024, OutputMin: 32, OutputMax: 128, Weight: 1},
	}
)

// prepareServe replays the serve-sweep and serve-tenants experiments against
// their goldens and prices both schemes' step costs; each pass then serves
// serveSeeds request populations, derived from the seed, at every rung of
// the QPS ladder. Every call must complete every request and reproduce the
// first pass's summary for its population exactly.
func prepareServe(e *env, setup *passState) (func(*passState), error) {
	ids := []string{"serve-sweep", "serve-tenants"}
	if err := e.loadGolden(ids...); err != nil {
		return nil, err
	}
	runner := experiments.NewRunner(experiments.DefaultSetup(), 1)
	for _, id := range ids {
		c, _ := experiments.CatalogueEntryByName(id)
		setup.op(id, func() error {
			res, err := c.Run(runner)
			if err != nil {
				return err
			}
			return e.check(id, res)
		})
	}
	ev, err := runner.Evaluator()
	if err != nil {
		return nil, err
	}
	model, err := transformer.ModelByName(serveModel)
	if err != nil {
		return nil, err
	}
	type scheme struct {
		name string
		cost *experiments.ServeCost
	}
	var schemes []scheme
	for _, s := range []struct {
		name string
		t3   bool
	}{{"baseline", false}, {"T3-MCA", true}} {
		cost, err := experiments.BuildServeCost(ev, model, serveTP, s.t3)
		if err != nil {
			return nil, err
		}
		schemes = append(schemes, scheme{s.name, cost})
	}

	reference := map[string]*serving.Result{}
	return func(p *passState) {
		var simulated float64
		var inside float64
		for _, s := range schemes {
			for _, qps := range serveQPS {
				for i := uint64(0); i < serveSeeds; i++ {
					name := fmt.Sprintf("serve/%s/qps-%g/%d", s.name, qps, i)
					d := p.op(name, func() error {
						out, err := serving.Run(serving.Config{
							Tenants:            serveTenants,
							QPS:                qps,
							NumRequests:        serveRequests,
							MaxBatch:           serveMaxBatch,
							MaxPrefillsPerStep: servePrefills,
							Seed:               rng.Mix(uint64(e.seed), i),
							Cost:               s.cost,
						})
						if err != nil {
							return err
						}
						if out.Completed != serveRequests {
							return fmt.Errorf("%d of %d requests completed", out.Completed, serveRequests)
						}
						p.counters["serving.steps"] += float64(out.Steps)
						p.counters["serving.prefills"] += float64(out.Prefills)
						p.counters["serving.decode_tokens"] += float64(out.DecodeTokens)
						if ref, ok := reference[name]; !ok {
							reference[name] = out
						} else if !reflect.DeepEqual(ref, out) {
							return fmt.Errorf("summary differs from the first pass with the same seed")
						}
						return nil
					})
					simulated += serveRequests
					inside += d.Seconds()
				}
			}
		}
		p.counters["serving.req_per_s"] = simulated / inside
	}, nil
}
