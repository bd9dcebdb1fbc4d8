package experiments

import (
	"reflect"
	"testing"

	"t3sim/internal/check"
	"t3sim/internal/interconnect"
	"t3sim/internal/memory"
	"t3sim/internal/metrics"
	"t3sim/internal/t3core"
	"t3sim/internal/transformer"
	"t3sim/internal/units"
)

// TestMemoPolicyExhaustive pins the hasher's field-policy tables to the
// option structs they cover: every field must be classified, and no stale
// classifications may outlive a removed field. This is the guard the memo
// cache's soundness rests on — a new timing-relevant option that the key
// does not cover would silently alias two different simulations.
func TestMemoPolicyExhaustive(t *testing.T) {
	for typ, policy := range hashPolicies {
		fields := map[string]bool{}
		for i := 0; i < typ.NumField(); i++ {
			name := typ.Field(i).Name
			fields[name] = true
			if _, ok := policy[name]; !ok {
				t.Errorf("%v.%s has no memo field policy: classify it in hashPolicies "+
					"(hash if it changes simulation results, barrier if it is an "+
					"observer hook, skip only if provably inert)", typ, name)
			}
		}
		for name := range policy {
			if !fields[name] {
				t.Errorf("hashPolicies[%v] names %q, which is not a field", typ, name)
			}
		}
	}
}

// memoTestOptions builds a cacheable baseline whose every hashed leaf is
// reachable: DMATilesPerBlock avoids the <=1 normalization plateau and the
// bank-group DRAM model is attached so its fields are walked too.
func memoTestOptions(t *testing.T) t3core.FusedOptions {
	t.Helper()
	c, err := ablationCase()
	if err != nil {
		t.Fatal(err)
	}
	opts, _, err := fusedOptionsFor(DefaultSetup(), c)
	if err != nil {
		t.Fatal(err)
	}
	opts.DMATilesPerBlock = 4
	banks := memory.DefaultBankConfig()
	opts.Memory.Banks = &banks
	return opts
}

// perturbLeaves walks every hashed scalar leaf under v, applying mutate to
// each in turn (restoring it afterwards) and reporting the leaf's path.
func perturbLeaves(t *testing.T, v reflect.Value, path string, visit func(path string)) {
	t.Helper()
	switch v.Kind() {
	case reflect.Bool:
		old := v.Bool()
		v.SetBool(!old)
		visit(path)
		v.SetBool(old)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		old := v.Int()
		v.SetInt(old + 1)
		visit(path)
		v.SetInt(old)
	case reflect.Float32, reflect.Float64:
		old := v.Float()
		v.SetFloat(old + 1)
		visit(path)
		v.SetFloat(old)
	case reflect.Pointer:
		if !v.IsNil() {
			perturbLeaves(t, v.Elem(), path, visit)
		}
	case reflect.Struct:
		policy := hashPolicies[v.Type()]
		for i := 0; i < v.NumField(); i++ {
			f := v.Type().Field(i)
			if policy[f.Name] != policyHash {
				continue
			}
			if !v.Field(i).CanSet() {
				continue
			}
			perturbLeaves(t, v.Field(i), path+"."+f.Name, visit)
		}
	}
}

// TestMemoKeyPerturbation flips every hashed scalar the options reach and
// asserts each flip changes the key: no timing-relevant knob may alias.
func TestMemoKeyPerturbation(t *testing.T) {
	opts := memoTestOptions(t)
	base, ok, _ := fusedKey(opts)
	if !ok {
		t.Fatal("baseline options must be cacheable")
	}
	leaves := 0
	perturbLeaves(t, reflect.ValueOf(&opts).Elem(), "FusedOptions", func(path string) {
		leaves++
		k, ok, _ := fusedKey(opts)
		if !ok {
			t.Fatalf("%s: perturbed options became uncacheable", path)
		}
		if k == base {
			t.Errorf("%s: perturbation did not change the memo key", path)
		}
	})
	// The walk must reach deep into the nested configs (GPU, memory, banks,
	// link, tracker, grid); a shallow count means the walker went blind.
	if leaves < 30 {
		t.Fatalf("perturbed only %d leaves; the reflection walk lost coverage", leaves)
	}
	if k, _, _ := fusedKey(opts); k != base {
		t.Fatal("perturbation walk did not restore the options")
	}
}

// TestMemoKeyNormalization pins the canonicalization and the sublayer key's
// extra inputs.
func TestMemoKeyNormalization(t *testing.T) {
	opts := memoTestOptions(t)

	a := opts
	a.DMATilesPerBlock = 0
	b := opts
	b.DMATilesPerBlock = 1
	ka, _, _ := fusedKey(a)
	kb, _, _ := fusedKey(b)
	if ka != kb {
		t.Error("DMATilesPerBlock 0 and 1 mean the same schedule but key differently")
	}
	c := opts
	c.DMATilesPerBlock = 2
	if kc, _, _ := fusedKey(c); kc == kb {
		t.Error("DMATilesPerBlock 2 aliases 1")
	}

	flat := opts
	flat.Memory.Banks = nil
	kFlat, _, _ := fusedKey(flat)
	kBanks, _, _ := fusedKey(opts)
	if kFlat == kBanks {
		t.Error("flat and bank-group DRAM models share a key")
	}

	sk, ok, _ := sublayerKey(opts, 1*units.MiB, 80, 16*units.GBps)
	if !ok {
		t.Fatal("sublayer key must be cacheable")
	}
	for name, other := range map[string]memoKey{
		"ARBytes":           mustSublayerKey(t, opts, 2*units.MiB, 80, 16*units.GBps),
		"CollectiveCUs":     mustSublayerKey(t, opts, 1*units.MiB, 40, 16*units.GBps),
		"PerCUMemBandwidth": mustSublayerKey(t, opts, 1*units.MiB, 80, 32*units.GBps),
	} {
		if other == sk {
			t.Errorf("sublayer key ignores %s", name)
		}
	}
}

func mustSublayerKey(t *testing.T, o t3core.FusedOptions, ar units.Bytes, cus int, bw units.Bandwidth) memoKey {
	t.Helper()
	k, ok, _ := sublayerKey(o, ar, cus, bw)
	if !ok {
		t.Fatal("sublayer key must be cacheable")
	}
	return k
}

// TestMemoBarrierFields asserts a live metrics sink blocks caching — a hit
// would skip the recording the caller asked for — while a pinned MCA
// threshold splits the key and the pure-collector checker neither blocks
// caching nor perturbs the key.
func TestMemoBarrierFields(t *testing.T) {
	base := memoTestOptions(t)
	baseKey, ok, baseDisk := fusedKey(base)
	if !ok {
		t.Fatal("baseline options must be cacheable")
	}

	cases := map[string]t3core.FusedOptions{}

	o := base
	o.Metrics = metrics.NewRegistry()
	cases["Metrics"] = o

	o = base
	o.Memory.Metrics = metrics.NewRegistry()
	cases["Memory.Metrics"] = o

	for name, opts := range cases {
		if _, ok, _ := fusedKey(opts); ok {
			t.Errorf("%s set: options must be uncacheable", name)
		}
	}

	// A pinned MCA threshold is data, not a hook: every value, 0 (the
	// dynamic MCA) included, keys its own run, cacheable on both tiers.
	pinned := map[memoKey]int{}
	for _, th := range []int{0, 5, 10, 30, memory.MCANoLimit} {
		o := base
		o.Arbitration = t3core.ArbMCA
		o.FixedMCAThreshold = th
		k, ok, diskOK := fusedKey(o)
		if !ok || !diskOK {
			t.Errorf("FixedMCAThreshold %d: options must be cacheable on both tiers", th)
		}
		if prev, dup := pinned[k]; dup {
			t.Errorf("FixedMCAThreshold %d and %d share a key", prev, th)
		}
		pinned[k] = th
	}

	withCheck := base
	withCheck.Check = check.New()
	k, ok, diskOK := fusedKey(withCheck)
	if !ok {
		t.Fatal("a checker must not block caching: golden runs attach one to every simulation")
	}
	if k != baseKey {
		t.Error("the checker perturbed the key; identical runs with and without it must share")
	}
	if !baseDisk {
		t.Error("checker-free options must be eligible for the persistent tier")
	}
	if diskOK {
		t.Error("a checker must block the persistent tier: a -check run has to simulate, " +
			"not read an unchecked process's result")
	}
}

// TestMemoDistinctCollectiveKeys pins that distinct collectives give
// distinct keys for otherwise identical options: o.Collective picks the
// simulated datapath.
func TestMemoDistinctCollectiveKeys(t *testing.T) {
	opts := memoTestOptions(t)
	seen := map[memoKey]t3core.Collective{}
	for _, c := range []t3core.Collective{t3core.RingReduceScatter, t3core.DirectReduceScatter,
		t3core.RingAllGather, t3core.AllToAll} {
		opts.Collective = c
		k, ok, _ := fusedKey(opts)
		if !ok {
			t.Fatal("baseline options must be cacheable")
		}
		if prev, dup := seen[k]; dup {
			t.Fatalf("collectives %v and %v share a key", prev, c)
		}
		seen[k] = c
	}
}

// TestSetupKey pins the whole-experiment key space: execution-strategy knobs
// must not split the key, timing-relevant ones must, a metrics sink blocks
// caching entirely, and a checker blocks only the persistent tier.
func TestSetupKey(t *testing.T) {
	base := DefaultSetup()
	k0, ok, diskOK := setupKey(base)
	if !ok || !diskOK {
		t.Fatal("the default setup must be fully cacheable")
	}

	same := base
	same.MultiDeviceWorkers = 7
	same.Memo = NewMemoCache()
	if k, ok, _ := setupKey(same); !ok || k != k0 {
		t.Error("execution-strategy knobs (workers, memo handle) must not split the key")
	}

	for name, mutate := range map[string]func(*Setup){
		"Memory.TotalBandwidth": func(s *Setup) { s.Memory.TotalBandwidth *= 2 },
		"Link.LinkBandwidth":    func(s *Setup) { s.Link.LinkBandwidth *= 2 },
		"CollectiveCUs":         func(s *Setup) { s.CollectiveCUs++ },
		"ServeQPS":              func(s *Setup) { s.ServeQPS = append([]float64(nil), 1, 2, 3) },
		"ServeSLO":              func(s *Setup) { s.ServeSLO += units.Millisecond },
		"Topo":                  func(s *Setup) { s.Topo = interconnect.RingTopo(8, s.Link) },
	} {
		mutated := base
		mutate(&mutated)
		k, ok, _ := setupKey(mutated)
		if !ok {
			t.Errorf("%s: mutated setup became uncacheable", name)
			continue
		}
		if k == k0 {
			t.Errorf("setup key ignores %s", name)
		}
	}

	observed := base
	observed.Metrics = metrics.NewRegistry()
	if _, ok, _ := setupKey(observed); ok {
		t.Error("a live metrics sink must make the setup uncacheable")
	}

	checked := base
	checked.Check = check.New()
	k, ok, diskOK := setupKey(checked)
	if !ok || k != k0 {
		t.Error("a checker must neither block in-memory caching nor perturb the key")
	}
	if diskOK {
		t.Error("a checker must block the persistent tier")
	}
}

// TestMemoFusedReuse pins the fused-level cache: a replayed configuration is
// served from cache (the result's slice is aliased, proving no second
// simulation ran), and a nil cache still simulates.
func TestMemoFusedReuse(t *testing.T) {
	opts := memoTestOptions(t)
	opts.Memory.Banks = nil // keep the run cheap
	m := NewMemoCache()
	r1, err := m.Fused(opts)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := m.Fused(opts)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Done != r2.Done || r1.GEMMDone != r2.GEMMDone {
		t.Fatal("cached replay diverged from the original run")
	}
	if len(r1.StageReads) == 0 || &r1.StageReads[0] != &r2.StageReads[0] {
		t.Error("replay did not come from the cache (StageReads not aliased)")
	}
	if hits, misses := m.Stats(); hits != 1 || misses != 1 {
		t.Errorf("stats = %d hits / %d misses, want 1/1", hits, misses)
	}

	rNil, err := memoFused(nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	if rNil.Done != r1.Done {
		t.Error("nil-cache run diverged")
	}
}

// TestMemoSublayerCrossEvaluator pins the tentpole behavior: evaluators that
// share a MemoCache — as the ablation link sweep's derived evaluators share
// the Runner's — simulate a given sub-layer once per process, while setups
// that differ in a timing-relevant knob, or that record metrics, simulate
// afresh.
func TestMemoSublayerCrossEvaluator(t *testing.T) {
	c, err := ablationCase()
	if err != nil {
		t.Fatal(err)
	}
	s := DefaultSetup()
	s.Memo = NewMemoCache()

	sims := 0
	newEv := func(s Setup) *Evaluator {
		ev, err := NewEvaluator(s)
		if err != nil {
			t.Fatal(err)
		}
		ev.Parallelism = 1
		ev.onEvaluate = func(SubCase) { sims++ }
		return ev
	}

	r1, err := newEv(s).Evaluate(c)
	if err != nil {
		t.Fatal(err)
	}
	if sims != 1 {
		t.Fatalf("first evaluation simulated %d times, want 1", sims)
	}

	r2, err := newEv(s).Evaluate(c)
	if err != nil {
		t.Fatal(err)
	}
	if sims != 1 {
		t.Fatalf("identical setup re-simulated (%d sims); memo should have served it", sims)
	}
	if r1.Sequential != r2.Sequential || r1.T3 != r2.T3 || r1.T3MCA != r2.T3MCA ||
		r1.BaselineDRAM != r2.BaselineDRAM || r1.T3DRAM != r2.T3DRAM {
		t.Fatal("memo hit returned a different result")
	}
	if r2.Case.String() != c.String() {
		t.Fatal("memo hit lost the caller's case identity")
	}

	slow := s
	slow.Link.LinkBandwidth /= 2
	if _, err := newEv(slow).Evaluate(c); err != nil {
		t.Fatal(err)
	}
	if sims != 2 {
		t.Fatalf("changed link bandwidth did not re-simulate (%d sims)", sims)
	}

	observed := s
	observed.Metrics = metrics.NewRegistry()
	if _, err := newEv(observed).Evaluate(c); err != nil {
		t.Fatal(err)
	}
	if sims != 3 {
		t.Fatalf("metrics-recording setup was served from cache (%d sims)", sims)
	}
}

// TestMemoIsolatedGEMMAcrossLinkSweep pins how many isolated GEMMs the link
// sweep simulates: the GEMM never reads the link, so its five derived
// evaluators share one run through the setup's memo (before the GEMM had a
// memo of its own, each bandwidth ran it again).
func TestMemoIsolatedGEMMAcrossLinkSweep(t *testing.T) {
	s := DefaultSetup()
	s.Memo = NewMemoCache()
	ev, err := NewEvaluator(s)
	if err != nil {
		t.Fatal(err)
	}
	res, err := AblationLinkBandwidth(ev)
	if err != nil {
		t.Fatal(err)
	}
	if hits, misses := s.Memo.gemm.stats(); hits != 4 || misses != 1 {
		t.Fatalf("isolated GEMM memo: %d hits, %d misses; want 4 hits, 1 miss (one simulation)", hits, misses)
	}
	for _, row := range res.Rows[1:] {
		if row.GEMM != res.Rows[0].GEMM {
			t.Fatalf("GEMM time %v at %v, %v at %v", row.GEMM, row.LinkBandwidth, res.Rows[0].GEMM, res.Rows[0].LinkBandwidth)
		}
	}

	// A live metrics sink is the side effect the caller asked for: that
	// run simulates and leaves the table alone.
	sl, err := transformer.SubLayerGEMM(res.Case.Model, res.Case.Kind, res.Case.TP)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := ev.isolatedGEMM(sl, false, metrics.NewRegistry()); err != nil {
		t.Fatal(err)
	}
	if hits, misses := s.Memo.gemm.stats(); hits != 4 || misses != 1 {
		t.Fatalf("a metrics run touched the GEMM memo: %d hits, %d misses", hits, misses)
	}
}
