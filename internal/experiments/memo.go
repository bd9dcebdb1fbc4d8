package experiments

import (
	"crypto/sha256"
	"hash"
	"io"
	"math"
	"reflect"
	"sync"

	"t3sim/internal/gemm"
	"t3sim/internal/gpu"
	"t3sim/internal/memory"
	"t3sim/internal/metrics"
	"t3sim/internal/store"
	"t3sim/internal/t3core"
	"t3sim/internal/units"
)

// This file implements the process-wide content-addressed result cache. The
// catalogue re-simulates the same sub-layer under many guises: the ablation
// sweeps re-run their baseline point (round-robin and MCA arbitration, the
// 2.0x NMC factor, one-tile DMA blocks, the flat DRAM model, the default
// link bandwidth) with options byte-identical to runs the shared evaluator
// already paid for, and the link sweep builds a whole derived evaluator
// whose 150 GB/s row equals the base case. Every simulation owns a private
// engine and is deterministic, so identical options imply identical
// results — the cache keys runs by a canonical hash of every timing-relevant
// option and serves repeats without simulating.
//
// The cache has two tiers. The in-memory memoTable serves one process's
// repeats; an optional persistent store (internal/store) underneath it
// serves repeats across processes and days: a memory miss probes the disk
// before simulating, and a computed result is written behind the caller's
// back. Disk keys additionally fold in a code-identity version (see
// StoreVersion), so entries from other builds self-invalidate.
//
// Soundness rests on two invariants:
//
//   - The key covers EVERY field that can change a run's timing or results.
//     The hash walks option structs by reflection under an explicit
//     per-field policy (hash / skip / barrier / disk-barrier);
//     TestMemoPolicyExhaustive fails the build's tests the moment
//     FusedOptions, memory.Config or Setup grows a field the policy table
//     does not name, so a new knob cannot silently alias two different runs.
//   - Runs whose value is a side effect are never served from cache. A
//     live metrics sink (FusedOptions.Metrics or memory Metrics) makes the
//     options uncacheable: a cache hit would skip the recording the caller
//     asked for. Everything else a run reports — the cluster's windowing
//     stats included — is part of its result, so a hit serves it intact.
//     Whole-experiment entries follow the same rule through their Setup:
//     an experiment is cached unless its Setup carries a live Metrics sink,
//     so -metrics and -timeline runs always simulate. The invariant checker
//     (Check) sits in between — it is a pure violation collector over a
//     deterministic run, so in-memory replays within one process still
//     share simulations (the golden harness attaches a checker to every run
//     and must keep deduplicating), but it blocks the persistent tier: a
//     -check run must actually simulate, not read a result some earlier,
//     unchecked process wrote down.
//
// Cached values are shared between callers; treat them as immutable (this
// matters for FusedResult.StageReads, whose slice is aliased by every hit).

// memoKey is a collision-resistant digest of one simulation's options.
type memoKey [sha256.Size]byte

// fieldPolicy says how the canonical hasher treats one struct field.
type fieldPolicy int

const (
	// policyHash folds the field's value into the key (the default for
	// fields of types without a policy table: over-keying is safe).
	policyHash fieldPolicy = iota
	// policySkip leaves the field out of the key: it cannot change the
	// run's observable result (e.g. the worker count of a byte-identical
	// parallel execution strategy).
	policySkip
	// policyBarrier makes the options uncacheable when the field is
	// non-zero: the field is an observer whose value is the side effect.
	policyBarrier
	// policyDiskBarrier leaves the field out of the key and, when it is
	// non-zero, blocks only the persistent tier: in-memory sharing within
	// the process remains sound (the field cannot change results), but the
	// run must not be served from — or written to — disk. This is the
	// invariant checker's policy: a checked run has to witness a real
	// simulation.
	policyDiskBarrier
)

// hashPolicies names the treatment of every field of the option structs the
// key covers. TestMemoPolicyExhaustive keeps these tables in lockstep with
// the structs: adding a field to any of them without classifying it here
// is a test failure, not a silent stale-key bug.
var hashPolicies = map[reflect.Type]map[string]fieldPolicy{
	reflect.TypeOf(t3core.FusedOptions{}): {
		"GPU":                policyHash,
		"Memory":             policyHash,
		"Link":               policyHash,
		"Topo":               policyHash,
		"Tracker":            policyHash,
		"Devices":            policyHash,
		"Grid":               policyHash,
		"Arbitration":        policyHash,
		"Collective":         policyHash,
		"GEMMCUs":            policyHash,
		"FixedMCAThreshold":  policyHash,
		"DMATilesPerBlock":   policyHash,
		"DoubleBufferedGEMM": policyHash,
		// ParWorkers only sets how many goroutines drive the
		// multi-device cluster; results are byte-identical at every
		// value, so it must not split the key.
		"ParWorkers": policySkip,
		"Metrics":    policyBarrier,
		"Check":      policyDiskBarrier,
	},
	reflect.TypeOf(memory.Config{}): {
		"Channels":           policyHash,
		"TotalBandwidth":     policyHash,
		"RequestGranularity": policyHash,
		"QueueDepth":         policyHash,
		"ReadLatency":        policyHash,
		"UpdateFactor":       policyHash,
		"Banks":              policyHash,
		"Metrics":            policyBarrier,
		"Check":              policyDiskBarrier,
	},
	// An isolated GEMM reads nothing else; its metrics sink and checker
	// ride in Memory, under the memory.Config policy.
	reflect.TypeOf(gemmInputs{}): {
		"GPU":       policyHash,
		"Memory":    policyHash,
		"Grid":      policyHash,
		"BypassLLC": policyHash,
		"CUs":       policyHash,
	},
	// Setup keys whole-experiment results (coarse-overlap, layer, fig14,
	// fig6, fig17, generation, topo-sweep, serve-sweep, serve-tenants):
	// those drivers are deterministic functions of the machine description
	// alone, so the Setup hash is their complete key.
	reflect.TypeOf(Setup{}): {
		"GPU":               policyHash,
		"Memory":            policyHash,
		"Link":              policyHash,
		"Tracker":           policyHash,
		"Topo":              policyHash,
		"BlockBytes":        policyHash,
		"CollectiveCUs":     policyHash,
		"PerCUMemBandwidth": policyHash,
		"ServeQPS":          policyHash,
		"ServeSLO":          policyHash,
		"Metrics":           policyBarrier,
		"Check":             policyDiskBarrier,
		// The worker count is a byte-identity-preserving execution
		// strategy, like FusedOptions.ParWorkers.
		"MultiDeviceWorkers": policySkip,
		// The cache handle itself obviously cannot key the cache.
		"Memo": policySkip,
	},
}

// memoHasher folds option values into a canonical digest. ok drops to false
// at the first value the cache must not key on (a live observer hook, or a
// kind the walker does not understand — the safe default for anything new);
// disk drops to false at the first non-zero disk-barrier field.
type memoHasher struct {
	h    hash.Hash
	buf  [8]byte
	ok   bool
	disk bool
}

func newMemoHasher() *memoHasher {
	return &memoHasher{h: sha256.New(), ok: true, disk: true}
}

func (m *memoHasher) word(v uint64) {
	m.buf[0] = byte(v)
	m.buf[1] = byte(v >> 8)
	m.buf[2] = byte(v >> 16)
	m.buf[3] = byte(v >> 24)
	m.buf[4] = byte(v >> 32)
	m.buf[5] = byte(v >> 40)
	m.buf[6] = byte(v >> 48)
	m.buf[7] = byte(v >> 56)
	m.h.Write(m.buf[:])
}

// value folds one value. Scalars hash their bits, structs walk their fields
// under the policy table, pointers hash a nil flag plus the pointee, slices
// hash a nil flag, the length and every element. Anything else is only
// hashable when nil; a non-nil func, interface, map or channel poisons the
// key.
func (m *memoHasher) value(v reflect.Value) {
	if !m.ok {
		return
	}
	switch v.Kind() {
	case reflect.Bool:
		if v.Bool() {
			m.word(1)
		} else {
			m.word(0)
		}
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		m.word(uint64(v.Int()))
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		m.word(v.Uint())
	case reflect.Float32, reflect.Float64:
		m.word(math.Float64bits(v.Float()))
	case reflect.String:
		s := v.String()
		m.word(uint64(len(s)))
		io.WriteString(m.h, s)
	case reflect.Pointer:
		if v.IsNil() {
			m.word(0)
			return
		}
		m.word(1)
		m.value(v.Elem())
	case reflect.Slice:
		if v.IsNil() {
			m.word(0)
			return
		}
		m.word(1)
		m.word(uint64(v.Len()))
		for i := 0; i < v.Len() && m.ok; i++ {
			m.value(v.Index(i))
		}
	case reflect.Struct:
		m.structValue(v)
	case reflect.Interface, reflect.Func, reflect.Map, reflect.Chan:
		if v.IsNil() {
			m.word(0)
			return
		}
		m.ok = false
	default:
		m.ok = false
	}
}

func (m *memoHasher) structValue(v reflect.Value) {
	policy := hashPolicies[v.Type()]
	for i := 0; i < v.NumField() && m.ok; i++ {
		switch policy[v.Type().Field(i).Name] {
		case policyHash:
			m.word(uint64(i)) // field position delimits adjacent values
			m.value(v.Field(i))
		case policySkip:
		case policyBarrier:
			if !v.Field(i).IsZero() {
				m.ok = false
			}
		case policyDiskBarrier:
			if !v.Field(i).IsZero() {
				m.disk = false
			}
		}
	}
}

func (m *memoHasher) sum() (memoKey, bool, bool) {
	if !m.ok {
		return memoKey{}, false, false
	}
	var k memoKey
	m.h.Sum(k[:0])
	return k, true, m.disk
}

// normalizeFused canonicalizes option encodings that mean the same schedule,
// so spelling variants share a key.
func normalizeFused(o t3core.FusedOptions) t3core.FusedOptions {
	if o.DMATilesPerBlock <= 1 {
		o.DMATilesPerBlock = 1 // 0 and 1 both mean one tile per DMA
	}
	return o
}

// fusedKey returns the canonical key of one fused run, whether the run may
// be served from the in-memory cache at all, and whether the persistent
// tier may serve or absorb it. o.Collective picks the simulated datapath,
// so distinct collectives never share a key.
func fusedKey(o t3core.FusedOptions) (memoKey, bool, bool) {
	m := newMemoHasher()
	m.value(reflect.ValueOf(normalizeFused(o)))
	return m.sum()
}

// sublayerKey keys a full sub-layer evaluation: the fused options determine
// the three simulations (the isolated GEMM reuses their GPU, memory and
// grid), and the analytic collectives additionally read the collective
// volume and the CU-confined bandwidth model.
func sublayerKey(o t3core.FusedOptions, arBytes units.Bytes,
	cus int, perCU units.Bandwidth) (memoKey, bool, bool) {
	m := newMemoHasher()
	m.value(reflect.ValueOf(normalizeFused(o)))
	m.value(reflect.ValueOf(arBytes))
	m.value(reflect.ValueOf(cus))
	m.value(reflect.ValueOf(perCU))
	return m.sum()
}

// setupKey keys a whole-experiment result by the experiment's complete
// input: the Setup. Only fields under the Setup policy table contribute.
func setupKey(s Setup) (memoKey, bool, bool) {
	m := newMemoHasher()
	m.value(reflect.ValueOf(s))
	return m.sum()
}

// gemmInputs is everything an isolated GEMM run reads, and so its memo key:
// the GPU, the memory system (with the run's metrics sink and checker), the
// launch grid, whether output stores bypass the LLC, and the CU count it is
// confined to (0 = the whole GPU).
type gemmInputs struct {
	GPU       gpu.Config
	Memory    memory.Config
	Grid      gemm.Grid
	BypassLLC bool
	CUs       int
}

// gemmResult is an isolated GEMM run's duration and DRAM read bytes.
type gemmResult struct {
	Time  units.Time
	Reads units.Bytes
}

// isolatedGEMM runs (or serves the cached) isolated GEMM of in. The table
// is memory-only: an isolated GEMM is a part of the sub-layer and serving
// entries the store already holds, so a warm pass never asks for one. A
// nil cache or a live metrics sink always simulates.
func (m *MemoCache) isolatedGEMM(in gemmInputs) (gemmResult, error) {
	if m == nil {
		return runIsolatedGEMM(in)
	}
	h := newMemoHasher()
	h.value(reflect.ValueOf(in))
	k, ok, _ := h.sum()
	if !ok {
		return runIsolatedGEMM(in)
	}
	return m.gemm.do(k, false, func() (gemmResult, error) { return runIsolatedGEMM(in) })
}

// memoCall is one in-flight computation waiters block on.
type memoCall[V any] struct {
	done chan struct{}
	val  V
	err  error
}

// memoTable is one key space of the cache: a result map plus a singleflight
// layer, so racing lookups of the same key compute once and share, plus an
// optional persistent tier probed between a memory miss and a computation.
type memoTable[V any] struct {
	mu       sync.Mutex
	vals     map[memoKey]V
	inflight map[memoKey]*memoCall[V]
	hits     int64
	misses   int64

	// disk/space name the persistent tier (set once by AttachStore before
	// any concurrent use; nil disk means memory-only).
	disk  *store.Store
	space string
}

// do returns the cached value for k, waits on an in-flight computation of
// k, reads k from the persistent tier, or runs f, caches its result and
// writes it behind. diskOK gates the persistent tier per-call (the
// disk-barrier policy); the singleflight layer covers the disk probe too,
// so racing lookups of one key decode at most once. Errors are returned but
// never cached: later callers retry rather than inherit a stale failure.
func (t *memoTable[V]) do(k memoKey, diskOK bool, f func() (V, error)) (V, error) {
	t.mu.Lock()
	if v, ok := t.vals[k]; ok {
		t.hits++
		t.mu.Unlock()
		return v, nil
	}
	if c, ok := t.inflight[k]; ok {
		t.hits++
		t.mu.Unlock()
		<-c.done
		return c.val, c.err
	}
	t.misses++
	if t.vals == nil {
		t.vals = map[memoKey]V{}
		t.inflight = map[memoKey]*memoCall[V]{}
	}
	c := &memoCall[V]{done: make(chan struct{})}
	t.inflight[k] = c
	t.mu.Unlock()

	fromDisk := false
	if diskOK && t.disk != nil {
		fromDisk = t.disk.Get(t.space, store.Key(k), &c.val)
	}
	if !fromDisk {
		c.val, c.err = f()
	}

	t.mu.Lock()
	if c.err == nil {
		t.vals[k] = c.val
	}
	delete(t.inflight, k)
	t.mu.Unlock()
	close(c.done)
	if diskOK && !fromDisk && c.err == nil {
		t.disk.Put(t.space, store.Key(k), c.val)
	}
	return c.val, c.err
}

// stats returns the table's hit/miss counts so far.
func (t *memoTable[V]) stats() (hits, misses int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.hits, t.misses
}

// MemoCache memoizes whole simulations by canonical option hash. One cache
// is shared across every evaluator and ablation a Runner spawns (including
// derived setups that copy the Setup, as the link sweep does), so the
// catalogue pays for each distinct simulation once per process — and, with a
// store attached, once per cache directory. Safe for concurrent use.
type MemoCache struct {
	fused    memoTable[t3core.FusedResult]
	multi    memoTable[t3core.MultiDeviceResult]
	sublayer memoTable[SublayerResult]
	coarse   memoTable[CoarseOverlapResult]
	layer    memoTable[LayerValidationResult]
	fig6     memoTable[Fig6Result]
	fig14    memoTable[Fig14Result]
	fig17    memoTable[Fig17Result]
	gen      memoTable[GenerationResult]
	topo     memoTable[TopoSweepResult]
	sweep    memoTable[ServeSweepResult]
	tenants  memoTable[ServeTenantsResult]
	gemm     memoTable[gemmResult] // memory-only: never attached to the store

	disk *store.Store
}

// NewMemoCache returns an empty, memory-only cache.
func NewMemoCache() *MemoCache {
	return &MemoCache{}
}

// AttachStore layers the persistent store under every key space as a
// read-through/write-behind second tier. Attach before the cache is used
// concurrently; a nil store (or nil cache) is a no-op.
func (m *MemoCache) AttachStore(st *store.Store) {
	if m == nil || st == nil {
		return
	}
	m.disk = st
	m.fused.disk, m.fused.space = st, "fused"
	m.multi.disk, m.multi.space = st, "multi"
	m.sublayer.disk, m.sublayer.space = st, "sublayer"
	m.coarse.disk, m.coarse.space = st, "coarse"
	m.layer.disk, m.layer.space = st, "layer"
	m.fig6.disk, m.fig6.space = st, "fig6"
	m.fig14.disk, m.fig14.space = st, "fig14"
	m.fig17.disk, m.fig17.space = st, "fig17"
	m.gen.disk, m.gen.space = st, "generation"
	m.topo.disk, m.topo.space = st, "topo"
	m.sweep.disk, m.sweep.space = st, "serve-sweep"
	m.tenants.disk, m.tenants.space = st, "serve-tenants"
}

// Store returns the attached persistent store (nil if memory-only).
func (m *MemoCache) Store() *store.Store {
	if m == nil {
		return nil
	}
	return m.disk
}

// Fused runs the single-GPU fused GEMM→collective simulation for o (the
// collective is o.Collective), serving a cached result when an identical
// run already completed. Uncacheable options (a live metrics sink) always
// simulate. The returned result may be shared with other callers: treat it
// as immutable.
func (m *MemoCache) Fused(o t3core.FusedOptions) (t3core.FusedResult, error) {
	k, ok, diskOK := fusedKey(o)
	if m == nil || !ok {
		return t3core.RunFused(o)
	}
	return m.fused.do(k, diskOK, func() (t3core.FusedResult, error) {
		return t3core.RunFused(o)
	})
}

// FusedMulti runs the explicit multi-device fused GEMM→reduce-scatter
// simulation for o under its own key space (the result type differs from
// the single-GPU mirror run with identical options).
func (m *MemoCache) FusedMulti(o t3core.FusedOptions) (t3core.MultiDeviceResult, error) {
	k, ok, diskOK := fusedKey(o)
	if m == nil || !ok {
		return t3core.RunFusedGEMMRSMultiDevice(o)
	}
	return m.multi.do(k, diskOK, func() (t3core.MultiDeviceResult, error) {
		return t3core.RunFusedGEMMRSMultiDevice(o)
	})
}

// Stats sums hit/miss counts over every key space. A singleflight wait or a
// persistent-tier read both count as hits of their tier.
func (m *MemoCache) Stats() (hits, misses int64) {
	if m == nil {
		return 0, 0
	}
	for _, s := range []func() (int64, int64){
		m.fused.stats, m.multi.stats, m.sublayer.stats, m.coarse.stats,
		m.layer.stats, m.fig6.stats, m.fig14.stats, m.fig17.stats,
		m.gen.stats, m.topo.stats, m.sweep.stats, m.tenants.stats,
		m.gemm.stats,
	} {
		h, mi := s()
		hits += h
		misses += mi
	}
	return hits, misses
}

// PublishMetrics records the cache's counters into sink under memo/* (the
// in-memory tier) and store/* (the persistent tier, when attached). Call it
// once, after the runs of interest complete.
func (m *MemoCache) PublishMetrics(sink metrics.Sink) {
	if m == nil || sink == nil {
		return
	}
	h, mi := m.Stats()
	sink.Counter("memo/hits").Add(h)
	sink.Counter("memo/misses").Add(mi)
	if m.disk == nil {
		return
	}
	s := m.disk.Stats()
	sink.Counter("store/hits").Add(s.Hits)
	sink.Counter("store/misses").Add(s.Misses)
	sink.Counter("store/corrupt").Add(s.Corrupt)
	sink.Counter("store/puts").Add(s.Puts)
	sink.Counter("store/put_errors").Add(s.PutErrors)
	sink.Counter("store/bytes_read").Add(s.BytesRead)
	sink.Counter("store/bytes_written").Add(s.BytesWritten)
}

// memoFused is Fused tolerant of a nil cache, for call sites whose Setup
// may not carry one.
func memoFused(m *MemoCache, o t3core.FusedOptions) (t3core.FusedResult, error) {
	if m == nil {
		return t3core.RunFused(o)
	}
	return m.Fused(o)
}

// memoFusedMulti is FusedMulti tolerant of a nil cache.
func memoFusedMulti(m *MemoCache, o t3core.FusedOptions) (t3core.MultiDeviceResult, error) {
	if m == nil {
		return t3core.RunFusedGEMMRSMultiDevice(o)
	}
	return m.FusedMulti(o)
}

// memoSublayer serves (or computes and caches) one full sub-layer
// evaluation. The caller must have derived key/diskOK from the evaluation's
// options via sublayerKey.
func (m *MemoCache) memoSublayer(key memoKey, diskOK bool, f func() (SublayerResult, error)) (SublayerResult, error) {
	return m.sublayer.do(key, diskOK, f)
}

// memoExperiment serves one whole-experiment result keyed by its Setup, or
// computes it. tab may be nil (no cache on the Setup) and the Setup may be
// uncacheable (live Metrics sink); both fall through to f. Hits return a
// fresh shallow copy, so callers may replace top-level fields; any interior
// slices stay shared and must be treated as immutable.
func memoExperiment[V any](tab *memoTable[V], s Setup, f func() (*V, error)) (*V, error) {
	if tab == nil {
		return f()
	}
	k, ok, diskOK := setupKey(s)
	if !ok {
		return f()
	}
	v, err := tab.do(k, diskOK, func() (V, error) {
		r, err := f()
		if err != nil {
			var zero V
			return zero, err
		}
		return *r, nil
	})
	if err != nil {
		return nil, err
	}
	return &v, nil
}
