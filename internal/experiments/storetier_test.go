package experiments

import (
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"t3sim/internal/gemm"
	"t3sim/internal/store"
	"t3sim/internal/t3core"
)

// entryFiles returns every complete store entry under dir.
func entryFiles(t *testing.T, dir string) []string {
	t.Helper()
	var out []string
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() && strings.HasSuffix(path, ".t3r") {
			out = append(out, path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestStoreTierWarmStart pins the two-tier composition end to end: a cold
// MemoCache persists its results, and a second cache over the same directory
// — standing in for a later process — serves them from disk without
// re-simulating (the store hit counter is the proof: do() only skips the
// compute closure when the disk probe succeeds).
func TestStoreTierWarmStart(t *testing.T) {
	opts := memoTestOptions(t)
	opts.Memory.Banks = nil // keep the run cheap
	dir := t.TempDir()

	st1, err := OpenStore(dir, store.ReadWrite)
	if err != nil {
		t.Fatal(err)
	}
	m1 := NewMemoCache()
	m1.AttachStore(st1)
	r1, err := m1.Fused(opts)
	if err != nil {
		t.Fatal(err)
	}
	st1.Flush()
	if s := st1.Stats(); s.Hits != 0 || s.Misses != 1 || s.Puts != 1 || s.PutErrors != 0 {
		t.Fatalf("cold store stats = %+v, want one miss and one clean put", s)
	}
	if n := len(entryFiles(t, dir)); n != 1 {
		t.Fatalf("cold run left %d entries on disk, want 1", n)
	}

	st2, err := OpenStore(dir, store.ReadWrite)
	if err != nil {
		t.Fatal(err)
	}
	m2 := NewMemoCache()
	m2.AttachStore(st2)
	r2, err := m2.Fused(opts)
	if err != nil {
		t.Fatal(err)
	}
	if r2.Done != r1.Done || r2.GEMMDone != r1.GEMMDone || r2.LinkBytes != r1.LinkBytes {
		t.Fatal("disk-served result diverged from the original run")
	}
	if len(r2.StageReads) != len(r1.StageReads) {
		t.Fatal("disk-served result lost its slice payload")
	}
	if s := st2.Stats(); s.Hits != 1 || s.Misses != 0 || s.Puts != 0 {
		t.Fatalf("warm store stats = %+v, want one hit and no re-put", s)
	}
	// The in-memory tier records the disk hit as its own miss: the memoTable
	// had never seen the key, the store filled it.
	if h, mi := m2.Stats(); h != 0 || mi != 1 {
		t.Fatalf("warm memo stats = %d hits / %d misses, want 0/1", h, mi)
	}

	// A replay within the warm process is now an in-memory hit; the disk is
	// not probed again.
	if _, err := m2.Fused(opts); err != nil {
		t.Fatal(err)
	}
	if s := st2.Stats(); s.Hits != 1 {
		t.Fatalf("in-memory replay re-probed the disk (store stats %+v)", s)
	}
}

// TestStoreTierCorruptionRecovers pins the crash-consistency contract at the
// memo layer: a corrupted entry is a silent miss — the result is recomputed,
// matches the original, and a fresh entry replaces the damaged one.
func TestStoreTierCorruptionRecovers(t *testing.T) {
	opts := memoTestOptions(t)
	opts.Memory.Banks = nil
	dir := t.TempDir()

	st1, err := OpenStore(dir, store.ReadWrite)
	if err != nil {
		t.Fatal(err)
	}
	m1 := NewMemoCache()
	m1.AttachStore(st1)
	r1, err := m1.Fused(opts)
	if err != nil {
		t.Fatal(err)
	}
	st1.Flush()

	files := entryFiles(t, dir)
	if len(files) != 1 {
		t.Fatalf("expected 1 entry on disk, found %d", len(files))
	}
	if err := os.WriteFile(files[0], []byte("not a store entry"), 0o644); err != nil {
		t.Fatal(err)
	}

	st2, err := OpenStore(dir, store.ReadWrite)
	if err != nil {
		t.Fatal(err)
	}
	m2 := NewMemoCache()
	m2.AttachStore(st2)
	r2, err := m2.Fused(opts)
	if err != nil {
		t.Fatalf("corrupted entry surfaced an error instead of a miss: %v", err)
	}
	if r2.Done != r1.Done || r2.GEMMDone != r1.GEMMDone {
		t.Fatal("recomputed result diverged from the original run")
	}
	st2.Flush()
	if s := st2.Stats(); s.Corrupt != 1 || s.Hits != 0 || s.Puts != 1 {
		t.Fatalf("store stats after corruption = %+v, want 1 corrupt miss and 1 repair put", s)
	}

	// The repair put replaced the damaged bytes: a third cache hits cleanly.
	st3, err := OpenStore(dir, store.ReadWrite)
	if err != nil {
		t.Fatal(err)
	}
	m3 := NewMemoCache()
	m3.AttachStore(st3)
	if _, err := m3.Fused(opts); err != nil {
		t.Fatal(err)
	}
	if s := st3.Stats(); s.Hits != 1 || s.Corrupt != 0 {
		t.Fatalf("store stats after repair = %+v, want a clean hit", s)
	}
}

// TestStoreVersionShape pins the derived version string's structure:
// build identity, a slash, and a 16-hex-digit schema fingerprint — and its
// stability within one process.
func TestStoreVersionShape(t *testing.T) {
	v := StoreVersion()
	i := strings.LastIndex(v, "/")
	if i < 0 {
		t.Fatalf("version %q: want <build-identity>/<schema>", v)
	}
	id, schema := v[:i], v[i+1:]
	if id == "" {
		t.Errorf("version %q: empty build identity", v)
	}
	if len(schema) != 16 {
		t.Errorf("schema fingerprint %q: want 16 hex digits", schema)
	}
	for _, c := range schema {
		if !strings.ContainsRune("0123456789abcdef", c) {
			t.Errorf("schema fingerprint %q: non-hex digit %q", schema, c)
		}
	}
	if StoreVersion() != v {
		t.Error("StoreVersion not stable within a process")
	}
}

// TestMemoFusedMultiServesClusterStats: the explicit run's windowing stats
// are part of its result, so a memory hit at another worker count and a
// disk hit in a fresh cache both return the miss's stats intact.
func TestMemoFusedMultiServesClusterStats(t *testing.T) {
	grid, err := gemm.NewGrid(gemm.Shape{M: 1024, N: 1024, K: 256, ElemBytes: 2}, gemm.DefaultTiling())
	if err != nil {
		t.Fatal(err)
	}
	s := DefaultSetup()
	opts := t3core.FusedOptions{
		GPU: s.GPU, Memory: s.Memory, Link: s.Link, Tracker: s.Tracker,
		Devices: 4, Grid: grid,
		Collective: t3core.RingReduceScatter, Arbitration: t3core.ArbRoundRobin,
		ParWorkers: 2,
	}
	dir := t.TempDir()
	st1, err := OpenStore(dir, store.ReadWrite)
	if err != nil {
		t.Fatal(err)
	}
	m1 := NewMemoCache()
	m1.AttachStore(st1)
	miss, err := m1.FusedMulti(opts)
	if err != nil {
		t.Fatal(err)
	}
	st1.Flush()
	if miss.Cluster.Windows == 0 || miss.Cluster.EngineWindows == 0 {
		t.Fatalf("miss recorded no cluster stats: %+v", miss.Cluster)
	}

	inline := opts
	inline.ParWorkers = 0
	memHit, err := m1.FusedMulti(inline)
	if err != nil {
		t.Fatal(err)
	}
	if h, _ := m1.Stats(); h != 1 {
		t.Fatalf("ParWorkers 0 replay was not a memory hit (%d hits)", h)
	}

	st2, err := OpenStore(dir, store.ReadWrite)
	if err != nil {
		t.Fatal(err)
	}
	m2 := NewMemoCache()
	m2.AttachStore(st2)
	diskHit, err := m2.FusedMulti(opts)
	if err != nil {
		t.Fatal(err)
	}
	if s := st2.Stats(); s.Hits != 1 {
		t.Fatalf("fresh cache did not read the run from disk (store stats %+v)", s)
	}
	for name, got := range map[string]t3core.MultiDeviceResult{"memory hit": memHit, "disk hit": diskHit} {
		if !reflect.DeepEqual(got, miss) {
			t.Errorf("%s diverged from the miss: cluster %+v, want %+v", name, got.Cluster, miss.Cluster)
		}
	}
}
