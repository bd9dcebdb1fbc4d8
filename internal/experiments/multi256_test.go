package experiments

import (
	"reflect"
	"strings"
	"testing"

	"t3sim/internal/check"
)

// TestMulti256RendersAllTopologies is the cheap smoke: one sequential run
// must produce a row per topology variant with self-consistent times.
func TestMulti256RendersAllTopologies(t *testing.T) {
	if testing.Short() {
		t.Skip("256-device run is long; run without -short")
	}
	setup := DefaultSetup()
	chk := check.New()
	setup.Check = chk
	res, err := Multi256(setup)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("got %d rows, want ring/torus/hier", len(res.Rows))
	}
	for _, row := range res.Rows {
		if row.GEMMLast <= 0 || row.Done < row.CollectiveLast || row.CollectiveFirst < row.GEMMFirst {
			t.Errorf("%s: implausible times %+v", row.Topo, row)
		}
		if row.LinkBytes == 0 || row.DRAMBytes == 0 {
			t.Errorf("%s: missing traffic counters %+v", row.Topo, row)
		}
	}
	if !chk.Ok() {
		t.Errorf("violations: %v", chk.Violations())
	}
	out := res.Render()
	for _, want := range []string{"ring-256", "torus-16x16", "hier-4x64"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered table missing %q:\n%s", want, out)
		}
	}
}

// TestMulti256ByteIdentity is the scale oracle for the cluster coordinator:
// the 256-device result — all three topology variants — must DeepEqual the
// sequential reference at workers 1/2/4/8, with the invariant checker clean.
// Skipped under -short (it simulates 256 devices five times over).
func TestMulti256ByteIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("256-device equivalence sweep is long; run without -short")
	}
	setup := DefaultSetup()
	want, err := Multi256(setup)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 4, 8} {
		s := DefaultSetup()
		s.MultiDeviceWorkers = workers
		chk := check.New()
		s.Check = chk
		got, err := Multi256(s)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("workers=%d: 256-device result diverged from sequential\n got: %+v\nwant: %+v",
				workers, got, want)
		}
		if !chk.Ok() {
			t.Errorf("workers=%d: violations: %v", workers, chk.Violations())
		}
	}
}
