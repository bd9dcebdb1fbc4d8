package t3core

import (
	"testing"

	"t3sim/internal/memory"
	"t3sim/internal/units"
)

func TestMultiDeviceCompletes(t *testing.T) {
	o := fusedOpts(t, 4)
	res, err := RunFusedGEMMRSMultiDevice(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.GEMMDone) != 4 || len(res.CollectiveDone) != 4 {
		t.Fatalf("per-device slices: %+v", res)
	}
	for d := 0; d < 4; d++ {
		if res.GEMMDone[d] <= 0 || res.CollectiveDone[d] < res.GEMMDone[d] {
			t.Errorf("device %d: gemm=%v coll=%v", d, res.GEMMDone[d], res.CollectiveDone[d])
		}
	}
}

func TestMultiDeviceHomogeneity(t *testing.T) {
	// The §5.1.1 mirror methodology assumes all devices behave identically;
	// the explicit simulation must bear that out: completion skew across
	// devices should be negligible relative to the run length.
	res, err := RunFusedGEMMRSMultiDevice(fusedOpts(t, 4))
	if err != nil {
		t.Fatal(err)
	}
	skew := res.Skew()
	if float64(skew) > 0.01*float64(res.Done) {
		t.Errorf("completion skew %v is %.2f%% of run %v, want < 1%%",
			skew, 100*float64(skew)/float64(res.Done), res.Done)
	}
	for d := 1; d < 4; d++ {
		if res.GEMMDone[d] != res.GEMMDone[0] {
			t.Errorf("GEMM completion differs across devices: %v", res.GEMMDone)
			break
		}
	}
}

func TestMultiDeviceMatchesMirror(t *testing.T) {
	// The headline validation: the explicit N-device simulation and the
	// single-GPU mirror run must agree closely on completion time.
	for _, n := range []int{2, 4, 8} {
		o := fusedOpts(t, n)
		mirror, err := RunFused(o)
		if err != nil {
			t.Fatal(err)
		}
		multi, err := RunFusedGEMMRSMultiDevice(o)
		if err != nil {
			t.Fatal(err)
		}
		rel := (float64(multi.Done) - float64(mirror.CollectiveDone)) / float64(multi.Done)
		if rel < -0.05 || rel > 0.05 {
			t.Errorf("n=%d: multi %v vs mirror %v (%.2f%%)", n, multi.Done, mirror.CollectiveDone, 100*rel)
		}
	}
}

func TestMultiDeviceTrafficMatchesMirror(t *testing.T) {
	// Per-device traffic must match the mirror's accounting exactly when
	// chunks divide evenly.
	o := fusedOpts(t, 4)
	mirror, err := RunFused(o)
	if err != nil {
		t.Fatal(err)
	}
	multi, err := RunFusedGEMMRSMultiDevice(o)
	if err != nil {
		t.Fatal(err)
	}
	for d, cnt := range multi.PerDeviceDRAM {
		for _, k := range []memory.AccessKind{memory.Read, memory.Write, memory.Update} {
			for _, s := range []memory.Stream{memory.StreamCompute, memory.StreamComm} {
				if cnt.Bytes[k][s] != mirror.DRAM.Bytes[k][s] {
					t.Errorf("device %d %v/%v = %v, mirror %v",
						d, k, s, cnt.Bytes[k][s], mirror.DRAM.Bytes[k][s])
				}
			}
		}
	}
	// Total link traffic: n devices, each pushing (n-1)/n of the output.
	if multi.LinkBytes != mirror.LinkBytes*units.Bytes(o.Devices) {
		t.Errorf("link bytes = %v, want %v", multi.LinkBytes, mirror.LinkBytes*4)
	}
}

func TestMultiDeviceUnevenChunks(t *testing.T) {
	// 3 devices over a tile count not divisible by 3 still completes, with
	// every tile fired exactly once.
	o := fusedOpts(t, 3)
	res, err := RunFusedGEMMRSMultiDevice(o)
	if err != nil {
		t.Fatal(err)
	}
	if res.Done <= 0 {
		t.Error("no completion")
	}
}

func TestMultiDeviceValidation(t *testing.T) {
	o := fusedOpts(t, 4)
	o.Collective = DirectReduceScatter
	if _, err := RunFusedGEMMRSMultiDevice(o); err == nil {
		t.Error("direct-RS multi: expected error")
	}
	o = fusedOpts(t, 4)
	o.Grid.Tiling.SplitK = 2
	if _, err := RunFusedGEMMRSMultiDevice(o); err == nil {
		t.Error("split-K multi: expected error")
	}
}

// multiDeviceAllocs counts the objects one 8-device explicit run of an
// m×1024×128 GEMM allocates, from setup to result, with its tile count and
// stage count.
func multiDeviceAllocs(t *testing.T, m int) (allocs float64, tiles, stages int) {
	t.Helper()
	o := parOptions(t, m, 1024, 128, 8)
	// Few CUs make many small stages, so production is throttled and the
	// pools reach their high-water marks early. Eight tracker sets are all
	// touched at either size, so the tracker's rows grow only with the
	// live-tile high-water mark, never with the tile count itself.
	o.GEMMCUs = 4
	o.Tracker = TrackerConfig{Sets: 8, Ways: 512, MaxWFsPerWG: 8}
	allocs = testing.AllocsPerRun(2, func() {
		if _, err := RunFusedGEMMRSMultiDevice(o); err != nil {
			t.Fatal(err)
		}
	})
	return allocs, o.Grid.NumWFs(), len(o.Grid.Stages(o.GPU.StageWGs(o.GEMMCUs)))
}

// TestMultiDeviceSteadyStateAllocs pins that the explicit runner issues its
// per-tile traffic — production stores, incoming updates, triggered DMA
// forwards and link deliveries — through pooled, typed completions: doubling
// the tile count adds no object per tile. What may grow is the GEMM kernel's
// few closures and fences per stage on each device, plus the doublings of
// pools, rings, tracker rows and the DMA table. A closure per tile on any
// one of those paths alone would add thousands of objects here.
func TestMultiDeviceSteadyStateAllocs(t *testing.T) {
	const (
		devices   = 8
		perStage  = 8  // GEMM kernel objects per stage per device
		perDevice = 64 // pool, ring, tracker and DMA-table doublings
	)
	small, tiles0, stages0 := multiDeviceAllocs(t, 2048)
	large, tiles1, stages1 := multiDeviceAllocs(t, 4096)
	t.Logf("%d tiles, %d stages: %.0f allocs; %d tiles, %d stages: %.0f allocs",
		tiles0, stages0, small, tiles1, stages1, large)
	limit := float64(devices * (perStage*(stages1-stages0) + perDevice))
	if extra := large - small; extra > limit {
		t.Fatalf("%d more tiles allocate %.0f more objects, want at most %.0f (%d more stages on %d devices)",
			tiles1-tiles0, extra, limit, stages1-stages0, devices)
	}
}
