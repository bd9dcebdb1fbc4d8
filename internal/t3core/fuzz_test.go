package t3core

import (
	"math"
	"testing"

	"t3sim/internal/collective"
	"t3sim/internal/units"
)

// FuzzFusedRSProtocol feeds the full T3 fused reduce-scatter protocol
// arbitrary device counts, lengths, tile sizes, contributions and production
// orders, and checks the owned-chunk postcondition against the serial
// reference.
func FuzzFusedRSProtocol(f *testing.F) {
	f.Add(uint8(2), uint8(16), uint8(4), int64(1), []byte{1, 2, 3})
	f.Add(uint8(5), uint8(100), uint8(7), int64(9), []byte{})
	f.Add(uint8(7), uint8(255), uint8(1), int64(-3), []byte{255, 0, 128})
	f.Fuzz(func(t *testing.T, nRaw, lenRaw, tileRaw uint8, seed int64, vals []byte) {
		n := int(nRaw)%7 + 2
		length := int(lenRaw)%200 + n
		tile := int(tileRaw)%32 + 1
		data := make([][]float32, n)
		idx := 0
		for d := range data {
			arr := make([]float32, length)
			for i := range arr {
				if idx < len(vals) {
					arr[i] = float32(int(vals[idx])-128) / 8
					idx++
				} else {
					arr[i] = float32((d*13 + i*7) % 23)
				}
			}
			data[d] = arr
		}
		ref, err := collective.ReferenceAllReduce(data)
		if err != nil {
			t.Fatal(err)
		}
		res, err := RunFunctionalFusedReduceScatter(data, tile, seed)
		if err != nil {
			t.Fatal(err)
		}
		bounds := collective.ChunkBounds(length, n)
		for d := 0; d < n; d++ {
			b := bounds[collective.OwnedChunk(d, n)]
			for i := b[0]; i < b[1]; i++ {
				if math.Abs(float64(res.Buffers[d][i]-ref[i])) > 1e-2 {
					t.Fatalf("n=%d len=%d tile=%d: device %d elem %d = %v, want %v",
						n, length, tile, d, i, res.Buffers[d][i], ref[i])
				}
			}
		}
	})
}

// FuzzTrackerNeverMiscounts drives the tracker with arbitrary interleavings
// of partial updates and checks it fires exactly once per tile, at exactly
// the threshold.
func FuzzTrackerNeverMiscounts(f *testing.F) {
	f.Add(uint8(3), uint8(2), []byte{1, 0, 2, 1, 0, 2})
	f.Add(uint8(1), uint8(1), []byte{0})
	f.Fuzz(func(t *testing.T, tilesRaw, chunksRaw uint8, order []byte) {
		tiles := int(tilesRaw)%16 + 1
		divisor := []int64{1, 2, 4, 8}[int(chunksRaw)%4] // partial accesses per update
		tr, err := NewTracker(DefaultTrackerConfig())
		if err != nil {
			t.Fatal(err)
		}
		const tileBytes = 64
		fired := map[TileID]int{}
		if err := tr.SetProgram(Program{
			WFTileBytes:       tileBytes,
			UpdatesPerElement: 2,
			OnReady:           func(id TileID) { fired[id]++ },
		}); err != nil {
			t.Fatal(err)
		}
		// Each tile expects 2 updates of tileBytes, delivered as
		// 2*divisor partial accesses of tileBytes/divisor. The fuzz input
		// permutes which tile receives the next access.
		remaining := make([]int, tiles)
		for i := range remaining {
			remaining[i] = int(2 * divisor)
		}
		left := tiles * int(2*divisor)
		oi := 0
		for left > 0 {
			pick := 0
			if len(order) > 0 {
				pick = int(order[oi%len(order)]) % tiles
				oi++
			}
			// Find the next tile with accesses remaining, starting at pick.
			for remaining[pick] == 0 {
				pick = (pick + 1) % tiles
			}
			id := tileID(pick)
			if err := tr.Observe(id, tileBytes/units.Bytes(divisor)); err != nil {
				t.Fatal(err)
			}
			remaining[pick]--
			left--
		}
		for i := 0; i < tiles; i++ {
			id := tileID(i)
			if fired[id] != 1 {
				t.Fatalf("tile %d fired %d times", i, fired[id])
			}
		}
		if tr.Live() != 0 {
			t.Fatalf("%d live entries left", tr.Live())
		}
	})
}
