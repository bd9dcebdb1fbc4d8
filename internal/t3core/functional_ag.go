package t3core

import (
	"fmt"
	"math/rand"

	"t3sim/internal/memory"
	"t3sim/internal/units"
)

// agDevice is one device's state in the functional fused all-gather run.
type agDevice struct {
	id      int
	tracker *Tracker
	dma     *DMATable
	buffer  []float32
}

// RunFunctionalFusedAllGather executes the §7.1 fused GEMM→ring-all-gather
// protocol on real data: shards[d] is device d's produced slice of the
// output (a column-parallel GEMM shard). Stores are plain writes; the
// producer stores its shard locally and remote-writes it to the next
// device; each arriving tile is staged, counted by the tracker (one update
// per element), and the triggered DMA forwards it hop by hop until all
// devices hold all shards.
//
// The returned buffers must equal the concatenation of all shards on every
// device — verified against the functional collective layer by the tests.
func RunFunctionalFusedAllGather(shards [][]float32, tileElems int, seed int64) (*FunctionalResult, error) {
	n := len(shards)
	if n < 2 {
		return nil, fmt.Errorf("t3core: need >= 2 devices, got %d", n)
	}
	shardLen := len(shards[0])
	for d, s := range shards {
		if len(s) != shardLen {
			return nil, fmt.Errorf("t3core: shard %d has %d elements, want %d", d, len(s), shardLen)
		}
	}
	if shardLen == 0 {
		return nil, fmt.Errorf("t3core: empty shards")
	}
	if tileElems <= 0 {
		return nil, fmt.Errorf("t3core: tileElems = %d", tileElems)
	}
	tilesPerShard := (shardLen + tileElems - 1) / tileElems
	total := n * shardLen
	rng := rand.New(rand.NewSource(seed))

	devs := make([]*agDevice, n)
	res := &FunctionalResult{
		Buffers:        make([][]float32, n),
		TrackerMaxLive: make([]int, n),
		TrackerFired:   make([]int64, n),
		DMATriggered:   make([]int64, n),
		RemoteWrites:   make([]int64, n),
	}
	var protoErr error
	fail := func(err error) {
		if protoErr == nil && err != nil {
			protoErr = err
		}
	}

	// deliver forwards one (shard, tile, hop) arrival into device d.
	var deliver func(d, shard, tile, hop int)

	// Tile identity: hops of each shard's tiles are distinct tracker rows.
	tileOf := func(shard, tile, hop int) TileID {
		return tileID((hop*n+shard)*tilesPerShard + tile)
	}
	tileRangeOf := func(shard, tile int) (lo, hi int) {
		lo = shard*shardLen + tile*tileElems
		hi = lo + tileElems
		if end := (shard + 1) * shardLen; hi > end {
			hi = end
		}
		return lo, hi
	}

	for d := 0; d < n; d++ {
		tr, err := NewTracker(TrackerConfig{Sets: 256, Ways: 64, MaxWFsPerWG: 8})
		if err != nil {
			return nil, err
		}
		dev := &agDevice{id: d, tracker: tr, dma: NewDMATable((n - 1) * n * tilesPerShard), buffer: make([]float32, total)}
		devs[d] = dev
		// Program the forwarding DMAs: hops 1..n-2 of every foreign shard,
		// all below hop n-1 in the table.
		for hop := 1; hop < n-1; hop++ {
			shard := mod(d-hop, n) // the shard arriving at d after `hop` hops
			for tile := 0; tile < tilesPerShard; tile++ {
				lo, hi := tileRangeOf(shard, tile)
				if err := dev.dma.Program(tileOf(shard, tile, hop), DMACommand{
					DestDevice: (d + 1) % n,
					Op:         memory.Write,
					Bytes:      units.Bytes(hi-lo) * 4,
				}); err != nil {
					return nil, err
				}
			}
		}
		d := d
		if err := tr.SetProgram(Program{
			WFTileBytes:       units.Bytes(tileElems) * 4,
			UpdatesPerElement: 1, // plain writes: a single update completes a tile
			TileBytes: func(id TileID) units.Bytes {
				g := tileIndex(id)
				shard := (g / tilesPerShard) % n
				tile := g % tilesPerShard
				lo, hi := tileRangeOf(shard, tile)
				return units.Bytes(hi-lo) * 4
			},
			OnReady: func(id TileID) {
				cmd, ok := devs[d].dma.MarkReady(id)
				if !ok {
					return // final hop: nothing to forward
				}
				g := tileIndex(id)
				hop := g / (n * tilesPerShard)
				shard := (g / tilesPerShard) % n
				tile := g % tilesPerShard
				deliver(cmd.DestDevice, shard, tile, hop+1)
			},
		}); err != nil {
			return nil, err
		}
	}

	deliver = func(d, shard, tile, hop int) {
		lo, hi := tileRangeOf(shard, tile)
		copy(devs[d].buffer[lo:hi], shards[shard][lo-shard*shardLen:hi-shard*shardLen])
		fail(devs[d].tracker.Observe(tileOf(shard, tile, hop), units.Bytes(hi-lo)*4))
	}

	// Production: every device stores its shard locally and remote-writes it
	// to the next device, tile by tile in shuffled order.
	type job struct{ dev, tile int }
	var jobs []job
	for d := 0; d < n; d++ {
		for tile := 0; tile < tilesPerShard; tile++ {
			jobs = append(jobs, job{d, tile})
		}
	}
	rng.Shuffle(len(jobs), func(i, j int) { jobs[i], jobs[j] = jobs[j], jobs[i] })
	for _, j := range jobs {
		d := j.dev
		lo, hi := tileRangeOf(d, j.tile)
		copy(devs[d].buffer[lo:hi], shards[d][lo-d*shardLen:hi-d*shardLen])
		res.RemoteWrites[d]++
		deliver((d+1)%n, d, j.tile, 1)
		if protoErr != nil {
			return nil, protoErr
		}
	}
	if protoErr != nil {
		return nil, protoErr
	}

	for d := 0; d < n; d++ {
		res.Buffers[d] = devs[d].buffer
		res.TrackerMaxLive[d] = devs[d].tracker.MaxLive()
		res.TrackerFired[d] = devs[d].tracker.Fired()
		res.DMATriggered[d] = devs[d].dma.Triggered()
		if pending := devs[d].dma.Pending(); pending != 0 {
			return nil, fmt.Errorf("t3core: device %d finished with %d DMA commands pending", d, pending)
		}
		if live := devs[d].tracker.Live(); live != 0 {
			return nil, fmt.Errorf("t3core: device %d finished with %d live tracker entries", d, live)
		}
	}
	return res, nil
}
