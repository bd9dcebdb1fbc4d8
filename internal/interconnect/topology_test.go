package interconnect

import (
	"reflect"
	"testing"

	"t3sim/internal/sim"
	"t3sim/internal/units"
)

func topoCfg() Config {
	return Config{LinkBandwidth: 75 * units.GBps, LinkLatency: 500 * units.Nanosecond, PacketSize: 2 * units.KiB}
}

func TestTopoSpecValidate(t *testing.T) {
	cfg := topoCfg()
	good := []TopoSpec{
		RingTopo(2, cfg),
		RingTopo(8, cfg),
		TorusTopo(2, 4, cfg),
		TorusTopo(3, 3, cfg),
		SwitchTopo(4, cfg),
		HierarchicalTopo(2, 4, cfg, cfg),
		HierarchicalTopo(4, 1, cfg, Config{}),
	}
	for _, s := range good {
		if err := s.Validate(); err != nil {
			t.Errorf("%v/%d: unexpected error %v", s.Kind, s.Devices, err)
		}
	}
	bad := []TopoSpec{
		{},                   // unknown/unset link
		RingTopo(1, cfg),     // too small
		TorusTopo(1, 4, cfg), // degenerate row
		{Kind: TopoTorus, Devices: 9, Rows: 2, Cols: 4, Link: cfg}, // count mismatch
		SwitchTopo(1, cfg),
		HierarchicalTopo(1, 4, cfg, cfg),
		{Kind: TopoHierarchical, Devices: 8, Nodes: 2, PerNode: 4, Link: cfg,
			InterLink: Config{LinkBandwidth: -1, LinkLatency: 1, PacketSize: 1}},
	}
	for _, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("%v/%d: expected validation error", s.Kind, s.Devices)
		}
	}
}

// TestRingTopoEdgeOrder pins the canonical edge order of the ring: forward
// then backward per device — the cluster mailbox registration order the
// byte-identity of the golden suite rests on.
func TestRingTopoEdgeOrder(t *testing.T) {
	s := RingTopo(4, topoCfg())
	var got [][2]int
	for _, e := range s.edges() {
		got = append(got, [2]int{e.src, e.dst})
	}
	want := [][2]int{{0, 1}, {0, 3}, {1, 2}, {1, 0}, {2, 3}, {2, 1}, {3, 0}, {3, 2}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("ring edge order = %v, want %v", got, want)
	}
}

func TestTopoNeighbors(t *testing.T) {
	cfg := topoCfg()
	cases := []struct {
		name string
		spec TopoSpec
		dev  int
		want []int
	}{
		{"ring", RingTopo(4, cfg), 1, []int{2, 0}},
		{"torus-corner", TorusTopo(2, 4, cfg), 0, []int{1, 3, 4, 4}},
		{"torus-mid", TorusTopo(3, 3, cfg), 4, []int{5, 3, 7, 1}},
		{"switch", SwitchTopo(4, cfg), 2, []int{0, 1, 3}},
		{"hier-leader", HierarchicalTopo(2, 4, cfg, cfg), 0, []int{1, 2, 3, 4}},
		{"hier-member", HierarchicalTopo(2, 4, cfg, cfg), 5, []int{4, 6, 7}},
	}
	for _, tc := range cases {
		if got := tc.spec.Neighbors(tc.dev); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: Neighbors(%d) = %v, want %v", tc.name, tc.dev, got, tc.want)
		}
	}
}

// TestTopoRoutes checks the deterministic shortest-path routing on each
// kind, including the two-level route through node leaders.
func TestTopoRoutes(t *testing.T) {
	cfg := topoCfg()
	slow := cfg
	slow.LinkBandwidth = 25 * units.GBps
	eng := sim.NewEngine()
	cases := []struct {
		name     string
		spec     TopoSpec
		src, dst int
		want     []int
	}{
		{"ring-fwd", RingTopo(4, cfg), 0, 1, []int{1}},
		{"ring-2hop", RingTopo(5, cfg), 0, 2, []int{1, 2}},
		{"ring-back", RingTopo(5, cfg), 0, 4, []int{4}},
		{"torus-row", TorusTopo(2, 4, cfg), 0, 2, []int{1, 2}},
		{"torus-wrap", TorusTopo(2, 4, cfg), 3, 0, []int{0}},
		{"torus-diag", TorusTopo(2, 4, cfg), 0, 5, []int{1, 5}},
		{"switch-direct", SwitchTopo(8, cfg), 3, 6, []int{6}},
		{"hier-intra", HierarchicalTopo(2, 4, cfg, slow), 1, 3, []int{3}},
		{"hier-inter", HierarchicalTopo(2, 4, cfg, slow), 1, 6, []int{0, 4, 6}},
		{"hier-leaders", HierarchicalTopo(2, 4, cfg, slow), 0, 4, []int{4}},
	}
	for _, tc := range cases {
		topo, err := tc.spec.Build(eng)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got := topo.Route(tc.src, tc.dst); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: Route(%d,%d) = %v, want %v", tc.name, tc.src, tc.dst, got, tc.want)
		}
		if got, want := topo.Hops(tc.src, tc.dst), len(tc.want); got != want {
			t.Errorf("%s: Hops(%d,%d) = %d, want %d", tc.name, tc.src, tc.dst, got, want)
		}
	}
}

// TestTopoSendMultiHop times a 2-hop send against the store-and-forward
// model: serialize + latency per hop.
func TestTopoSendMultiHop(t *testing.T) {
	cfg := topoCfg()
	eng := sim.NewEngine()
	topo, err := RingTopo(5, cfg).Build(eng)
	if err != nil {
		t.Fatal(err)
	}
	const bytes = 64 * units.KiB
	var done units.Time
	topo.Send(0, 2, bytes, func() { done = eng.Now() })
	eng.Run()
	// The link serializes packet by packet, rounding each packet's transfer
	// to whole picoseconds, so the expectation sums per-packet times.
	var serialize units.Time
	for left := units.Bytes(bytes); left > 0; left -= cfg.PacketSize {
		pkt := cfg.PacketSize
		if left < pkt {
			pkt = left
		}
		serialize += cfg.LinkBandwidth.TransferTime(pkt)
	}
	perHop := serialize + cfg.LinkLatency
	if want := 2 * perHop; done != want {
		t.Fatalf("2-hop send delivered at %v, want %v", done, want)
	}
}

// TestTopoClusterMatchesShared drives the same multi-hop sends on a shared
// engine and on a cluster and expects identical delivery times — the
// byte-identity contract every topology inherits from the ring.
func TestTopoClusterMatchesShared(t *testing.T) {
	cfg := topoCfg()
	inter := cfg
	inter.LinkBandwidth = 25 * units.GBps
	inter.LinkLatency = 2 * units.Microsecond
	specs := []TopoSpec{
		RingTopo(6, cfg),
		TorusTopo(2, 4, cfg),
		SwitchTopo(6, cfg),
		HierarchicalTopo(2, 4, cfg, inter),
	}
	type msg struct {
		src, dst int
		bytes    units.Bytes
	}
	for _, spec := range specs {
		var msgs []msg
		n := spec.Devices
		for d := 0; d < n; d++ {
			msgs = append(msgs, msg{d, (d + n/2) % n, units.Bytes(16+d) * units.KiB})
		}
		runShared := func() []units.Time {
			eng := sim.NewEngine()
			topo, err := spec.Build(eng)
			if err != nil {
				t.Fatal(err)
			}
			out := make([]units.Time, len(msgs))
			for i, m := range msgs {
				i, m := i, m
				topo.Send(m.src, m.dst, m.bytes, func() { out[i] = eng.Now() })
			}
			eng.Run()
			return out
		}
		runCluster := func(workers int) []units.Time {
			cl := sim.NewCluster(n, spec.MinLinkLatency())
			topo, err := spec.BuildCluster(cl)
			if err != nil {
				t.Fatal(err)
			}
			out := make([]units.Time, len(msgs))
			for i, m := range msgs {
				i, m := i, m
				dst := m.dst
				topo.Send(m.src, m.dst, m.bytes, func() { out[i] = cl.Engine(dst).Now() })
			}
			cl.Run(workers)
			return out
		}
		want := runShared()
		for _, workers := range []int{1, 2, 4} {
			if got := runCluster(workers); !reflect.DeepEqual(got, want) {
				t.Errorf("%v: cluster(workers=%d) deliveries %v != shared %v", spec.Kind, workers, got, want)
			}
		}
	}
}

// TestClusterTopoRejectsShortLatency pins the conservative-window guarantee:
// a link whose latency undercuts the cluster lookahead must be rejected.
func TestClusterTopoRejectsShortLatency(t *testing.T) {
	cfg := topoCfg()
	cl := sim.NewCluster(8, cfg.LinkLatency)
	inter := cfg
	inter.LinkLatency = cfg.LinkLatency / 2
	if _, err := HierarchicalTopo(2, 4, inter, cfg).BuildCluster(cl); err == nil {
		t.Fatal("expected short intra-node latency to be rejected")
	}
	if _, err := HierarchicalTopo(2, 4, cfg, inter).BuildCluster(cl); err == nil {
		t.Fatal("expected short inter-node latency to be rejected")
	}
	cl2 := sim.NewCluster(8, inter.LinkLatency)
	if _, err := HierarchicalTopo(2, 4, cfg, inter).BuildCluster(cl2); err != nil {
		t.Fatalf("lookahead = min link latency must build: %v", err)
	}
}

// walkBackNextHops is the reference next-hop table: a breadth-first search
// from every source recording each device's BFS parent, then a walk back
// from every destination to the hop adjacent to the source.
func walkBackNextHops(r *Routes) []int32 {
	n := r.n
	out := make([]int32, n*n)
	adj := make([][]int, n)
	for i, e := range r.edges {
		if r.first[e.src*n+e.dst] == int32(i) {
			adj[e.src] = append(adj[e.src], e.dst)
		}
	}
	prev := make([]int, n)
	for src := 0; src < n; src++ {
		for i := range prev {
			prev[i] = -1
		}
		prev[src] = src
		queue := []int{src}
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			for _, v := range adj[u] {
				if prev[v] == -1 {
					prev[v] = u
					queue = append(queue, v)
				}
			}
		}
		for dst := 0; dst < n; dst++ {
			if dst == src {
				out[src*n+dst] = -1
				continue
			}
			hop := dst
			for prev[hop] != src {
				hop = prev[hop]
			}
			out[src*n+dst] = int32(hop)
		}
	}
	return out
}

// TestRouteAllMatchesWalkBack pins the first-hop BFS against the walk-back
// reference on every topology kind, ties included (earliest-listed edge).
func TestRouteAllMatchesWalkBack(t *testing.T) {
	cfg := DefaultConfig()
	slow := cfg
	slow.LinkBandwidth = cfg.LinkBandwidth / 4
	for _, spec := range []TopoSpec{
		RingTopo(2, cfg), RingTopo(7, cfg), RingTopo(256, cfg),
		TorusTopo(3, 5, cfg), TorusTopo(16, 16, cfg),
		SwitchTopo(9, cfg),
		HierarchicalTopo(4, 64, cfg, slow), HierarchicalTopo(3, 4, cfg, slow),
	} {
		r, err := spec.Routes()
		if err != nil {
			t.Fatal(err)
		}
		want := walkBackNextHops(r)
		for i, h := range r.nexthop {
			if h != want[i] {
				t.Errorf("%v %d devices: next hop %d → %d = %d, want %d",
					spec.Kind, spec.Devices, i/spec.Devices, i%spec.Devices, h, want[i])
				break
			}
		}
	}
}
