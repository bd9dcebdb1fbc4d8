package interconnect

import (
	"fmt"

	"t3sim/internal/check"
	"t3sim/internal/metrics"
	"t3sim/internal/sim"
	"t3sim/internal/units"
)

// TopoKind enumerates the supported topology families.
type TopoKind int

const (
	// TopoRing is the Table 1 network: a bidirectional ring, one forward and
	// one backward link per device.
	TopoRing TopoKind = iota
	// TopoTorus is a 2D bidirectional torus with row-major device ids:
	// device r*Cols+c links to its east/west/south/north wrap-around
	// neighbors.
	TopoTorus
	// TopoSwitch is a fully-connected switch: one direct link per ordered
	// device pair, the non-blocking crossbar abstraction.
	TopoSwitch
	// TopoHierarchical is a two-level network: every node is an internal
	// full-mesh of fast intra-node links, and node leaders (device
	// node*PerNode) form a full mesh of slower inter-node links.
	TopoHierarchical
)

// String names the kind the way the CLIs and experiment tables spell it.
func (k TopoKind) String() string {
	switch k {
	case TopoRing:
		return "ring"
	case TopoTorus:
		return "torus"
	case TopoSwitch:
		return "switch"
	case TopoHierarchical:
		return "hier"
	}
	return fmt.Sprintf("TopoKind(%d)", int(k))
}

// TopoSpec is a pure description of an interconnect graph: which devices
// exist and which directed links join them, with per-link bandwidth and
// latency. A spec carries no simulation state; Build / BuildCluster
// instantiate live links on an engine or a cluster. The zero TopoSpec is
// "unset" (IsZero), which every consumer treats as the implicit
// RingTopo(Devices, Link) of its own options.
type TopoSpec struct {
	Kind TopoKind
	// Devices is the total device count (Rows*Cols for a torus,
	// Nodes*PerNode for a hierarchical network).
	Devices int
	// Rows, Cols shape a TopoTorus.
	Rows, Cols int
	// Nodes, PerNode shape a TopoHierarchical network.
	Nodes, PerNode int
	// Link configures every link (TopoHierarchical: the intra-node links).
	Link Config
	// InterLink configures TopoHierarchical's inter-node leader links; the
	// zero value falls back to Link. Other kinds ignore it.
	InterLink Config
}

// RingTopo describes a bidirectional ring of n devices.
func RingTopo(n int, cfg Config) TopoSpec {
	return TopoSpec{Kind: TopoRing, Devices: n, Link: cfg}
}

// TorusTopo describes a rows x cols bidirectional 2D torus.
func TorusTopo(rows, cols int, cfg Config) TopoSpec {
	return TopoSpec{Kind: TopoTorus, Devices: rows * cols, Rows: rows, Cols: cols, Link: cfg}
}

// SwitchTopo describes a fully-connected switch over n devices.
func SwitchTopo(n int, cfg Config) TopoSpec {
	return TopoSpec{Kind: TopoSwitch, Devices: n, Link: cfg}
}

// HierarchicalTopo describes nodes x perNode devices: full-mesh intra links
// inside each node, full-mesh inter links between node leaders.
func HierarchicalTopo(nodes, perNode int, intra, inter Config) TopoSpec {
	return TopoSpec{Kind: TopoHierarchical, Devices: nodes * perNode,
		Nodes: nodes, PerNode: perNode, Link: intra, InterLink: inter}
}

// IsZero reports whether the spec is unset: the caller's implicit
// RingTopo(Devices, Link).
func (s TopoSpec) IsZero() bool { return s == TopoSpec{} }

// interConfig returns the inter-node link configuration with the Link
// fallback applied.
func (s TopoSpec) interConfig() Config {
	if s.InterLink == (Config{}) {
		return s.Link
	}
	return s.InterLink
}

// Validate reports whether the spec describes a buildable topology.
func (s TopoSpec) Validate() error {
	if err := s.Link.Validate(); err != nil {
		return err
	}
	switch s.Kind {
	case TopoRing:
		if s.Devices < 2 {
			return fmt.Errorf("interconnect: ring needs >= 2 devices, got %d", s.Devices)
		}
	case TopoTorus:
		if s.Rows < 2 || s.Cols < 2 {
			return fmt.Errorf("interconnect: torus needs >= 2 rows and cols, got %dx%d", s.Rows, s.Cols)
		}
		if s.Devices != s.Rows*s.Cols {
			return fmt.Errorf("interconnect: torus %dx%d disagrees with %d devices", s.Rows, s.Cols, s.Devices)
		}
	case TopoSwitch:
		if s.Devices < 2 {
			return fmt.Errorf("interconnect: switch needs >= 2 devices, got %d", s.Devices)
		}
	case TopoHierarchical:
		if s.Nodes < 2 || s.PerNode < 1 {
			return fmt.Errorf("interconnect: hierarchical needs >= 2 nodes of >= 1 devices, got %dx%d", s.Nodes, s.PerNode)
		}
		if s.Devices != s.Nodes*s.PerNode {
			return fmt.Errorf("interconnect: hierarchical %dx%d disagrees with %d devices", s.Nodes, s.PerNode, s.Devices)
		}
		if err := s.interConfig().Validate(); err != nil {
			return err
		}
	default:
		return fmt.Errorf("interconnect: unknown topology kind %d", int(s.Kind))
	}
	return nil
}

// edgeSpec is one directed link of the graph description.
type edgeSpec struct {
	src, dst int
	cfg      Config
}

// edges returns the directed link list in the canonical order: device-major,
// then a fixed per-device out-edge order. This order is a determinism
// contract — BuildCluster registers one mailbox per edge in exactly this
// order, which fixes the cluster's barrier drain order (and therefore the
// cross-engine delivery order) for every worker count. For TopoRing it is
// forward-then-backward per device.
func (s TopoSpec) edges() []edgeSpec {
	var out []edgeSpec
	n := s.Devices
	switch s.Kind {
	case TopoRing:
		for d := 0; d < n; d++ {
			out = append(out,
				edgeSpec{d, (d + 1) % n, s.Link},
				edgeSpec{d, (d - 1 + n) % n, s.Link})
		}
	case TopoTorus:
		at := func(r, c int) int {
			return ((r+s.Rows)%s.Rows)*s.Cols + (c+s.Cols)%s.Cols
		}
		for r := 0; r < s.Rows; r++ {
			for c := 0; c < s.Cols; c++ {
				d := at(r, c)
				out = append(out,
					edgeSpec{d, at(r, c+1), s.Link}, // east
					edgeSpec{d, at(r, c-1), s.Link}, // west
					edgeSpec{d, at(r+1, c), s.Link}, // south
					edgeSpec{d, at(r-1, c), s.Link}) // north
			}
		}
	case TopoSwitch:
		for d := 0; d < n; d++ {
			for p := 0; p < n; p++ {
				if p != d {
					out = append(out, edgeSpec{d, p, s.Link})
				}
			}
		}
	case TopoHierarchical:
		inter := s.interConfig()
		for d := 0; d < n; d++ {
			node := d / s.PerNode
			for p := node * s.PerNode; p < (node+1)*s.PerNode; p++ {
				if p != d {
					out = append(out, edgeSpec{d, p, s.Link})
				}
			}
			if d == node*s.PerNode { // node leader
				for peer := 0; peer < s.Nodes; peer++ {
					if peer != node {
						out = append(out, edgeSpec{d, peer * s.PerNode, inter})
					}
				}
			}
		}
	}
	return out
}

// Neighbors returns device d's out-neighbors in canonical edge order.
func (s TopoSpec) Neighbors(d int) []int {
	var out []int
	for _, e := range s.edges() {
		if e.src == d {
			out = append(out, e.dst)
		}
	}
	return out
}

// MinLinkLatency returns the smallest propagation latency over every link —
// the widest conservative lookahead a cluster hosting this topology admits.
func (s TopoSpec) MinLinkLatency() units.Time {
	es := s.edges()
	if len(es) == 0 {
		return 0
	}
	min := es[0].cfg.LinkLatency
	for _, e := range es[1:] {
		if e.cfg.LinkLatency < min {
			min = e.cfg.LinkLatency
		}
	}
	return min
}

// Routes is a topology's deterministic routing, derived from the spec alone:
// the canonical edge list, the first direct edge per ordered device pair and
// the next-hop table. A built Topology embeds it; the analytic model routes
// over it without instantiating any link.
type Routes struct {
	n       int
	edges   []edgeSpec
	first   []int32 // n*n: index of the first direct edge src → dst; -1 if none
	nexthop []int32 // n*n: first hop of the route src → dst; -1 on the diagonal
}

// Routes validates the spec and returns its routing table.
func (s TopoSpec) Routes() (*Routes, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	n := s.Devices
	r := &Routes{n: n, edges: s.edges(), first: make([]int32, n*n)}
	for i := range r.first {
		r.first[i] = -1
	}
	for i, e := range r.edges {
		if k := e.src*n + e.dst; r.first[k] < 0 {
			r.first[k] = int32(i)
		}
	}
	r.routeAll()
	return r, nil
}

// routeAll fills the next-hop table: breadth-first search from every source
// over out-edges in canonical order, so ties between equal-length paths
// always break toward the earliest-listed edge — the deterministic-routing
// contract the differential tests and the analytic model both rely on.
func (r *Routes) routeAll() {
	n := r.n
	r.nexthop = make([]int32, n*n)
	adj := make([][]int, n) // out-neighbor lists in edge order, deduplicated
	for i, e := range r.edges {
		if r.first[e.src*n+e.dst] == int32(i) {
			adj[e.src] = append(adj[e.src], e.dst)
		}
	}
	queue := make([]int, n) // each device is enqueued at most once per source
	for src := 0; src < n; src++ {
		// hop[v] is the first hop of the BFS-tree path src → v, inherited
		// from v's parent as v is discovered; -1 marks src and the
		// undiscovered.
		hop := r.nexthop[src*n : (src+1)*n]
		for i := range hop {
			hop[i] = -1
		}
		queue[0] = src
		for head, tail := 0, 1; head < tail; head++ {
			u := queue[head]
			for _, v := range adj[u] {
				if v == src || hop[v] != -1 {
					continue
				}
				if u == src {
					hop[v] = int32(v)
				} else {
					hop[v] = hop[u]
				}
				queue[tail] = v
				tail++
			}
		}
	}
}

// NumLinks returns the number of directed links.
func (r *Routes) NumLinks() int { return len(r.edges) }

// Edge returns the index (in canonical edge order) and configuration of the
// first direct link src → dst, or -1 when the devices are not adjacent.
func (r *Routes) Edge(src, dst int) (int, Config) {
	i := r.first[src*r.n+dst]
	if i < 0 {
		return -1, Config{}
	}
	return int(i), r.edges[i].cfg
}

// NextHop returns the first hop of the deterministic shortest route
// src → dst (-1 when src == dst).
func (r *Routes) NextHop(src, dst int) int {
	return int(r.nexthop[src*r.n+dst])
}

// Hops returns the length of the deterministic route src → dst.
func (r *Routes) Hops(src, dst int) int {
	h := 0
	for src != dst {
		src = r.NextHop(src, dst)
		h++
	}
	return h
}

// Route returns the deterministic shortest route src → dst as the hop
// sequence after src (ending in dst). Empty when src == dst.
func (r *Routes) Route(src, dst int) []int {
	var out []int
	for src != dst {
		src = r.NextHop(src, dst)
		out = append(out, src)
	}
	return out
}

// Topology is a built interconnect graph: the spec's Routes plus one live
// Link per directed edge. Multi-hop Sends store-and-forward at message
// granularity: each intermediate hop re-serializes on its own outgoing link,
// with forwarding scheduled on the receiving device's engine (so cluster
// topologies parallelize exactly like cluster rings).
type Topology struct {
	*Routes
	spec  TopoSpec
	links []*Link
	fwd   [][]*forward // freelists of pooled forwards, one per engine (see forward)
}

// Build instantiates the topology's links on one shared engine.
func (s TopoSpec) Build(eng *sim.Engine) (*Topology, error) {
	return s.build(1, func(e edgeSpec) (*Link, error) { return NewLink(eng, e.cfg) })
}

// BuildCluster instantiates the topology across a cluster's per-device
// engines: each link serializes on its source device's engine and delivers
// into its destination's mailbox, registered as a link edge with the link's
// own latency — the per-link lookahead the dynamic horizons feed on.
// Mailboxes are registered in canonical edge order (see edges), which fixes
// drain order for every worker count. Every link latency must cover the
// cluster's lookahead; build the cluster with MinLinkLatency.
func (s TopoSpec) BuildCluster(cl *sim.Cluster) (*Topology, error) {
	if n := len(cl.Engines()); n != s.Devices {
		return nil, fmt.Errorf("interconnect: %d-device topology on %d-engine cluster", s.Devices, n)
	}
	return s.build(s.Devices, func(e edgeSpec) (*Link, error) { return NewClusterLink(cl, e.src, e.dst, e.cfg) })
}

// build instantiates every edge with mk. engines is how many engines the
// devices run on — 1 shared, or one per device on a cluster — and so how
// many forward freelists the topology keeps.
func (s TopoSpec) build(engines int, mk func(edgeSpec) (*Link, error)) (*Topology, error) {
	rt, err := s.Routes()
	if err != nil {
		return nil, err
	}
	t := &Topology{Routes: rt, spec: s, links: make([]*Link, len(rt.edges)), fwd: make([][]*forward, engines)}
	for i, e := range rt.edges {
		l, err := mk(e)
		if err != nil {
			return nil, err
		}
		t.links[i] = l
	}
	return t, nil
}

// Spec returns the graph description.
func (t *Topology) Spec() TopoSpec { return t.spec }

// Devices returns the device count.
func (t *Topology) Devices() int { return t.spec.Devices }

// Link returns the (first) direct link src → dst, or nil when the devices
// are not adjacent.
func (t *Topology) Link(src, dst int) *Link {
	if i, _ := t.Edge(src, dst); i >= 0 {
		return t.links[i]
	}
	return nil
}

// Send routes n bytes from src to dst along the deterministic shortest
// path, store-and-forwarding the whole message at each intermediate hop;
// onDelivered (may be nil) runs when the final hop delivers. On a cluster
// every forward runs on the forwarding device's own engine. Sending to
// yourself is a routing bug, not a transfer.
func (t *Topology) Send(src, dst int, n units.Bytes, onDelivered sim.Handler) {
	if src == dst {
		panic("interconnect: topology send to self")
	}
	hop := t.NextHop(src, dst)
	link := t.Link(src, hop)
	if hop == dst {
		link.Send(n, onDelivered)
		return
	}
	link.Send(n, t.getForward(src, hop, dst, n, onDelivered).arrived)
}

// forward carries one message across an intermediate hop: delivered at
// hop, it sends the message on toward dst.
//
// On one shared engine every forward shares one freelist. On a cluster the
// two ends of a link run on different engines, so the pools are split by
// device: a forward comes off the freelist of the device that sends it and
// goes back onto the freelist of the hop that receives it, inside
// onArrived. Every freelist is touched by its own device's engine only, and
// the mailbox that carries the delivery orders the handoff.
type forward struct {
	t           *Topology
	hop, dst    int
	n           units.Bytes
	onDelivered sim.Handler
	arrived     sim.Handler // prebound onArrived
}

// onArrived returns the forward to the hop's freelist, then sends on.
func (f *forward) onArrived() {
	t, hop, dst, n, onDelivered := f.t, f.hop, f.dst, f.n, f.onDelivered
	f.onDelivered = nil
	p := hop % len(t.fwd)
	t.fwd[p] = append(t.fwd[p], f)
	t.Send(hop, dst, n, onDelivered)
}

// getForward returns a forward of n bytes via hop to dst from src's
// freelist.
func (t *Topology) getForward(src, hop, dst int, n units.Bytes, onDelivered sim.Handler) *forward {
	var f *forward
	p := src % len(t.fwd)
	if free := t.fwd[p]; len(free) > 0 {
		f = free[len(free)-1]
		free[len(free)-1] = nil
		t.fwd[p] = free[:len(free)-1]
	} else {
		f = &forward{t: t}
		f.arrived = f.onArrived
	}
	f.hop, f.dst, f.n, f.onDelivered = hop, dst, n, onDelivered
	return f
}

// Links returns every live link in canonical edge order.
func (t *Topology) Links() []*Link { return t.links }

// AttachMetrics registers every link's instruments on m, named
// "e<i>.<src>-<dst>" in canonical edge order. A nil sink detaches without
// naming a single edge.
func (t *Topology) AttachMetrics(m metrics.Sink) {
	if m == nil {
		for _, l := range t.links {
			l.AttachMetrics(nil, "")
		}
		return
	}
	for i, e := range t.edges {
		t.links[i].AttachMetrics(m, fmt.Sprintf("e%d.%d-%d", i, e.src, e.dst))
	}
}

// AttachChecker registers every link's serialization witness on c, named
// like AttachMetrics. A nil checker detaches without naming a single edge.
func (t *Topology) AttachChecker(c *check.Checker) {
	if c == nil {
		for _, l := range t.links {
			l.AttachChecker(nil, "")
		}
		return
	}
	for i, e := range t.edges {
		t.links[i].AttachChecker(c, fmt.Sprintf("e%d.%d-%d", i, e.src, e.dst))
	}
}

// SentBytes sums every link's accepted bytes (transit hops count once per
// traversed link, like the hardware counters would).
func (t *Topology) SentBytes() units.Bytes {
	var total units.Bytes
	for _, l := range t.links {
		total += l.SentBytes()
	}
	return total
}
