// Package topology models the two layers of a WAN backbone: the optical
// topology (ROADM sites connected by fiber segments) and the IP topology
// (router pairs with bandwidth-capacity demands riding on optical paths).
//
// Algorithm 1 of the FlexWAN paper takes both graphs as input and
// pre-computes, per IP link, the K shortest optical paths (§5, "we use K
// shortest path (KSP) algorithm to find the K optimal optical paths").
// This package provides those primitives: an undirected multigraph with
// fiber lengths, Dijkstra shortest paths, and Yen's loopless K shortest
// paths, plus failure projection (removing cut fibers) for the
// restoration algorithm (§8).
package topology

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
)

// NodeID names a ROADM site (equivalently a region; the paper maps each
// IP node to the region's optical site).
type NodeID string

// Fiber is one fiber segment between two ROADM sites. Fibers are
// undirected: a wavelength can be added/dropped in either direction.
type Fiber struct {
	ID       string
	A, B     NodeID
	LengthKm float64
}

// Other returns the far end of the fiber from n, and false if n is not an
// endpoint.
func (f Fiber) Other(n NodeID) (NodeID, bool) {
	switch n {
	case f.A:
		return f.B, true
	case f.B:
		return f.A, true
	default:
		return "", false
	}
}

// Optical is the optical-layer topology G_o(V_o, E_o): ROADMs and fibers.
// It is a multigraph — parallel fibers between the same sites are common
// in production. Construct with New.
//
// Sites and fibers are numbered densely in insertion order, and the path
// searches run on those numbers; IDs appear only at the API. A topology
// returned by Without is a view: it reads the same index as its parent
// and carries the set of fibers it leaves out.
type Optical struct {
	ix     *index
	cut    bitmap // fibers a Without view leaves out; nil on a built topology
	ncut   int    // how many
	cutKey string // cut's words as bytes, "" when ncut is 0: names the cut set in the index's path memo
}

// index is the graph in dense form. Once a view shares it nobody writes
// it again: the next AddNode or AddFiber, on the parent or on a view,
// first gives that topology a copy of its own.
type index struct {
	nodeIdx  map[NodeID]int32
	nodes    []NodeID // by index
	fiberIdx map[string]int32
	fibers   []Fiber   // by index
	ends     []int32   // fiber → its two sites' indices XORed: one end gives the other
	adj      [][]int32 // site → incident fibers, insertion order
	shared   atomic.Bool

	// memo holds every KShortestPaths answer computed on this index, for
	// the parent and all its views: the paths are a pure function of the
	// key. It lives as long as the index and is dropped when a fiber is
	// added in place; a topology that moves to a copy starts an empty one.
	memoMu sync.RWMutex
	memo   map[kspKey][]Path

	// num is the index's fiber numbering, built the first time it is asked
	// for and dropped, like memo, when a fiber is added in place.
	num atomic.Pointer[Numbering]
}

// kspKey names one KShortestPaths question on an index.
type kspKey struct {
	cut      string // the asking topology's cutKey
	src, dst int32
	k        int
}

// kspMemoCap bounds the memo of one index. What a planned backbone asks
// (its IP links' endpoint pairs, under no cut and under each cut of a
// failure sweep) is a small fraction of it; a caller that keeps asking new
// questions — arbitrary cut sets, all-pairs scans — starts the memo over
// when it is full rather than growing it without limit.
const kspMemoCap = 1 << 13

// bitmap is a set of fiber indices.
type bitmap []uint64

func (b bitmap) has(i int32) bool { return int(i>>6) < len(b) && b[i>>6]>>(i&63)&1 != 0 }
func (b bitmap) set(i int32)      { b[i>>6] |= 1 << (i & 63) }

// New returns an empty optical topology.
func New() *Optical {
	return &Optical{ix: &index{nodeIdx: make(map[NodeID]int32), fiberIdx: make(map[string]int32)}}
}

// own makes the index safe to write: a topology whose index a view
// shares (or that is a view) moves to a private copy without its cut
// fibers first.
func (g *Optical) own() {
	if !g.ix.shared.Load() {
		return
	}
	old, cut := g.ix, g.cut
	g.ix, g.cut, g.ncut, g.cutKey = New().ix, nil, 0, ""
	for _, n := range old.nodes {
		g.AddNode(n)
	}
	for fi, f := range old.fibers {
		if !cut.has(int32(fi)) {
			g.addFiber(f)
		}
	}
}

// AddNode inserts a ROADM site. Adding an existing node is a no-op.
func (g *Optical) AddNode(id NodeID) {
	if g.HasNode(id) {
		return
	}
	g.own()
	g.ix.nodeIdx[id] = int32(len(g.ix.nodes))
	g.ix.nodes = append(g.ix.nodes, id)
	g.ix.adj = append(g.ix.adj, nil)
}

// HasNode reports whether the site exists.
func (g *Optical) HasNode(id NodeID) bool {
	_, ok := g.ix.nodeIdx[id]
	return ok
}

// AddFiber inserts a fiber segment, creating endpoints as needed.
func (g *Optical) AddFiber(id string, a, b NodeID, lengthKm float64) error {
	if id == "" {
		return fmt.Errorf("topology: empty fiber ID")
	}
	if a == b {
		return fmt.Errorf("topology: fiber %s is a self-loop at %s", id, a)
	}
	if lengthKm <= 0 {
		return fmt.Errorf("topology: fiber %s has nonpositive length %v", id, lengthKm)
	}
	if _, dup := g.Fiber(id); dup {
		return fmt.Errorf("topology: duplicate fiber ID %s", id)
	}
	g.own()
	g.addFiber(Fiber{ID: id, A: a, B: b, LengthKm: lengthKm})
	return nil
}

// addFiber appends a validated fiber to an index g owns.
func (g *Optical) addFiber(f Fiber) {
	g.AddNode(f.A)
	g.AddNode(f.B)
	ix := g.ix
	fi, a, b := int32(len(ix.fibers)), ix.nodeIdx[f.A], ix.nodeIdx[f.B]
	ix.fiberIdx[f.ID] = fi
	ix.fibers = append(ix.fibers, f)
	ix.ends = append(ix.ends, a^b)
	ix.adj[a] = append(ix.adj[a], fi)
	ix.adj[b] = append(ix.adj[b], fi)
	// Memoised paths and the numbering predate the fiber. (A new site
	// alone changes no answer: it has no fiber yet, and unknown sites are
	// never memoised.)
	ix.memoMu.Lock()
	ix.memo = nil
	ix.memoMu.Unlock()
	ix.num.Store(nil)
}

// Numbering is the dense numbering of a topology's fibers that spectrum
// occupancy is laid out by: a fiber's number is its index, in insertion
// order, so the paths a topology finds carry their fibers' numbers
// (Path.Index) and an allocator on the numbering reaches a fiber's words
// without hashing its name. A topology builds its numbering once, the first
// time it is asked for, and its views share it; adding a fiber in place
// gives the topology a new one, and a numbering never changes.
type Numbering struct {
	num map[string]int32
	ids []string // by number
}

// Numbering returns the topology's fiber numbering. A Without view
// returns its parent's: the fibers it leaves out keep their numbers.
func (g *Optical) Numbering() *Numbering {
	ix := g.ix
	if n := ix.num.Load(); n != nil {
		return n
	}
	n := &Numbering{num: make(map[string]int32, len(ix.fibers)), ids: make([]string, len(ix.fibers))}
	for i, f := range ix.fibers {
		n.num[f.ID], n.ids[i] = int32(i), f.ID
	}
	if !ix.num.CompareAndSwap(nil, n) {
		return ix.num.Load()
	}
	return n
}

// Len returns how many fibers are numbered: they are 0 to Len()-1.
func (n *Numbering) Len() int { return len(n.ids) }

// Lookup returns the number of the fiber with the given ID.
func (n *Numbering) Lookup(id string) (int32, bool) {
	i, ok := n.num[id]
	return i, ok
}

// ID returns the ID of the fiber numbered i.
func (n *Numbering) ID(i int32) string { return n.ids[i] }

// Resolve numbers a path whose fibers are known only by ID — one built by
// hand, or decoded from JSON — in the topology's numbering, so that an
// allocator on the numbering takes it by index. It reports false, and
// leaves the path as it was, when a fiber of the path has no number.
func (g *Optical) Resolve(p *Path) bool {
	n := g.Numbering()
	index := make([]int32, len(p.Fibers))
	for i, id := range p.Fibers {
		fi, ok := n.Lookup(id)
		if !ok {
			return false
		}
		index[i] = fi
	}
	p.Numbering, p.Index = n, index
	return true
}

// Fiber returns the fiber with the given ID.
func (g *Optical) Fiber(id string) (Fiber, bool) {
	fi, ok := g.ix.fiberIdx[id]
	if !ok || g.cut.has(fi) {
		return Fiber{}, false
	}
	return g.ix.fibers[fi], true
}

// Nodes returns all sites in sorted order.
func (g *Optical) Nodes() []NodeID {
	out := append([]NodeID(nil), g.ix.nodes...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Fibers returns all fibers sorted by ID.
func (g *Optical) Fibers() []Fiber {
	out := make([]Fiber, 0, g.NumFibers())
	for fi, f := range g.ix.fibers {
		if !g.cut.has(int32(fi)) {
			out = append(out, f)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// NumNodes returns the site count.
func (g *Optical) NumNodes() int { return len(g.ix.nodes) }

// NumFibers returns the fiber count.
func (g *Optical) NumFibers() int { return len(g.ix.fibers) - g.ncut }

// Without returns the topology with the given fibers removed — the
// post-failure topology G'_o of a fiber-cut scenario (§8). The result is
// a view over the receiver's index, so it costs one bitmap, and it stays
// what it was if either topology is added to later.
func (g *Optical) Without(cut ...string) *Optical {
	if !g.ix.shared.Load() {
		g.ix.shared.Store(true)
	}
	out := &Optical{ix: g.ix, cut: make(bitmap, (len(g.ix.fibers)+63)>>6), ncut: g.ncut}
	copy(out.cut, g.cut)
	for _, id := range cut {
		if fi, ok := g.ix.fiberIdx[id]; ok && !out.cut.has(fi) {
			out.cut.set(fi)
			out.ncut++
		}
	}
	if out.ncut > 0 {
		var buf [64]byte // up to 512 fibers without a second allocation
		key := buf[:0]
		for _, w := range out.cut {
			key = binary.LittleEndian.AppendUint64(key, w)
		}
		out.cutKey = string(key)
	}
	return out
}

// Path is a loopless walk through the optical topology: the node sequence
// and the fiber chosen for each hop. LengthKm is the total fiber length —
// the transmission distance that the optical reach must cover.
//
// The paths ShortestPath and KShortestPaths return are shared with every
// other caller that asks the same question: treat Nodes, Fibers and Index
// as read-only, and copy before changing one.
type Path struct {
	Nodes    []NodeID
	Fibers   []string
	LengthKm float64
	// Numbering and Index give the fibers by number: Index[i] is Fibers[i]'s
	// number in Numbering, the numbering of the topology that found the
	// path. Both are nil on a path built by hand, whose fibers an allocator
	// looks up by ID (or that Optical.Resolve numbers). Neither is part of
	// the path's JSON.
	Numbering *Numbering `json:"-"`
	Index     []int32    `json:"-"`
}

// Src returns the first node of the path.
func (p Path) Src() NodeID { return p.Nodes[0] }

// Dst returns the last node of the path.
func (p Path) Dst() NodeID { return p.Nodes[len(p.Nodes)-1] }

// Hops returns the number of fiber segments.
func (p Path) Hops() int { return len(p.Fibers) }

// Equal reports whether two paths use the identical fiber sequence.
func (p Path) Equal(q Path) bool { return slices.Equal(p.Fibers, q.Fibers) }

func (p Path) String() string {
	return fmt.Sprintf("%v (%.0f km)", p.Nodes, p.LengthKm)
}

// ipath is a path in index form, as the searches build and compare it:
// the fibers from a known source site (they determine the sites).
type ipath struct {
	fibers []int32
	km     float64
}

func (ix *index) path(num *Numbering, src int32, p ipath) Path {
	out := Path{Nodes: append(make([]NodeID, 0, len(p.fibers)+1), ix.nodes[src]), LengthKm: p.km, Numbering: num, Index: p.fibers}
	for _, f := range p.fibers {
		src ^= ix.ends[f]
		out.Nodes = append(out.Nodes, ix.nodes[src])
		out.Fibers = append(out.Fibers, ix.fibers[f].ID)
	}
	return out
}

// search is the scratch the Dijkstra runs of one KShortestPaths call share.
type search struct {
	ix           *index
	dist         []float64
	prev         []int32 // site → the fiber it was reached over
	done         []bool
	frontier     []frontierItem
	bannedNodes  []bool
	bannedFibers bitmap
}

type frontierItem struct {
	node int32
	dist float64
}

// The frontier is container/heap's binary heap on dist, written out for
// the concrete item type.
func (s *search) push(it frontierItem) {
	s.frontier = append(s.frontier, it)
	for j := len(s.frontier) - 1; ; {
		i := (j - 1) / 2
		if i == j || s.frontier[j].dist >= s.frontier[i].dist {
			break
		}
		s.frontier[i], s.frontier[j] = s.frontier[j], s.frontier[i]
		j = i
	}
}

func (s *search) pop() frontierItem {
	h := s.frontier
	n := len(h) - 1
	h[0], h[n] = h[n], h[0]
	for i := 0; ; {
		j := 2*i + 1
		if j >= n {
			break
		}
		if j+1 < n && h[j+1].dist < h[j].dist {
			j++
		}
		if h[j].dist >= h[i].dist {
			break
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
	s.frontier = h[:n]
	return h[n]
}

// reach runs Dijkstra from src until dst is settled, skipping the banned
// fibers and nodes, and reports whether dst was reached; dist and prev
// then hold the way back. Ties are broken deterministically: on equal
// distance a site keeps the predecessor fiber with the smaller ID.
func (s *search) reach(src, dst int32) bool {
	for i := range s.dist {
		s.dist[i], s.done[i] = math.Inf(1), false
	}
	s.dist[src] = 0
	s.frontier = append(s.frontier[:0], frontierItem{node: src})
	ix := s.ix
	for len(s.frontier) > 0 {
		cur := s.pop()
		if s.done[cur.node] {
			continue
		}
		s.done[cur.node] = true
		if cur.node == dst {
			return true
		}
		for _, fi := range ix.adj[cur.node] {
			next := ix.ends[fi] ^ cur.node
			if s.bannedFibers.has(fi) || s.bannedNodes[next] {
				continue
			}
			nd := cur.dist + ix.fibers[fi].LengthKm
			if old := s.dist[next]; nd < old || (nd == old && ix.fibers[fi].ID < ix.fibers[s.prev[next]].ID) {
				s.dist[next], s.prev[next] = nd, fi
				s.push(frontierItem{node: next, dist: nd})
			}
		}
	}
	return false
}

// trace returns root followed by the path reach found from src to dst.
func (s *search) trace(root ipath, src, dst int32) ipath {
	hops := 0
	for n := dst; n != src; n ^= s.ix.ends[s.prev[n]] {
		hops++
	}
	fibers := append(make([]int32, 0, len(root.fibers)+hops), root.fibers...)[:len(root.fibers)+hops]
	for n, i := dst, len(fibers)-1; n != src; n, i = n^s.ix.ends[s.prev[n]], i-1 {
		fibers[i] = s.prev[n]
	}
	return ipath{fibers: fibers, km: root.km + s.dist[dst]}
}

// ShortestPath runs Dijkstra from src to dst over fiber lengths. The
// second return is false when dst is unreachable. Ties are broken
// deterministically by fiber ID.
func (g *Optical) ShortestPath(src, dst NodeID) (Path, bool) {
	paths := g.KShortestPaths(src, dst, 1)
	if len(paths) == 0 {
		return Path{}, false
	}
	return paths[0], true
}

// KShortestPaths returns up to k loopless shortest paths from src to dst
// in nondecreasing length order (Yen's algorithm); equal lengths order by
// the fiber IDs along the path. Fewer than k paths are returned when the
// graph does not contain k distinct loopless paths.
//
// The answer is computed once per (topology or view, src, dst, k) and then
// shared: the returned slice and its paths are read-only (see Path). It is
// safe to call from several goroutines, on a topology and its views alike.
func (g *Optical) KShortestPaths(src, dst NodeID, k int) []Path {
	ix := g.ix
	si, okS := ix.nodeIdx[src]
	di, okD := ix.nodeIdx[dst]
	if k <= 0 || !okS || !okD {
		return nil
	}
	key := kspKey{cut: g.cutKey, src: si, dst: di, k: k}
	ix.memoMu.RLock()
	paths, ok := ix.memo[key]
	ix.memoMu.RUnlock()
	if ok {
		return paths
	}
	paths = g.yen(si, di, k)
	ix.memoMu.Lock()
	if len(ix.memo) >= kspMemoCap {
		ix.memo = nil
	}
	if ix.memo == nil {
		ix.memo = make(map[kspKey][]Path)
	}
	ix.memo[key] = paths
	ix.memoMu.Unlock()
	return paths
}

// yen is the search behind KShortestPaths, between two sites of the index.
func (g *Optical) yen(si, di int32, k int) []Path {
	ix := g.ix
	n := len(ix.nodes)
	s := &search{
		ix: ix, dist: make([]float64, n), prev: make([]int32, n), done: make([]bool, n),
		bannedNodes: make([]bool, n), bannedFibers: make(bitmap, (len(ix.fibers)+63)>>6),
	}
	copy(s.bannedFibers, g.cut)
	if !s.reach(si, di) {
		return nil
	}
	paths := []ipath{s.trace(ipath{}, si, di)}
	var candidates []ipath // deduplicated against paths and each other
	for len(paths) < k {
		// Each node of the previous path except the terminal is a
		// potential spur node; the path up to it is the root.
		last := paths[len(paths)-1]
		spur, root := si, ipath{}
		clear(s.bannedNodes)
		for i, f := range last.fibers {
			root.fibers = last.fibers[:i]
			// Ban the next fiber of every accepted path sharing this
			// root; the root's nodes are banned to keep paths loopless.
			clear(s.bannedFibers)
			copy(s.bannedFibers, g.cut)
			for _, p := range paths {
				if len(p.fibers) > i && slices.Equal(p.fibers[:i], root.fibers) {
					s.bannedFibers.set(p.fibers[i])
				}
			}
			if s.reach(spur, di) {
				total := s.trace(root, spur, di)
				same := func(p ipath) bool { return slices.Equal(p.fibers, total.fibers) }
				if !slices.ContainsFunc(paths, same) && !slices.ContainsFunc(candidates, same) {
					candidates = append(candidates, total)
				}
			}
			s.bannedNodes[spur] = true
			spur ^= ix.ends[f]
			root.km += ix.fibers[f].LengthKm
		}
		if len(candidates) == 0 {
			break
		}
		best := 0
		for i, c := range candidates {
			if b := candidates[best]; c.km < b.km || (c.km == b.km && ix.keyLess(c.fibers, b.fibers)) {
				best = i
			}
		}
		paths = append(paths, candidates[best])
		candidates[best] = candidates[len(candidates)-1]
		candidates = candidates[:len(candidates)-1]
	}
	out := make([]Path, len(paths))
	num := g.Numbering()
	for i, p := range paths {
		out[i] = ix.path(num, si, p)
	}
	return out
}

// keyLess orders two fiber sequences as their IDs, each followed by a
// '|', concatenated into one string would compare.
func (ix *index) keyLess(a, b []int32) bool {
	ai, ao, bi, bo := 0, 0, 0, 0 // element, and offset in its ID (len = the '|')
	for ai < len(a) && bi < len(b) {
		as, bs := ix.fibers[a[ai]].ID, ix.fibers[b[bi]].ID
		ca, cb := byte('|'), byte('|')
		if ao < len(as) {
			ca = as[ao]
		}
		if bo < len(bs) {
			cb = bs[bo]
		}
		if ca != cb {
			return ca < cb
		}
		if ao++; ao > len(as) {
			ai, ao = ai+1, 0
		}
		if bo++; bo > len(bs) {
			bi, bo = bi+1, 0
		}
	}
	return ai == len(a) && bi < len(b)
}

// Diameter returns the longest shortest-path distance between any two
// sites, or +Inf if the graph is disconnected. Useful for sanity checks
// on generated topologies.
func (g *Optical) Diameter() float64 {
	nodes := g.Nodes()
	worst := 0.0
	for i, a := range nodes {
		for _, b := range nodes[i+1:] {
			p, ok := g.ShortestPath(a, b)
			if !ok {
				return math.Inf(1)
			}
			if p.LengthKm > worst {
				worst = p.LengthKm
			}
		}
	}
	return worst
}

// IPLink is one IP-layer link e ∈ E: a router pair with a bandwidth
// capacity demand c_e, provisioned over optical paths between the same
// regions.
type IPLink struct {
	ID         string
	A, B       NodeID
	DemandGbps int
}

// IPTopology is the IP layer G(V, E): the demand set the planner must
// satisfy. Links are kept in insertion order.
type IPTopology struct {
	Links []IPLink
}

// AddLink appends an IP link. It rejects duplicates and nonpositive
// demands.
func (t *IPTopology) AddLink(l IPLink) error {
	if l.ID == "" {
		return fmt.Errorf("topology: empty IP link ID")
	}
	if l.A == l.B {
		return fmt.Errorf("topology: IP link %s is a self-loop", l.ID)
	}
	if l.DemandGbps <= 0 {
		return fmt.Errorf("topology: IP link %s has nonpositive demand %d", l.ID, l.DemandGbps)
	}
	for _, e := range t.Links {
		if e.ID == l.ID {
			return fmt.Errorf("topology: duplicate IP link ID %s", l.ID)
		}
	}
	t.Links = append(t.Links, l)
	return nil
}

// TotalDemandGbps sums all link demands.
func (t *IPTopology) TotalDemandGbps() int {
	total := 0
	for _, l := range t.Links {
		total += l.DemandGbps
	}
	return total
}

// Scale returns a copy with every demand multiplied by factor, rounding
// up — the paper's "bandwidth capacity scale" sweep (Fig. 12).
func (t *IPTopology) Scale(factor float64) *IPTopology {
	out := &IPTopology{Links: make([]IPLink, len(t.Links))}
	for i, l := range t.Links {
		l.DemandGbps = int(math.Ceil(float64(l.DemandGbps) * factor))
		out.Links[i] = l
	}
	return out
}
