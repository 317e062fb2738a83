package topology

import (
	"container/heap"
	"fmt"
	"sort"
)

// The map-based topology, Dijkstra and Yen that the indexed ones
// replaced, kept verbatim (renamed) as their differential oracle: string
// keys everywhere, container/heap, candidate dedup and tie-break through
// concatenated fiber-ID keys, and Without as a rebuilt copy.

// mapGraph is the optical-layer topology G_o(V_o, E_o): ROADMs and fibers.
// It is a multigraph — parallel fibers between the same sites are common
// in production. The zero value is empty and ready to use via New.
type mapGraph struct {
	nodes  map[NodeID]struct{}
	fibers map[string]Fiber
	adj    map[NodeID][]string // node → incident fiber IDs, insertion order
}

// New returns an empty optical topology.
func newMapGraph() *mapGraph {
	return &mapGraph{
		nodes:  make(map[NodeID]struct{}),
		fibers: make(map[string]Fiber),
		adj:    make(map[NodeID][]string),
	}
}

// AddNode inserts a ROADM site. Adding an existing node is a no-op.
func (g *mapGraph) AddNode(id NodeID) {
	g.nodes[id] = struct{}{}
}

// HasNode reports whether the site exists.
func (g *mapGraph) HasNode(id NodeID) bool {
	_, ok := g.nodes[id]
	return ok
}

// AddFiber inserts a fiber segment, creating endpoints as needed.
func (g *mapGraph) AddFiber(id string, a, b NodeID, lengthKm float64) error {
	if id == "" {
		return fmt.Errorf("topology: empty fiber ID")
	}
	if a == b {
		return fmt.Errorf("topology: fiber %s is a self-loop at %s", id, a)
	}
	if lengthKm <= 0 {
		return fmt.Errorf("topology: fiber %s has nonpositive length %v", id, lengthKm)
	}
	if _, dup := g.fibers[id]; dup {
		return fmt.Errorf("topology: duplicate fiber ID %s", id)
	}
	g.AddNode(a)
	g.AddNode(b)
	g.fibers[id] = Fiber{ID: id, A: a, B: b, LengthKm: lengthKm}
	g.adj[a] = append(g.adj[a], id)
	g.adj[b] = append(g.adj[b], id)
	return nil
}

// Fiber returns the fiber with the given ID.
func (g *mapGraph) Fiber(id string) (Fiber, bool) {
	f, ok := g.fibers[id]
	return f, ok
}

// Nodes returns all sites in sorted order.
func (g *mapGraph) Nodes() []NodeID {
	out := make([]NodeID, 0, len(g.nodes))
	for n := range g.nodes {
		out = append(out, n)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Fibers returns all fibers sorted by ID.
func (g *mapGraph) Fibers() []Fiber {
	out := make([]Fiber, 0, len(g.fibers))
	for _, f := range g.fibers {
		out = append(out, f)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// NumNodes returns the site count.
func (g *mapGraph) NumNodes() int { return len(g.nodes) }

// NumFibers returns the fiber count.
func (g *mapGraph) NumFibers() int { return len(g.fibers) }

// Without returns a copy of the topology with the given fibers removed —
// the post-failure topology G'_o of a fiber-cut scenario (§8).
func (g *mapGraph) Without(cut ...string) *mapGraph {
	cutSet := make(map[string]struct{}, len(cut))
	for _, id := range cut {
		cutSet[id] = struct{}{}
	}
	out := newMapGraph()
	for n := range g.nodes {
		out.AddNode(n)
	}
	// Preserve insertion order of adjacency for determinism.
	seen := make(map[string]struct{})
	for _, n := range g.Nodes() {
		for _, fid := range g.adj[n] {
			if _, isCut := cutSet[fid]; isCut {
				continue
			}
			if _, dup := seen[fid]; dup {
				continue
			}
			seen[fid] = struct{}{}
			f := g.fibers[fid]
			if err := out.AddFiber(f.ID, f.A, f.B, f.LengthKm); err != nil {
				// Cannot happen: we copy validated fibers exactly once.
				panic(err)
			}
		}
	}
	return out
}

// oldPqItem is a Dijkstra frontier entry.
type oldPqItem struct {
	node NodeID
	dist float64
}

type oldPq []oldPqItem

func (q oldPq) Len() int            { return len(q) }
func (q oldPq) Less(i, j int) bool  { return q[i].dist < q[j].dist }
func (q oldPq) Swap(i, j int)       { q[i], q[j] = q[j], q[i] }
func (q *oldPq) Push(x interface{}) { *q = append(*q, x.(oldPqItem)) }
func (q *oldPq) Pop() interface{} {
	old := *q
	n := len(old)
	item := old[n-1]
	*q = old[:n-1]
	return item
}

// ShortestPath runs Dijkstra from src to dst over fiber lengths. The
// second return is false when dst is unreachable. Ties are broken
// deterministically by fiber ID.
func (g *mapGraph) ShortestPath(src, dst NodeID) (Path, bool) {
	return g.shortestPathAvoiding(src, dst, nil, nil)
}

// shortestPathAvoiding is Dijkstra with banned fibers and banned nodes —
// the spur computation Yen's algorithm needs.
func (g *mapGraph) shortestPathAvoiding(src, dst NodeID, bannedFibers map[string]struct{}, bannedNodes map[NodeID]struct{}) (Path, bool) {
	if !g.HasNode(src) || !g.HasNode(dst) {
		return Path{}, false
	}
	if src == dst {
		return Path{Nodes: []NodeID{src}}, true
	}
	dist := map[NodeID]float64{src: 0}
	prevFiber := map[NodeID]string{}
	prevNode := map[NodeID]NodeID{}
	done := map[NodeID]struct{}{}
	frontier := &oldPq{{node: src, dist: 0}}
	for frontier.Len() > 0 {
		cur := heap.Pop(frontier).(oldPqItem)
		if _, ok := done[cur.node]; ok {
			continue
		}
		done[cur.node] = struct{}{}
		if cur.node == dst {
			break
		}
		for _, fid := range g.adj[cur.node] {
			if bannedFibers != nil {
				if _, banned := bannedFibers[fid]; banned {
					continue
				}
			}
			f := g.fibers[fid]
			next, _ := f.Other(cur.node)
			if bannedNodes != nil {
				if _, banned := bannedNodes[next]; banned {
					continue
				}
			}
			nd := cur.dist + f.LengthKm
			old, seen := dist[next]
			// Deterministic tie-break: keep the lexicographically
			// smaller predecessor fiber on exact ties.
			if !seen || nd < old || (nd == old && fid < prevFiber[next]) {
				dist[next] = nd
				prevFiber[next] = fid
				prevNode[next] = cur.node
				heap.Push(frontier, oldPqItem{node: next, dist: nd})
			}
		}
	}
	if _, ok := done[dst]; !ok {
		return Path{}, false
	}
	// Reconstruct.
	var nodes []NodeID
	var fibers []string
	for n := dst; n != src; n = prevNode[n] {
		nodes = append(nodes, n)
		fibers = append(fibers, prevFiber[n])
	}
	nodes = append(nodes, src)
	oldReverseNodes(nodes)
	oldReverseStrings(fibers)
	return Path{Nodes: nodes, Fibers: fibers, LengthKm: dist[dst]}, true
}

func oldReverseNodes(s []NodeID) {
	for i, j := 0, len(s)-1; i < j; i, j = i+1, j-1 {
		s[i], s[j] = s[j], s[i]
	}
}

func oldReverseStrings(s []string) {
	for i, j := 0, len(s)-1; i < j; i, j = i+1, j-1 {
		s[i], s[j] = s[j], s[i]
	}
}

// KShortestPaths returns up to k loopless shortest paths from src to dst
// in nondecreasing length order (Yen's algorithm). Fewer than k paths are
// returned when the graph does not contain k distinct loopless paths.
func (g *mapGraph) KShortestPaths(src, dst NodeID, k int) []Path {
	if k <= 0 {
		return nil
	}
	first, ok := g.ShortestPath(src, dst)
	if !ok {
		return nil
	}
	paths := []Path{first}
	// Candidate pool, deduplicated by fiber sequence.
	var candidates []Path
	seen := map[string]struct{}{oldPathKey(first): {}}

	for len(paths) < k {
		last := paths[len(paths)-1]
		// Each node of the previous path except the terminal is a
		// potential spur node.
		for i := 0; i < len(last.Nodes)-1; i++ {
			spur := last.Nodes[i]
			rootNodes := last.Nodes[:i+1]
			rootFibers := last.Fibers[:i]
			rootLen := 0.0
			for _, fid := range rootFibers {
				rootLen += g.fibers[fid].LengthKm
			}
			// Ban the next fiber of every accepted path sharing this root.
			bannedFibers := make(map[string]struct{})
			for _, p := range paths {
				if len(p.Fibers) > i && oldSameRoot(p, rootNodes, rootFibers) {
					bannedFibers[p.Fibers[i]] = struct{}{}
				}
			}
			// Ban root nodes (except the spur) to keep paths loopless.
			bannedNodes := make(map[NodeID]struct{})
			for _, n := range rootNodes[:i] {
				bannedNodes[n] = struct{}{}
			}
			spurPath, ok := g.shortestPathAvoiding(spur, dst, bannedFibers, bannedNodes)
			if !ok {
				continue
			}
			total := Path{
				Nodes:    append(append([]NodeID{}, rootNodes...), spurPath.Nodes[1:]...),
				Fibers:   append(append([]string{}, rootFibers...), spurPath.Fibers...),
				LengthKm: rootLen + spurPath.LengthKm,
			}
			key := oldPathKey(total)
			if _, dup := seen[key]; dup {
				continue
			}
			seen[key] = struct{}{}
			candidates = append(candidates, total)
		}
		if len(candidates) == 0 {
			break
		}
		// Take the shortest candidate (stable tie-break by fiber key).
		sort.Slice(candidates, func(i, j int) bool {
			if candidates[i].LengthKm != candidates[j].LengthKm {
				return candidates[i].LengthKm < candidates[j].LengthKm
			}
			return oldPathKey(candidates[i]) < oldPathKey(candidates[j])
		})
		paths = append(paths, candidates[0])
		candidates = candidates[1:]
	}
	return paths
}

func oldSameRoot(p Path, rootNodes []NodeID, rootFibers []string) bool {
	if len(p.Nodes) < len(rootNodes) || len(p.Fibers) < len(rootFibers) {
		return false
	}
	for i, n := range rootNodes {
		if p.Nodes[i] != n {
			return false
		}
	}
	for i, f := range rootFibers {
		if p.Fibers[i] != f {
			return false
		}
	}
	return true
}

func oldPathKey(p Path) string {
	key := ""
	for _, f := range p.Fibers {
		key += f + "|"
	}
	return key
}
