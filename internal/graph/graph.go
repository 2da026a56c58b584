// Package graph provides the compressed-sparse-row (CSR) graph
// representation shared by every kernel in the repository.
//
// The paper's kernels iterate over all vertices and, per vertex, over its
// adjacency list (Algorithms 2–5). CSR makes both loops contiguous array
// scans, matching the memory behaviour the paper's assembly kernels were
// written against: an offsets array of |V|+1 indices and a flat adjacency
// array of 2|E| vertex ids.
//
// Every graph is undirected: each edge is stored as two arcs, so a
// vertex's adjacency list is both its in-arcs and its out-arcs, which is
// how the paper's Shiloach–Vishkin and BFS kernels read it.
//
// Vertex ids are uint32, which covers every graph in the paper's Table 2
// with 4-byte labels — the same element width the paper's conditional-move
// kernels operate on.
package graph

import (
	"errors"
	"fmt"
	"sort"
)

// Edge is an undirected (u, v) pair; Build stores it as both arcs.
type Edge struct {
	U, V uint32
}

// Graph is an immutable CSR graph. Use Build or the generators in
// internal/gen to construct one.
type Graph struct {
	offs []int64  // len n+1; offs[v]..offs[v+1] bounds v's adjacency
	adj  []uint32 // flat adjacency array
	name string
}

// MaxVertices is the largest vertex count a graph may have. Vertex ids
// are uint32, and the limit leaves the top bit of every id clear. Build
// and BuildWeighted refuse a larger n before allocating anything, and
// Validate refuses a larger CSR.
const MaxVertices = 1 << 31

// NumVertices returns |V|.
func (g *Graph) NumVertices() int { return len(g.offs) - 1 }

// NumArcs returns the number of adjacency entries, 2|E|.
func (g *Graph) NumArcs() int64 { return g.offs[len(g.offs)-1] }

// NumEdges returns the number of logical edges, |E| = arcs/2.
func (g *Graph) NumEdges() int64 { return g.NumArcs() / 2 }

// Name returns the label attached at build time ("" if none).
func (g *Graph) Name() string { return g.name }

// SetName attaches a human-readable label used in reports.
func (g *Graph) SetName(name string) { g.name = name }

// Degree returns the degree of v.
func (g *Graph) Degree(v uint32) int {
	return int(g.offs[v+1] - g.offs[v])
}

// Neighbors returns the adjacency list of v as a shared sub-slice; callers
// must not modify it.
func (g *Graph) Neighbors(v uint32) []uint32 {
	return g.adj[g.offs[v]:g.offs[v+1]]
}

// Offsets exposes the CSR offsets array (len |V|+1). Shared storage; do not
// modify. The instrumented kernels need raw access to attribute simulated
// memory addresses to loads.
func (g *Graph) Offsets() []int64 { return g.offs }

// Adjacency exposes the flat CSR adjacency array. Shared storage; do not
// modify.
func (g *Graph) Adjacency() []uint32 { return g.adj }

// Options configures Build.
type Options struct {
	// KeepSelfLoops retains u→u edges; by default they are dropped, as
	// they contribute nothing to connectivity or BFS and the DIMACS-10
	// inputs have none.
	KeepSelfLoops bool
	// KeepParallelEdges retains duplicate (u,v) entries; by default the
	// builder dedups them.
	KeepParallelEdges bool
	// Name labels the graph for reports.
	Name string
}

// Build constructs a CSR graph over n vertices from an edge list,
// inserting every edge in both directions. Neighbor lists are sorted
// ascending. It returns an error if n is out of [0, MaxVertices] or any
// endpoint is out of range.
func Build(n int, edges []Edge, opt Options) (*Graph, error) {
	if err := checkVertexCount(n); err != nil {
		return nil, err
	}
	for _, e := range edges {
		if int(e.U) >= n || int(e.V) >= n {
			return nil, fmt.Errorf("graph: edge (%d,%d) out of range for n=%d", e.U, e.V, n)
		}
	}

	arcs := make([]Edge, 0, len(edges)*2)
	for _, e := range edges {
		if e.U == e.V && !opt.KeepSelfLoops {
			continue
		}
		arcs = append(arcs, e)
		if e.U != e.V {
			arcs = append(arcs, Edge{e.V, e.U})
		}
	}

	sort.Slice(arcs, func(i, j int) bool {
		if arcs[i].U != arcs[j].U {
			return arcs[i].U < arcs[j].U
		}
		return arcs[i].V < arcs[j].V
	})

	if !opt.KeepParallelEdges {
		arcs = dedupArcs(arcs)
	}

	g := &Graph{
		offs: make([]int64, n+1),
		adj:  make([]uint32, len(arcs)),
		name: opt.Name,
	}
	for i, a := range arcs {
		g.offs[a.U+1]++
		g.adj[i] = a.V
	}
	for v := 0; v < n; v++ {
		g.offs[v+1] += g.offs[v]
	}
	return g, nil
}

// MustBuild is Build that panics on error; intended for generators and
// tests where inputs are constructed, not parsed.
func MustBuild(n int, edges []Edge, opt Options) *Graph {
	g, err := Build(n, edges, opt)
	if err != nil {
		panic(err)
	}
	return g
}

// checkVertexCount rejects a vertex count outside [0, MaxVertices].
func checkVertexCount(n int) error {
	if n < 0 {
		return errors.New("graph: negative vertex count")
	}
	if int64(n) > MaxVertices {
		return fmt.Errorf("graph: vertex count %d exceeds the 2^31 limit", n)
	}
	return nil
}

func dedupArcs(arcs []Edge) []Edge {
	out := arcs[:0]
	for i, a := range arcs {
		if i > 0 && a == arcs[i-1] {
			continue
		}
		out = append(out, a)
	}
	return out
}

// FromCSR wraps pre-built CSR arrays without copying. offs must have length
// n+1, be non-decreasing, start at 0, and end at len(adj); every adjacency
// entry must be < n, and every arc must have its reverse.
func FromCSR(offs []int64, adj []uint32, name string) (*Graph, error) {
	g := &Graph{offs: offs, adj: adj, name: name}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	return g, nil
}

// Validate checks the structural invariants of the CSR arrays.
func (g *Graph) Validate() error {
	if len(g.offs) == 0 {
		return errors.New("graph: empty offsets array")
	}
	if g.offs[0] != 0 {
		return fmt.Errorf("graph: offsets[0] = %d, want 0", g.offs[0])
	}
	n := len(g.offs) - 1
	if err := checkVertexCount(n); err != nil {
		return err
	}
	for v := 0; v < n; v++ {
		if g.offs[v+1] < g.offs[v] {
			return fmt.Errorf("graph: offsets decrease at vertex %d", v)
		}
	}
	if g.offs[n] != int64(len(g.adj)) {
		return fmt.Errorf("graph: offsets end at %d, adjacency has %d entries", g.offs[n], len(g.adj))
	}
	for i, w := range g.adj {
		if int(w) >= n {
			return fmt.Errorf("graph: adjacency entry %d = %d out of range (n=%d)", i, w, n)
		}
	}
	// Every arc needs its reverse. Neighbor lists are sorted by
	// construction, so each reverse lookup is a binary search.
	for u := 0; u < n; u++ {
		for _, v := range g.Neighbors(uint32(u)) {
			if !g.HasEdge(v, uint32(u)) {
				return fmt.Errorf("graph: missing reverse arc %d->%d", v, u)
			}
		}
	}
	return nil
}

// HasEdge reports whether the arc u→v exists. O(log deg(u)) thanks to
// sorted neighbor lists.
func (g *Graph) HasEdge(u, v uint32) bool {
	nb := g.Neighbors(u)
	i := sort.Search(len(nb), func(i int) bool { return nb[i] >= v })
	return i < len(nb) && nb[i] == v
}

// DegreeStats summarizes the degree distribution.
type DegreeStats struct {
	Min, Max int
	Mean     float64
	// Isolated counts degree-zero vertices.
	Isolated int
}

// Degrees computes degree statistics in one pass.
func (g *Graph) Degrees() DegreeStats {
	n := g.NumVertices()
	if n == 0 {
		return DegreeStats{}
	}
	st := DegreeStats{Min: g.Degree(0), Max: g.Degree(0)}
	total := int64(0)
	for v := 0; v < n; v++ {
		d := g.Degree(uint32(v))
		if d < st.Min {
			st.Min = d
		}
		if d > st.Max {
			st.Max = d
		}
		if d == 0 {
			st.Isolated++
		}
		total += int64(d)
	}
	st.Mean = float64(total) / float64(n)
	return st
}

// bfsLevels runs a plain BFS from root and returns (levels, reached,
// farthest vertex, eccentricity). Level -1 marks unreached vertices. This
// is deliberately private: the measured BFS kernels live in internal/bfs;
// this one only serves structural queries (diameter estimates,
// reachability).
func (g *Graph) bfsLevels(root uint32) (levels []int32, reached int, far uint32, ecc int32) {
	n := g.NumVertices()
	levels = make([]int32, n)
	for i := range levels {
		levels[i] = -1
	}
	q := make([]uint32, 0, n)
	levels[root] = 0
	q = append(q, root)
	far = root
	for head := 0; head < len(q); head++ {
		v := q[head]
		lv := levels[v]
		if lv > ecc {
			ecc = lv
			far = v
		}
		for _, w := range g.Neighbors(v) {
			if levels[w] < 0 {
				levels[w] = lv + 1
				q = append(q, w)
			}
		}
	}
	return levels, len(q), far, ecc
}

// Reached returns the number of vertices reachable from root (including
// root itself).
func (g *Graph) Reached(root uint32) int {
	_, r, _, _ := g.bfsLevels(root)
	return r
}

// IsConnected reports whether the graph is connected.
func (g *Graph) IsConnected() bool {
	n := g.NumVertices()
	if n == 0 {
		return true
	}
	return g.Reached(0) == n
}

// PseudoDiameter estimates the graph diameter with the standard
// double-sweep heuristic: BFS from root, then BFS again from the farthest
// vertex found. The result is a lower bound on the true diameter and is
// exact on trees. The paper's complexity analysis of SV is O(d·(|V|+|E|))
// in this d.
func (g *Graph) PseudoDiameter() int {
	n := g.NumVertices()
	if n == 0 {
		return 0
	}
	_, _, far, _ := g.bfsLevels(0)
	_, _, _, ecc := g.bfsLevels(far)
	return int(ecc)
}

// EdgeList materializes the logical edge list, one (u ≤ v)
// representative per edge.
func (g *Graph) EdgeList() []Edge {
	out := make([]Edge, 0, g.NumEdges())
	n := g.NumVertices()
	for u := 0; u < n; u++ {
		for _, v := range g.Neighbors(uint32(u)) {
			if uint32(u) <= v {
				out = append(out, Edge{uint32(u), v})
			}
		}
	}
	return out
}

// String implements fmt.Stringer with a compact summary.
func (g *Graph) String() string {
	name := g.name
	if name == "" {
		name = "graph"
	}
	return fmt.Sprintf("%s{undirected, |V|=%d, |E|=%d}", name, g.NumVertices(), g.NumEdges())
}
