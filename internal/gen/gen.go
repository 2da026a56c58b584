// Package gen provides deterministic synthetic graph generators.
//
// The paper evaluates on five DIMACS-10 graphs (Table 2) spanning three
// structure classes: FEM matrices (audikw1, ldoor), a partitioned mesh
// (auto), and social/collaboration networks (coAuthorsDBLP,
// cond-mat-2005). The proprietary inputs are not redistributable, so the
// corpus package composes these generators into stand-ins of the same
// class; see internal/corpus. Every generator takes an explicit seed and is
// bit-reproducible.
package gen

import (
	"fmt"

	"bagraph/internal/graph"
	"bagraph/internal/xrand"
)

// Path returns the path graph 0-1-…-(n-1).
func Path(n int) *graph.Graph {
	edges := make([]graph.Edge, 0, n-1)
	for i := 0; i+1 < n; i++ {
		edges = append(edges, graph.Edge{U: uint32(i), V: uint32(i + 1)})
	}
	return graph.MustBuild(n, edges, graph.Options{Name: fmt.Sprintf("path%d", n)})
}

// Cycle returns the n-cycle.
func Cycle(n int) *graph.Graph {
	edges := make([]graph.Edge, 0, n)
	for i := 0; i < n; i++ {
		edges = append(edges, graph.Edge{U: uint32(i), V: uint32((i + 1) % n)})
	}
	return graph.MustBuild(n, edges, graph.Options{Name: fmt.Sprintf("cycle%d", n)})
}

// Star returns the star with center 0 and n-1 leaves.
func Star(n int) *graph.Graph {
	edges := make([]graph.Edge, 0, n-1)
	for i := 1; i < n; i++ {
		edges = append(edges, graph.Edge{U: 0, V: uint32(i)})
	}
	return graph.MustBuild(n, edges, graph.Options{Name: fmt.Sprintf("star%d", n)})
}

// Complete returns K_n.
func Complete(n int) *graph.Graph {
	edges := make([]graph.Edge, 0, n*(n-1)/2)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			edges = append(edges, graph.Edge{U: uint32(i), V: uint32(j)})
		}
	}
	return graph.MustBuild(n, edges, graph.Options{Name: fmt.Sprintf("K%d", n)})
}

// GNM returns an Erdős–Rényi G(n, m) graph: m distinct undirected edges
// chosen uniformly without replacement (self-loops excluded).
func GNM(n int, m int64, seed uint64) *graph.Graph {
	maxEdges := int64(n) * int64(n-1) / 2
	if m > maxEdges {
		panic(fmt.Sprintf("gen: GNM m=%d exceeds max %d for n=%d", m, maxEdges, n))
	}
	r := xrand.New(seed)
	seen := make(map[uint64]struct{}, m)
	edges := make([]graph.Edge, 0, m)
	for int64(len(edges)) < m {
		u := uint32(r.Intn(n))
		v := uint32(r.Intn(n))
		if u == v {
			continue
		}
		if u > v {
			u, v = v, u
		}
		key := uint64(u)<<32 | uint64(v)
		if _, dup := seen[key]; dup {
			continue
		}
		seen[key] = struct{}{}
		edges = append(edges, graph.Edge{U: u, V: v})
	}
	return graph.MustBuild(n, edges, graph.Options{Name: fmt.Sprintf("gnm-%d-%d", n, m)})
}

// RMATParams are the recursive-matrix quadrant probabilities. They must be
// positive and sum to 1 (within rounding).
type RMATParams struct {
	A, B, C, D float64
}

// DefaultRMAT is the Graph500-style parameterization producing skewed,
// community-structured graphs.
var DefaultRMAT = RMATParams{A: 0.57, B: 0.19, C: 0.19, D: 0.05}

// RMAT generates an undirected R-MAT graph with 2^scale vertices and
// approximately edgeFactor·2^scale edges (duplicates and self-loops are
// dropped by the CSR builder, so the realized count is slightly lower).
func RMAT(scale int, edgeFactor int, p RMATParams, seed uint64) *graph.Graph {
	if sum := p.A + p.B + p.C + p.D; sum < 0.999 || sum > 1.001 {
		panic(fmt.Sprintf("gen: RMAT params sum to %v, want 1", sum))
	}
	n := 1 << uint(scale)
	m := int64(edgeFactor) * int64(n)
	r := xrand.New(seed)
	edges := make([]graph.Edge, 0, m)
	for i := int64(0); i < m; i++ {
		u, v := 0, 0
		for bit := 0; bit < scale; bit++ {
			f := r.Float64()
			switch {
			case f < p.A:
				// upper-left quadrant: no bits set
			case f < p.A+p.B:
				v |= 1 << uint(bit)
			case f < p.A+p.B+p.C:
				u |= 1 << uint(bit)
			default:
				u |= 1 << uint(bit)
				v |= 1 << uint(bit)
			}
		}
		edges = append(edges, graph.Edge{U: uint32(u), V: uint32(v)})
	}
	return graph.MustBuild(n, edges, graph.Options{Name: fmt.Sprintf("rmat-s%d-e%d", scale, edgeFactor)})
}

// BarabasiAlbert generates a preferential-attachment graph: vertices arrive
// one at a time and connect k edges to existing vertices with probability
// proportional to current degree. This is the classic generative model for
// collaboration networks (power-law degree tail, low diameter), the class
// of coAuthorsDBLP and cond-mat-2005 in the paper's Table 2.
func BarabasiAlbert(n, k int, seed uint64) *graph.Graph {
	if k < 1 || n < k+1 {
		panic("gen: BarabasiAlbert requires k >= 1 and n > k")
	}
	r := xrand.New(seed)
	// endpoint list: each edge contributes both endpoints, so sampling a
	// uniform element of this list samples vertices ∝ degree.
	endpoints := make([]uint32, 0, 2*n*k)
	edges := make([]graph.Edge, 0, n*k)
	// Seed clique over the first k+1 vertices.
	for i := 0; i <= k; i++ {
		for j := i + 1; j <= k; j++ {
			edges = append(edges, graph.Edge{U: uint32(i), V: uint32(j)})
			endpoints = append(endpoints, uint32(i), uint32(j))
		}
	}
	// chosen is a small slice with a linear dedup scan, not a map:
	// ranging over a map would append endpoints in randomized order and
	// silently break the generator's bit-reproducibility contract (the
	// endpoint order feeds every later degree-proportional draw).
	chosen := make([]uint32, 0, k)
	for v := k + 1; v < n; v++ {
		chosen = chosen[:0]
		for len(chosen) < k {
			t := endpoints[r.Intn(len(endpoints))]
			dup := false
			for _, c := range chosen {
				if c == t {
					dup = true
					break
				}
			}
			if !dup {
				chosen = append(chosen, t)
			}
		}
		for _, t := range chosen {
			edges = append(edges, graph.Edge{U: uint32(v), V: t})
			endpoints = append(endpoints, uint32(v), t)
		}
	}
	return graph.MustBuild(n, edges, graph.Options{Name: fmt.Sprintf("ba-%d-%d", n, k)})
}

// WattsStrogatz generates a small-world graph: an n-cycle where every
// vertex connects to its k nearest neighbors on each side, with each edge
// rewired to a random endpoint with probability beta.
func WattsStrogatz(n, k int, beta float64, seed uint64) *graph.Graph {
	if k < 1 || n < 2*k+1 {
		panic("gen: WattsStrogatz requires n > 2k")
	}
	r := xrand.New(seed)
	edges := make([]graph.Edge, 0, n*k)
	for i := 0; i < n; i++ {
		for j := 1; j <= k; j++ {
			u, v := uint32(i), uint32((i+j)%n)
			if r.Float64() < beta {
				// Rewire the far endpoint.
				for {
					w := uint32(r.Intn(n))
					if w != u {
						v = w
						break
					}
				}
			}
			edges = append(edges, graph.Edge{U: u, V: v})
		}
	}
	return graph.MustBuild(n, edges, graph.Options{Name: fmt.Sprintf("ws-%d-%d", n, k)})
}

// Grid2D generates a rows×cols lattice with the 4-neighbor (von Neumann)
// stencil, plus diagonals when diag is true (8-neighbor Moore stencil).
func Grid2D(rows, cols int, diag bool) *graph.Graph {
	n := rows * cols
	idx := func(r, c int) uint32 { return uint32(r*cols + c) }
	edges := make([]graph.Edge, 0, 4*n)
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if c+1 < cols {
				edges = append(edges, graph.Edge{U: idx(r, c), V: idx(r, c+1)})
			}
			if r+1 < rows {
				edges = append(edges, graph.Edge{U: idx(r, c), V: idx(r+1, c)})
			}
			if diag && r+1 < rows {
				if c+1 < cols {
					edges = append(edges, graph.Edge{U: idx(r, c), V: idx(r+1, c+1)})
				}
				if c > 0 {
					edges = append(edges, graph.Edge{U: idx(r, c), V: idx(r+1, c-1)})
				}
			}
		}
	}
	name := fmt.Sprintf("grid2d-%dx%d", rows, cols)
	return graph.MustBuild(n, edges, graph.Options{Name: name})
}

// Grid3D generates an nx×ny×nz lattice with a box stencil of the given
// radius: vertices are adjacent when every coordinate differs by at most
// radius (and they are distinct). Radius 1 is the 26-point stencil of
// trilinear finite elements — the structure class of audikw1 and ldoor in
// the paper's Table 2 (sparse matrices from 3-D FEM discretizations with
// high, nearly-uniform degree and large diameter).
func Grid3D(nx, ny, nz, radius int) *graph.Graph {
	if radius < 1 {
		panic("gen: Grid3D radius must be >= 1")
	}
	n := nx * ny * nz
	idx := func(x, y, z int) uint32 { return uint32((z*ny+y)*nx + x) }
	edges := make([]graph.Edge, 0, n*((2*radius+1)*(2*radius+1)*(2*radius+1)-1)/2)
	for z := 0; z < nz; z++ {
		for y := 0; y < ny; y++ {
			for x := 0; x < nx; x++ {
				u := idx(x, y, z)
				// Enumerate only the "forward" half of the stencil so each
				// undirected edge is emitted once.
				for dz := 0; dz <= radius; dz++ {
					for dy := -radius; dy <= radius; dy++ {
						for dx := -radius; dx <= radius; dx++ {
							if dz == 0 && (dy < 0 || (dy == 0 && dx <= 0)) {
								continue
							}
							X, Y, Z := x+dx, y+dy, z+dz
							if X < 0 || X >= nx || Y < 0 || Y >= ny || Z >= nz {
								continue
							}
							edges = append(edges, graph.Edge{U: u, V: idx(X, Y, Z)})
						}
					}
				}
			}
		}
	}
	name := fmt.Sprintf("grid3d-%dx%dx%d-r%d", nx, ny, nz, radius)
	return graph.MustBuild(n, edges, graph.Options{Name: name})
}

// Community generates a relaxed-caveman graph: nc communities of size cs
// built as dense G(cs, p·max) subgraphs, chained in a ring, plus extra
// random inter-community edges. A simple model of clustered collaboration
// networks with high clustering coefficient.
func Community(nc, cs int, intraP float64, interEdges int, seed uint64) *graph.Graph {
	r := xrand.New(seed)
	n := nc * cs
	edges := make([]graph.Edge, 0, n*4)
	for c := 0; c < nc; c++ {
		base := c * cs
		for i := 0; i < cs; i++ {
			for j := i + 1; j < cs; j++ {
				if r.Float64() < intraP {
					edges = append(edges, graph.Edge{U: uint32(base + i), V: uint32(base + j)})
				}
			}
		}
		// Ring link to the next community keeps the graph connected.
		next := ((c + 1) % nc) * cs
		edges = append(edges, graph.Edge{U: uint32(base), V: uint32(next)})
	}
	for i := 0; i < interEdges; i++ {
		u := uint32(r.Intn(n))
		v := uint32(r.Intn(n))
		if u != v {
			edges = append(edges, graph.Edge{U: u, V: v})
		}
	}
	name := fmt.Sprintf("community-%dx%d", nc, cs)
	return graph.MustBuild(n, edges, graph.Options{Name: name})
}

// Disconnected returns a graph made of k disjoint copies of g, for
// exercising multi-component connected-components behaviour.
func Disconnected(g *graph.Graph, k int) *graph.Graph {
	if k < 1 {
		panic("gen: Disconnected requires k >= 1")
	}
	n := g.NumVertices()
	src := g.EdgeList()
	edges := make([]graph.Edge, 0, len(src)*k)
	for c := 0; c < k; c++ {
		off := uint32(c * n)
		for _, e := range src {
			edges = append(edges, graph.Edge{U: e.U + off, V: e.V + off})
		}
	}
	name := fmt.Sprintf("%s-x%d", g.Name(), k)
	return graph.MustBuild(n*k, edges, graph.Options{Name: name})
}
