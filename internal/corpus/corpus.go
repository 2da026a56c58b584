// Package corpus provides the experimental graph corpus: synthetic
// stand-ins for the five DIMACS-10 graphs of the paper's Table 2.
//
//	Name            Type           |V|        |E|
//	audikw1         Matrix         943,695    38,354,076
//	auto            Partitioning   448,695    3,314,611
//	coAuthorsDBLP   Collaboration  299,067    977,676
//	cond-mat-2005   Clustering     40,421     175,691
//	ldoor           Matrix         952,203    22,785,136
//
// The original files are not redistributable with this repository, so
// each dataset is generated to match its structure class and mean degree:
// the two FEM matrices become 3-D box-stencil lattices with the matching
// stencil width, "auto" becomes a face+edge-diagonal partitioning mesh,
// and the two social networks become preferential-attachment graphs with
// the matching attachment count. A scale parameter shrinks |V| while
// preserving degree structure, because the per-iteration branch behaviour
// the paper studies depends on structure, not absolute size.
//
// If the real METIS files are available locally, load them with
// internal/metis instead; every kernel and experiment accepts any
// graph.Graph.
package corpus

import (
	"fmt"
	"math"
	"sort"

	"bagraph/internal/gen"
	"bagraph/internal/graph"
	"bagraph/internal/xrand"
)

// Dataset describes one Table 2 graph and how to generate its stand-in.
type Dataset struct {
	// Name is the DIMACS-10 name used in the paper.
	Name string
	// Class is the paper's "Graph Type" column.
	Class string
	// PaperV, PaperE are the |V| and |E| reported in Table 2.
	PaperV, PaperE int64
	// build generates the stand-in at the given scale.
	build func(scale float64, seed uint64) *graph.Graph
}

// Generate builds the stand-in graph at the given scale in (0, 1] with
// the given seed. Scale 1 approximates the paper's sizes; smaller scales
// shrink |V| proportionally.
func (d Dataset) Generate(scale float64, seed uint64) *graph.Graph {
	if scale <= 0 || scale > 1 {
		panic(fmt.Sprintf("corpus: scale %v out of (0, 1]", scale))
	}
	g := d.build(scale, seed)
	g.SetName(d.Name)
	return g
}

// cube returns the lattice side for a target vertex count.
func cube(targetV float64) int {
	side := int(math.Round(math.Cbrt(targetV)))
	if side < 3 {
		side = 3
	}
	return side
}

// shuffled relabels g by a seeded random permutation. The DIMACS mesh
// files carry application-specific node numberings, and that ordering is
// what the paper's per-iteration SV behaviour depends on: audikw1 (a
// bandwidth-reduced FEM matrix) converges in ~4 passes while ldoor needs
// ~60 (Fig. 3's x-axes). A raster-numbered lattice behaves like the
// former; permuting reproduces the latter and restores the unpredictable
// early-iteration comparison branch the paper measures.
func shuffled(g *graph.Graph, seed uint64) *graph.Graph {
	return blockShuffled(g, seed, g.NumVertices())
}

// blockShuffled relabels g by a random permutation applied within
// consecutive windows of the given size. window = |V| is a full shuffle;
// a window of one lattice plane models a bandwidth-reduced ordering:
// locally irregular (the comparison branch stays unpredictable) but
// globally banded (label propagation still converges in few passes, like
// audikw1's ~4 in the paper).
func blockShuffled(g *graph.Graph, seed uint64, window int) *graph.Graph {
	if window < 1 {
		panic("corpus: window must be positive")
	}
	r := xrand.New(seed)
	n := g.NumVertices()
	perm := make([]uint32, n)
	for i := range perm {
		perm[i] = uint32(i)
	}
	for base := 0; base < n; base += window {
		end := base + window
		if end > n {
			end = n
		}
		blk := perm[base:end]
		r.Shuffle(len(blk), func(i, j int) { blk[i], blk[j] = blk[j], blk[i] })
	}
	h, err := g.Permute(perm)
	if err != nil {
		panic(err)
	}
	return h
}

// All returns the five datasets in Table 2's row order.
func All() []Dataset {
	return []Dataset{
		{
			Name: "audikw1", Class: "Matrix", PaperV: 943_695, PaperE: 38_354_076,
			build: func(scale float64, seed uint64) *graph.Graph {
				// Automotive crankshaft FEM: mean degree ≈ 81 →
				// (2,2,1)-box stencil (74 interior neighbors). audikw1 is
				// bandwidth-ordered (SV converges in ~4 passes in the
				// paper), so shuffle only within 2-plane windows: locally
				// irregular, globally banded.
				s := cube(943_695 * scale)
				g := gen.Grid3DStencil(s, s, s, gen.BoxStencil(2, 2, 1), "audikw1")
				return blockShuffled(g, seed^0xaad1, 4*s*s)
			},
		},
		{
			Name: "auto", Class: "Partitioning", PaperV: 448_695, PaperE: 3_314_611,
			build: func(scale float64, seed uint64) *graph.Graph {
				// 3-D tetrahedral partitioning mesh: mean degree ≈ 14.8 →
				// face + edge-diagonal stencil (14 interior neighbors),
				// with a permuted node numbering (partitioning inputs are
				// not bandwidth-ordered).
				s := cube(448_695 * scale)
				return shuffled(gen.Grid3DStencil(s, s, s, gen.FaceEdgeStencil(), "auto"), seed^0xa070)
			},
		},
		{
			Name: "coAuthorsDBLP", Class: "Collaboration", PaperV: 299_067, PaperE: 977_676,
			build: func(scale float64, seed uint64) *graph.Graph {
				// Collaboration network: mean degree ≈ 6.5 →
				// preferential attachment with k=3.
				n := int(299_067 * scale)
				if n < 8 {
					n = 8
				}
				return gen.BarabasiAlbert(n, 3, seed^0xdb1)
			},
		},
		{
			Name: "cond-mat-2005", Class: "Clustering", PaperV: 40_421, PaperE: 175_691,
			build: func(scale float64, seed uint64) *graph.Graph {
				// Condensed-matter collaboration network: mean degree
				// ≈ 8.7 → preferential attachment with k=4.
				n := int(40_421 * scale)
				if n < 10 {
					n = 10
				}
				return gen.BarabasiAlbert(n, 4, seed^0xc0d)
			},
		},
		{
			Name: "ldoor", Class: "Matrix", PaperV: 952_203, PaperE: 22_785_136,
			build: func(scale float64, seed uint64) *graph.Graph {
				// Large-door FEM: mean degree ≈ 48 → (2,1,1)-box stencil
				// (44 interior neighbors), with a permuted node numbering
				// (ldoor's ordering makes SV converge slowly — ~60 passes
				// in the paper's Fig. 3 — unlike raster order).
				s := cube(952_203 * scale)
				return shuffled(gen.Grid3DStencil(s, s, s, gen.BoxStencil(2, 1, 1), "ldoor"), seed^0x1d00)
			},
		},
	}
}

// Names returns the dataset names in Table 2 order.
func Names() []string {
	ds := All()
	names := make([]string, len(ds))
	for i, d := range ds {
		names[i] = d.Name
	}
	return names
}

// ByName looks up a dataset.
func ByName(name string) (Dataset, bool) {
	for _, d := range All() {
		if d.Name == name {
			return d, true
		}
	}
	return Dataset{}, false
}

// Subset returns the datasets with the given names, preserving Table 2
// order; unknown names produce an error.
func Subset(names []string) ([]Dataset, error) {
	want := make(map[string]bool, len(names))
	for _, n := range names {
		if _, ok := ByName(n); !ok {
			known := Names()
			sort.Strings(known)
			return nil, fmt.Errorf("corpus: unknown dataset %q (known: %v)", n, known)
		}
		want[n] = true
	}
	var out []Dataset
	for _, d := range All() {
		if want[d.Name] {
			out = append(out, d)
		}
	}
	return out, nil
}
