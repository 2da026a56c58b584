package graph

import (
	"strconv"
	"testing"
	"testing/quick"

	"bagraph/internal/xrand"
)

func path5() *Graph {
	return MustBuild(5, []Edge{{0, 1}, {1, 2}, {2, 3}, {3, 4}}, Options{Name: "path5"})
}

func TestBuildUndirectedSymmetrizes(t *testing.T) {
	g := path5()
	if g.NumVertices() != 5 || g.NumEdges() != 4 || g.NumArcs() != 8 {
		t.Fatalf("path5: V=%d E=%d arcs=%d", g.NumVertices(), g.NumEdges(), g.NumArcs())
	}
	if !g.HasEdge(1, 0) || !g.HasEdge(0, 1) {
		t.Fatal("missing symmetric arcs")
	}
	if err := g.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

func TestBuildRejectsOutOfRange(t *testing.T) {
	if _, err := Build(3, []Edge{{0, 3}}, Options{}); err == nil {
		t.Fatal("Build accepted out-of-range endpoint")
	}
	if _, err := Build(-1, nil, Options{}); err == nil {
		t.Fatal("Build accepted negative n")
	}
}

// TestBuildRejectsTooManyVertices: a count past MaxVertices is refused
// before the offsets array (8 bytes per vertex) is allocated.
func TestBuildRejectsTooManyVertices(t *testing.T) {
	if strconv.IntSize < 64 {
		t.Skip("an int cannot exceed MaxVertices")
	}
	limit := int64(MaxVertices)
	tooMany := int(limit + 1)
	if _, err := Build(tooMany, nil, Options{}); err == nil {
		t.Fatal("Build accepted MaxVertices+1 vertices")
	}
	if _, err := BuildWeighted(tooMany, nil, ""); err == nil {
		t.Fatal("BuildWeighted accepted MaxVertices+1 vertices")
	}
}

func TestBuildDropsSelfLoopsAndDuplicates(t *testing.T) {
	g := MustBuild(3, []Edge{{0, 0}, {0, 1}, {0, 1}, {1, 0}}, Options{})
	if g.NumArcs() != 2 {
		t.Fatalf("arcs = %d, want 2 (one undirected edge)", g.NumArcs())
	}
	if g.Degree(0) != 1 || g.Degree(1) != 1 || g.Degree(2) != 0 {
		t.Fatalf("degrees = %d,%d,%d", g.Degree(0), g.Degree(1), g.Degree(2))
	}
}

func TestBuildKeepsSelfLoopsWhenAsked(t *testing.T) {
	g := MustBuild(2, []Edge{{0, 0}, {0, 1}}, Options{KeepSelfLoops: true})
	if !g.HasEdge(0, 0) {
		t.Fatal("self loop dropped despite KeepSelfLoops")
	}
	_ = g.NumEdges()
}

func TestBuildKeepsParallelEdgesWhenAsked(t *testing.T) {
	g := MustBuild(2, []Edge{{0, 1}, {0, 1}}, Options{KeepParallelEdges: true})
	if g.Degree(0) != 2 {
		t.Fatalf("Degree(0) = %d, want 2 parallel arcs", g.Degree(0))
	}
}

func TestNeighborsSorted(t *testing.T) {
	g := MustBuild(6, []Edge{{0, 5}, {0, 2}, {0, 4}, {0, 1}}, Options{})
	nb := g.Neighbors(0)
	for i := 1; i < len(nb); i++ {
		if nb[i-1] >= nb[i] {
			t.Fatalf("neighbors not sorted: %v", nb)
		}
	}
}

func TestDegreesStats(t *testing.T) {
	g := MustBuild(4, []Edge{{0, 1}, {0, 2}, {0, 3}}, Options{}) // star
	st := g.Degrees()
	if st.Max != 3 || st.Min != 1 || st.Isolated != 0 {
		t.Fatalf("star stats = %+v", st)
	}
	if st.Mean != 6.0/4.0 {
		t.Fatalf("mean = %v", st.Mean)
	}

	g2 := MustBuild(3, nil, Options{})
	st2 := g2.Degrees()
	if st2.Isolated != 3 || st2.Max != 0 {
		t.Fatalf("empty graph stats = %+v", st2)
	}
}

func TestPseudoDiameterOnPath(t *testing.T) {
	if d := path5().PseudoDiameter(); d != 4 {
		t.Fatalf("path5 pseudo-diameter = %d, want 4", d)
	}
}

func TestPseudoDiameterCycle(t *testing.T) {
	// 6-cycle: diameter 3.
	g := MustBuild(6, []Edge{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 0}}, Options{})
	if d := g.PseudoDiameter(); d != 3 {
		t.Fatalf("cycle6 pseudo-diameter = %d, want 3", d)
	}
}

func TestIsConnected(t *testing.T) {
	if !path5().IsConnected() {
		t.Fatal("path5 reported disconnected")
	}
	g := MustBuild(4, []Edge{{0, 1}, {2, 3}}, Options{})
	if g.IsConnected() {
		t.Fatal("two components reported connected")
	}
	if g.Reached(0) != 2 || g.Reached(2) != 2 {
		t.Fatalf("Reached = %d, %d", g.Reached(0), g.Reached(2))
	}
}

func TestFromCSRValidates(t *testing.T) {
	// Valid 2-cycle.
	g, err := FromCSR([]int64{0, 1, 2}, []uint32{1, 0}, "tiny")
	if err != nil {
		t.Fatalf("FromCSR valid input: %v", err)
	}
	if g.NumEdges() != 1 {
		t.Fatalf("edges = %d", g.NumEdges())
	}

	cases := []struct {
		name string
		offs []int64
		adj  []uint32
	}{
		{"bad start", []int64{1, 2}, []uint32{0}},
		{"decreasing", []int64{0, 2, 1}, []uint32{0, 1}},
		{"bad end", []int64{0, 1}, []uint32{0, 0}},
		{"oob entry", []int64{0, 1}, []uint32{7}},
		{"asymmetric", []int64{0, 1, 1}, []uint32{1}},
	}
	for _, c := range cases {
		if _, err := FromCSR(c.offs, c.adj, c.name); err == nil {
			t.Errorf("FromCSR accepted %s", c.name)
		}
	}
}

func TestRelabelPreservesStructure(t *testing.T) {
	g := path5()
	perm := []uint32{4, 3, 2, 1, 0}
	h, err := g.Permute(perm)
	if err != nil {
		t.Fatalf("Permute: %v", err)
	}
	if h.NumEdges() != g.NumEdges() {
		t.Fatalf("edge count changed: %d vs %d", h.NumEdges(), g.NumEdges())
	}
	// path 0-1-2-3-4 relabeled by reversal is still the same path.
	if !h.HasEdge(4, 3) || !h.HasEdge(0, 1) {
		t.Fatal("relabeled path lost expected edges")
	}
	if h.PseudoDiameter() != 4 {
		t.Fatalf("relabeled diameter = %d", h.PseudoDiameter())
	}
	if h.Name() != g.Name() {
		t.Fatalf("relabeled name = %q, want %q", h.Name(), g.Name())
	}
	if err := h.Validate(); err != nil {
		t.Fatalf("relabeled graph invalid: %v", err)
	}
}

func TestRelabelRejectsBadPerm(t *testing.T) {
	g := path5()
	if _, err := g.Permute([]uint32{0, 1, 2}); err == nil {
		t.Fatal("accepted short perm")
	}
	if _, err := g.Permute([]uint32{0, 0, 1, 2, 3}); err == nil {
		t.Fatal("accepted non-permutation")
	}
}

func TestEdgeListRoundTrip(t *testing.T) {
	f := func(seed uint64) bool {
		r := xrand.New(seed)
		n := 2 + int(seed%40)
		m := r.Intn(3 * n)
		edges := make([]Edge, 0, m)
		for i := 0; i < m; i++ {
			u, v := uint32(r.Intn(n)), uint32(r.Intn(n))
			edges = append(edges, Edge{u, v})
		}
		g := MustBuild(n, edges, Options{})
		// Rebuild from the extracted edge list; must be identical.
		h := MustBuild(n, g.EdgeList(), Options{})
		if g.NumArcs() != h.NumArcs() {
			return false
		}
		for v := 0; v < n; v++ {
			a, b := g.Neighbors(uint32(v)), h.Neighbors(uint32(v))
			if len(a) != len(b) {
				return false
			}
			for i := range a {
				if a[i] != b[i] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestStringSummary(t *testing.T) {
	s := path5().String()
	if s == "" {
		t.Fatal("empty String()")
	}
	g := MustBuild(1, nil, Options{})
	if g.String() == "" {
		t.Fatal("empty String() for unnamed graph")
	}
}

func TestValidateSymmetryEnforced(t *testing.T) {
	// A directly-constructed asymmetric CSR must fail Validate.
	g := &Graph{offs: []int64{0, 1, 1}, adj: []uint32{1}}
	if err := g.Validate(); err == nil {
		t.Fatal("asymmetric graph passed Validate")
	}
}
