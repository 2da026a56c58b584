package metis

import (
	"bytes"
	"strings"
	"testing"

	"bagraph/internal/corpus"
	"bagraph/internal/gen"
	"bagraph/internal/graph"
	"bagraph/internal/testutil"
)

func TestReadSimple(t *testing.T) {
	// Triangle plus a pendant: 4 vertices, 4 edges.
	input := `% a comment
4 4
2 3
1 3 4
1 2
2
`
	g, err := Read(strings.NewReader(input))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 4 || g.NumEdges() != 4 {
		t.Fatalf("V=%d E=%d", g.NumVertices(), g.NumEdges())
	}
	if !g.HasEdge(0, 1) || !g.HasEdge(1, 3) || g.HasEdge(0, 3) {
		t.Fatal("edges wrong")
	}
}

func TestReadIsolatedVertexEmptyLine(t *testing.T) {
	input := "3 1\n2\n1\n\n"
	g, err := Read(strings.NewReader(input))
	if err != nil {
		t.Fatal(err)
	}
	if g.Degree(2) != 0 {
		t.Fatalf("vertex 3 degree = %d", g.Degree(2))
	}
}

func TestReadUnweightedFmtCode(t *testing.T) {
	input := "2 1 0\n2\n1\n"
	if _, err := Read(strings.NewReader(input)); err != nil {
		t.Fatalf("fmt code 0 rejected: %v", err)
	}
}

func TestReadErrors(t *testing.T) {
	cases := map[string]string{
		"empty":           "",
		"bad header":      "x y\n",
		"one field":       "4\n",
		"vertex weights":  "2 1 11\n2 5\n1 5\n",
		"edge weights":    "2 1 1\n2 5\n1 5\n",
		"neighbor oob":    "2 1\n3\n1\n",
		"neighbor zero":   "2 1\n0\n1\n",
		"bad token":       "2 1\nfoo\n1\n",
		"missing lines":   "3 2\n2\n",
		"edge count lies": "3 5\n2\n1 3\n2\n",
		"negative n":      "-1 0\n",
	}
	for name, input := range cases {
		if _, err := Read(strings.NewReader(input)); err == nil {
			t.Errorf("%s: accepted %q", name, input)
		}
	}
}

func TestReadWeightedSimple(t *testing.T) {
	// Triangle with distinct weights, format code "1".
	input := `% weighted triangle
3 3 1
2 5 3 9
1 5 3 2
1 9 2 2
`
	g, err := ReadWeighted(strings.NewReader(input))
	if err != nil {
		t.Fatal(err)
	}
	if !g.HasWeights {
		t.Fatal("explicit weights not reported")
	}
	if g.NumVertices() != 3 || g.NumEdges() != 3 {
		t.Fatalf("V=%d E=%d", g.NumVertices(), g.NumEdges())
	}
	adj, ws := g.NeighborWeights(0)
	want := map[uint32]uint32{1: 5, 2: 9}
	for i, u := range adj {
		if ws[i] != want[u] {
			t.Fatalf("weight(0,%d) = %d, want %d", u, ws[i], want[u])
		}
	}
}

func TestReadWeightedUnweightedFile(t *testing.T) {
	// Unweighted input parses with unit weights, ready for SSSP.
	input := "2 1\n2\n1\n"
	g, err := ReadWeighted(strings.NewReader(input))
	if err != nil {
		t.Fatal(err)
	}
	if g.HasWeights {
		t.Fatal("unit weights reported as explicit")
	}
	for _, w := range g.ArcWeights() {
		if w != 1 {
			t.Fatalf("unit weight = %d", w)
		}
	}
}

func TestReadWeightedErrors(t *testing.T) {
	cases := map[string]string{
		"odd tokens":        "2 1 1\n2 5 9\n1 5\n",
		"bad weight":        "2 1 1\n2 x\n1 5\n",
		"negative weight":   "2 1 1\n2 -3\n1 -3\n",
		"asymmetric weight": "2 1 1\n2 5\n1 6\n",
		"vertex weights":    "2 1 011\n7 2 5\n7 1 5\n",
		"vertex sizes":      "2 1 101\n2 5\n1 5\n",
		"bad format code":   "2 1 2\n2\n1\n",
		"long format code":  "2 1 0001\n2\n1\n",
		"ncon field":        "2 1 1 3\n2 5\n1 5\n",
		"truncated":         "3 2 1\n2 4\n",
		"edge count lies":   "3 1 1\n2 4\n1 4 3 6\n2 6\n",
	}
	for name, input := range cases {
		if _, err := ReadWeighted(strings.NewReader(input)); err == nil {
			t.Errorf("%s: accepted %q", name, input)
		}
	}
}

// TestWeightedRoundTrip drives WriteWeighted→ReadWeighted equality:
// structure, weights, and the explicit-weights marker must survive.
func TestWeightedRoundTrip(t *testing.T) {
	graphs := []*graph.Weighted{
		testutil.RandomWeighted(40, 90, 9, 3),
		testutil.RandomWeighted(120, 500, 1000, 4),
		testutil.AttachHashWeights(t, gen.Grid2D(6, 7, true), 50, 5),
		graph.MustBuildWeighted(5, []graph.WeightedEdge{{U: 0, V: 1, W: 7}}, "mostly-isolated"),
		graph.MustBuildWeighted(3, nil, "edgeless"),
	}
	for _, g := range graphs {
		var buf bytes.Buffer
		if err := WriteWeighted(&buf, g); err != nil {
			t.Fatalf("%s: write: %v", g, err)
		}
		h, err := ReadWeighted(&buf)
		if err != nil {
			t.Fatalf("%s: read back: %v", g, err)
		}
		if g.NumEdges() > 0 && !h.HasWeights {
			t.Fatalf("%s: weights lost in round trip", g)
		}
		if h.NumVertices() != g.NumVertices() || h.NumArcs() != g.NumArcs() {
			t.Fatalf("%s: round trip changed size", g)
		}
		for v := 0; v < g.NumVertices(); v++ {
			a, aw := g.NeighborWeights(uint32(v))
			b, bw := h.NeighborWeights(uint32(v))
			if len(a) != len(b) {
				t.Fatalf("%s: vertex %d degree changed", g, v)
			}
			for i := range a {
				if a[i] != b[i] || aw[i] != bw[i] {
					t.Fatalf("%s: vertex %d arc %d changed: (%d,%d) -> (%d,%d)",
						g, v, i, a[i], aw[i], b[i], bw[i])
				}
			}
		}
	}
}

// TestWeightedRoundTripThroughUnweightedRead pins the split contract:
// a weighted file is rejected by Read but its structure matches what
// ReadWeighted sees.
func TestWeightedRoundTripThroughUnweightedRead(t *testing.T) {
	g := testutil.RandomWeighted(30, 60, 5, 9)
	var buf bytes.Buffer
	if err := WriteWeighted(&buf, g); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	if _, err := Read(bytes.NewReader(data)); err == nil {
		t.Fatal("Read accepted a weighted file")
	}
	h, err := ReadWeighted(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if h.NumArcs() != g.NumArcs() {
		t.Fatalf("arcs %d -> %d", g.NumArcs(), h.NumArcs())
	}
}

func TestRoundTrip(t *testing.T) {
	graphs := []*graph.Graph{
		gen.Path(12),
		gen.Star(9),
		gen.Grid2D(4, 5, true),
		gen.GNM(40, 90, 3),
		graph.MustBuild(5, []graph.Edge{{U: 0, V: 1}}, graph.Options{Name: "mostly-isolated"}),
	}
	for _, g := range graphs {
		var buf bytes.Buffer
		if err := Write(&buf, g); err != nil {
			t.Fatalf("%s: write: %v", g, err)
		}
		h, err := Read(&buf)
		if err != nil {
			t.Fatalf("%s: read back: %v", g, err)
		}
		if h.NumVertices() != g.NumVertices() || h.NumArcs() != g.NumArcs() {
			t.Fatalf("%s: round trip changed size", g)
		}
		for v := 0; v < g.NumVertices(); v++ {
			a, b := g.Neighbors(uint32(v)), h.Neighbors(uint32(v))
			if len(a) != len(b) {
				t.Fatalf("%s: vertex %d degree changed", g, v)
			}
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("%s: vertex %d adjacency changed", g, v)
				}
			}
		}
	}
}

func TestWriteEmitsNameComment(t *testing.T) {
	g := gen.Path(3)
	var buf bytes.Buffer
	if err := Write(&buf, g); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(buf.String(), "% path3\n") {
		t.Fatalf("output missing name comment: %q", buf.String())
	}
}

// TestRoundTripCorpusShapes drives Write→Read equality on the corpus
// stand-ins — skewed preferential-attachment and stencil-mesh shapes,
// much larger than the toy graphs above — asserting full edge-list
// equality and name preservation through the comment header.
func TestRoundTripCorpusShapes(t *testing.T) {
	for _, name := range corpus.Names() {
		d, ok := corpus.ByName(name)
		if !ok {
			t.Fatalf("corpus graph %q missing", name)
		}
		g := d.Generate(0.005, 17)
		var buf bytes.Buffer
		if err := Write(&buf, g); err != nil {
			t.Fatalf("%s: write: %v", name, err)
		}
		h, err := Read(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("%s: read back: %v", name, err)
		}
		a, b := g.EdgeList(), h.EdgeList()
		if len(a) != len(b) {
			t.Fatalf("%s: edge count changed: %d -> %d", name, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s: edge %d changed: %v -> %v", name, i, a[i], b[i])
			}
		}
	}
}

// TestRoundTripEmptyAndEdgeless covers the degenerate headers: zero
// vertices, and vertices without edges.
func TestRoundTripEmptyAndEdgeless(t *testing.T) {
	for _, g := range []*graph.Graph{
		graph.MustBuild(0, nil, graph.Options{}),
		graph.MustBuild(7, nil, graph.Options{}),
	} {
		var buf bytes.Buffer
		if err := Write(&buf, g); err != nil {
			t.Fatalf("%s: write: %v", g, err)
		}
		h, err := Read(&buf)
		if err != nil {
			t.Fatalf("%s: read back: %v", g, err)
		}
		if h.NumVertices() != g.NumVertices() || h.NumEdges() != 0 {
			t.Fatalf("%s: round trip changed size to %s", g, h)
		}
	}
}
