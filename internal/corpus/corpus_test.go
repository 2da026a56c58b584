package corpus

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"
)

func TestTableTwoRoster(t *testing.T) {
	ds := All()
	if len(ds) != 5 {
		t.Fatalf("corpus has %d datasets, Table 2 has 5", len(ds))
	}
	wantOrder := []string{"audikw1", "auto", "coAuthorsDBLP", "cond-mat-2005", "ldoor"}
	for i, d := range ds {
		if d.Name != wantOrder[i] {
			t.Fatalf("dataset %d is %q, want %q", i, d.Name, wantOrder[i])
		}
	}
	// Paper sizes pinned.
	if d, _ := ByName("audikw1"); d.PaperV != 943_695 || d.PaperE != 38_354_076 {
		t.Fatal("audikw1 paper sizes wrong")
	}
	if d, _ := ByName("cond-mat-2005"); d.PaperV != 40_421 {
		t.Fatal("cond-mat-2005 paper size wrong")
	}
}

func TestGenerateSmallScaleValidConnected(t *testing.T) {
	for _, d := range All() {
		g := d.Generate(0.002, 42)
		if err := g.Validate(); err != nil {
			t.Fatalf("%s: %v", d.Name, err)
		}
		if g.Name() != d.Name {
			t.Fatalf("%s: graph named %q", d.Name, g.Name())
		}
		if !g.IsConnected() {
			t.Fatalf("%s stand-in is disconnected", d.Name)
		}
	}
}

// TestMeanDegreeMatchesPaper checks that each stand-in's mean degree is
// within 35% of the paper graph's (2|E|/|V|) — the property that drives
// the branch-count ratios in Figs. 4 and 7.
func TestMeanDegreeMatchesPaper(t *testing.T) {
	for _, d := range All() {
		g := d.Generate(0.01, 1)
		got := g.Degrees().Mean
		want := 2 * float64(d.PaperE) / float64(d.PaperV)
		if rel := math.Abs(got-want) / want; rel > 0.35 {
			t.Errorf("%s: mean degree %.1f, paper %.1f (%.0f%% off)", d.Name, got, want, rel*100)
		}
	}
}

func TestScaleControlsSize(t *testing.T) {
	d, _ := ByName("coAuthorsDBLP")
	small := d.Generate(0.005, 1)
	large := d.Generate(0.02, 1)
	if small.NumVertices() >= large.NumVertices() {
		t.Fatal("scale did not grow the graph")
	}
	// Scale ~ |V|: 4x scale ≈ 4x vertices.
	ratio := float64(large.NumVertices()) / float64(small.NumVertices())
	if ratio < 3 || ratio > 5 {
		t.Fatalf("vertex ratio %.2f for 4x scale", ratio)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	d, _ := ByName("cond-mat-2005")
	a := d.Generate(0.02, 9)
	b := d.Generate(0.02, 9)
	if a.NumArcs() != b.NumArcs() || a.NumVertices() != b.NumVertices() {
		t.Fatal("same seed produced different graphs")
	}
}

func TestGeneratePanicsOnBadScale(t *testing.T) {
	d, _ := ByName("auto")
	for _, s := range []float64{0, -1, 1.5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("scale %v did not panic", s)
				}
			}()
			d.Generate(s, 1)
		}()
	}
}

func TestByNameAndSubset(t *testing.T) {
	if _, ok := ByName("karate"); ok {
		t.Fatal("ByName found unknown dataset")
	}
	sub, err := Subset([]string{"ldoor", "auto"})
	if err != nil {
		t.Fatal(err)
	}
	if len(sub) != 2 || sub[0].Name != "auto" || sub[1].Name != "ldoor" {
		t.Fatalf("Subset order wrong: %v", sub)
	}
	if _, err := Subset([]string{"nope"}); err == nil {
		t.Fatal("Subset accepted unknown name")
	}
}

func TestNames(t *testing.T) {
	if len(Names()) != 5 {
		t.Fatalf("Names() = %v", Names())
	}
}

// TestSocialStandInsAreSkewed verifies the collaboration stand-ins have
// hubs (power-law-ish tails), unlike the mesh stand-ins.
func TestSocialStandInsAreSkewed(t *testing.T) {
	co, _ := ByName("coAuthorsDBLP")
	g := co.Generate(0.02, 5)
	st := g.Degrees()
	if float64(st.Max) < 5*st.Mean {
		t.Errorf("coAuthorsDBLP stand-in lacks hubs: max=%d mean=%.1f", st.Max, st.Mean)
	}
	mesh, _ := ByName("ldoor")
	mg := mesh.Generate(0.001, 5)
	mst := mg.Degrees()
	if float64(mst.Max) > 2*mst.Mean {
		t.Errorf("ldoor stand-in too skewed for a mesh: max=%d mean=%.1f", mst.Max, mst.Mean)
	}
}

// csrDigest is FNV-64a over the CSR arrays in little-endian order:
// every offset as 8 bytes, then every adjacency entry as 4.
func csrDigest(offs []int64, adj []uint32) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, o := range offs {
		binary.LittleEndian.PutUint64(b[:], uint64(o))
		h.Write(b[:])
	}
	for _, w := range adj {
		binary.LittleEndian.PutUint32(b[:4], w)
		h.Write(b[:4])
	}
	return h.Sum64()
}

// TestCorpusCSRDigest pins the exact CSR bytes of every stand-in at a
// small scale, so a change to a generator or to the relabel pass that
// moves a single arc fails here rather than silently shifting every
// experiment built on the corpus.
func TestCorpusCSRDigest(t *testing.T) {
	want := map[string]uint64{
		"audikw1":       0x15a5991d4221c7f3,
		"auto":          0xfb9e9e8d461c8b8e,
		"coAuthorsDBLP": 0x701dbfb252fe55e2,
		"cond-mat-2005": 0xa731c9caa86f47c6,
		"ldoor":         0x8a444d0a6e715a61,
	}
	for _, d := range All() {
		g := d.Generate(0.005, 7)
		if got := csrDigest(g.Offsets(), g.Adjacency()); got != want[d.Name] {
			t.Errorf("%s: CSR digest %#x, want %#x", d.Name, got, want[d.Name])
		}
	}
}
