package serve

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"bagraph/internal/gen"
	"bagraph/internal/metis"
	"bagraph/internal/testutil"
)

func TestRegistryAddAndGet(t *testing.T) {
	r := NewRegistry()
	g := gen.Path(10)
	e, err := r.Add("p", g)
	if err != nil {
		t.Fatal(err)
	}
	if e.Name() != "p" || e.Epoch() != 1 || e.Graph() != g {
		t.Fatalf("entry mismatch: %q epoch %d", e.Name(), e.Epoch())
	}
	if _, err := r.Add("p", gen.Star(4)); err == nil {
		t.Fatal("duplicate name accepted")
	}
	if _, err := r.Add("", gen.Star(4)); err == nil {
		t.Fatal("empty name accepted")
	}
	if _, ok := r.Get("q"); ok {
		t.Fatal("phantom graph found")
	}
	got, ok := r.Get("p")
	if !ok || got != e {
		t.Fatal("lookup returned wrong entry")
	}
}

func TestRegistryReplaceBumpsEpoch(t *testing.T) {
	r := NewRegistry()
	if _, err := r.Add("g", gen.Path(6)); err != nil {
		t.Fatal(err)
	}
	e2, err := r.Replace("g", gen.Star(6))
	if err != nil {
		t.Fatal(err)
	}
	if e2.Epoch() != 2 {
		t.Fatalf("epoch = %d, want 2", e2.Epoch())
	}
	// Replace under a fresh name behaves like Add.
	e3, err := r.Replace("h", gen.Path(3))
	if err != nil {
		t.Fatal(err)
	}
	if e3.Epoch() != 1 {
		t.Fatalf("fresh replace epoch = %d, want 1", e3.Epoch())
	}
	names := []string{}
	for _, e := range r.Entries() {
		names = append(names, e.Name())
	}
	if strings.Join(names, ",") != "g,h" {
		t.Fatalf("entries order = %v", names)
	}
}

func TestRegistryLoadMETISFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "g.metis")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := metis.Write(f, gen.Grid2D(4, 4, false)); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	r := NewRegistry()
	e, err := r.LoadMETISFile("grid", path)
	if err != nil {
		t.Fatal(err)
	}
	if e.Graph().NumVertices() != 16 {
		t.Fatalf("vertices = %d, want 16", e.Graph().NumVertices())
	}
	if e.Graph().Name() != "grid" {
		t.Fatalf("graph name = %q", e.Graph().Name())
	}
	if _, err := r.LoadMETISFile("missing", filepath.Join(dir, "nope.metis")); err == nil {
		t.Fatal("missing file accepted")
	}
}

func TestRegistryAddCorpus(t *testing.T) {
	r := NewRegistry()
	e, err := r.AddCorpus("cond-mat-2005", 0.01, 7)
	if err != nil {
		t.Fatal(err)
	}
	if e.Graph().NumVertices() == 0 {
		t.Fatal("empty corpus graph")
	}
	if _, err := r.AddCorpus("karate", 0.01, 7); err == nil {
		t.Fatal("unknown corpus name accepted")
	}
	if _, err := r.AddCorpus("auto", 0, 7); err == nil {
		t.Fatal("zero scale accepted")
	}
}

func TestEntryWeightedIsUnitAndShared(t *testing.T) {
	r := NewRegistry()
	e, err := r.Add("p", gen.Path(5))
	if err != nil {
		t.Fatal(err)
	}
	if e.HasEdgeWeights() {
		t.Fatal("unweighted entry marked weighted")
	}
	w1, err := e.Weighted()
	if err != nil {
		t.Fatal(err)
	}
	w2, _ := e.Weighted()
	if w1 != w2 {
		t.Fatal("weighted view not shared")
	}
	for _, wt := range w1.ArcWeights() {
		if wt != 1 {
			t.Fatalf("non-unit weight %d", wt)
		}
	}
}

// TestRegistryLoadWeightedMETISFile pins the daemon's weighted path: a
// weighted file publishes a weighted entry whose SSSP view carries the
// file's weights byte for byte.
func TestRegistryLoadWeightedMETISFile(t *testing.T) {
	w := testutil.RandomWeighted(40, 90, 12, 33)
	dir := t.TempDir()
	path := filepath.Join(dir, "w.metis")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := metis.WriteWeighted(f, w); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	r := NewRegistry()
	e, err := r.LoadMETISFile("wg", path)
	if err != nil {
		t.Fatal(err)
	}
	if !e.HasEdgeWeights() {
		t.Fatal("weighted file published an unweighted entry")
	}
	got, err := e.Weighted()
	if err != nil {
		t.Fatal(err)
	}
	aw, bw := w.ArcWeights(), got.ArcWeights()
	if len(aw) != len(bw) {
		t.Fatalf("%d arcs, want %d", len(bw), len(aw))
	}
	for i := range aw {
		if aw[i] != bw[i] {
			t.Fatalf("arc %d weight %d, want %d", i, bw[i], aw[i])
		}
	}
}

// TestRegistryReplaceWeighted checks weighted hot-swap: epochs bump
// and the weighted marker follows the new entry.
func TestRegistryReplaceWeighted(t *testing.T) {
	r := NewRegistry()
	if _, err := r.Add("g", gen.Path(6)); err != nil {
		t.Fatal(err)
	}
	e2, err := r.ReplaceWeighted("g", testutil.RandomWeighted(20, 40, 5, 1))
	if err != nil {
		t.Fatal(err)
	}
	if e2.Epoch() != 2 || !e2.HasEdgeWeights() {
		t.Fatalf("epoch %d weighted %v", e2.Epoch(), e2.HasEdgeWeights())
	}
	e3, err := r.Replace("g", gen.Star(6))
	if err != nil {
		t.Fatal(err)
	}
	if e3.Epoch() != 3 || e3.HasEdgeWeights() {
		t.Fatalf("epoch %d weighted %v", e3.Epoch(), e3.HasEdgeWeights())
	}
	if _, err := r.AddWeighted("g", testutil.RandomWeighted(10, 20, 3, 2)); err == nil {
		t.Fatal("AddWeighted over an existing name accepted")
	}
}
