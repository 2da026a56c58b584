package algoreq

import (
	"context"
	"fmt"
	"os"
	"strings"
	"testing"

	"bagraph"
	"bagraph/internal/corpus"
	"bagraph/internal/testutil"
)

// TestRunStatsGolden drives every canonical algorithm name, plus a
// KindBFSBatch request, through bagraph.Run on one fixed corpus graph
// (one worker, static schedule — the configuration in which every
// counter is deterministic) and compares each Stats record with
// testdata/run_stats.golden. The file pins every deterministic field,
// so a kernel that stops filling one — or fills it with a different
// meaning — fails here by name.
func TestRunStatsGolden(t *testing.T) {
	d, ok := corpus.ByName("auto")
	if !ok {
		t.Fatal("corpus graph auto missing")
	}
	// A 13x13x13 shuffled stencil mesh: enough passes that the hybrids
	// switch loops and the BFS kernels go bottom-up and come back.
	g := d.Generate(0.005, 1)
	w := testutil.AttachHashWeights(t, g, 31, 1)
	const root = 3

	type namedReq struct {
		name string
		req  bagraph.Request
	}
	var reqs []namedReq
	add := func(name string, req bagraph.Request, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		req.Workers = 1
		reqs = append(reqs, namedReq{name, req})
	}
	for _, a := range []string{"sv-bb", "sv-ba", "hybrid", "unionfind", "par-bb", "par-ba", "par-hybrid"} {
		req, err := CC(a)
		add("cc/"+a, req, err)
	}
	for _, a := range []string{"bb", "ba", "dir-opt", "par-do"} {
		req, err := BFS(a, root)
		add("bfs/"+a, req, err)
	}
	for _, a := range []string{"bb", "ba", "dijkstra", "par-bb", "par-ba", "par-hybrid"} {
		req, err := SSSP(a, root, 0)
		add("sssp/"+a, req, err)
	}
	batch := make([]uint32, 70) // two waves: 64 + 6
	for i := range batch {
		batch[i] = uint32(i * 7)
	}
	add("bfs-batch/ms70", bagraph.Request{Kind: bagraph.KindBFSBatch, Roots: batch}, nil)

	var got strings.Builder
	for _, c := range reqs {
		res, err := bagraph.Run(context.Background(), w, c.req)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		st := res.Stats
		fmt.Fprintf(&got, "%s passes=%d topdown=%d bottomup=%d waves=%d reached=%d buckets=%d"+
			" label_stores=%d dist_stores=%d queue_stores=%d cand_stores=%d"+
			" words_scanned=%d light_relaxed=%d pass_changes=%v level_sizes=%v\n",
			c.name, st.Passes, st.TopDownLevels, st.BottomUpLevels, st.Waves, st.Reached, st.Buckets,
			st.LabelStores, st.DistStores, st.QueueStores, st.CandStores,
			st.WordsScanned, st.LightRelaxed, st.PassChanges, st.LevelSizes)
	}

	want, err := os.ReadFile("testdata/run_stats.golden")
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		gl, wl := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Errorf("line %d:\n got  %s\n want %s", i+1, gl[i], wl[i])
			}
		}
		if len(gl) != len(wl) {
			t.Errorf("%d lines, golden file has %d", len(gl), len(wl))
		}
	}
}
