package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"slices"
	"sync/atomic"
	"testing"

	"bagraph/internal/bfs"
	"bagraph/internal/serve"
)

// tinyInput is a quick-mode graph: a few thousand vertices.
func tinyInput(t *testing.T, spec graphSpec, seed uint64) *input {
	t.Helper()
	in, err := generate(spec, seed, true)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

func scheduleBytes(workload string, client int, seed uint64, roots []uint32, n int) []byte {
	s := newSchedule(workload, client, seed, "g", roots, []string{"a.metis", "b.metis"})
	var buf bytes.Buffer
	for i := 0; i < n; i++ {
		o := s.next()
		fmt.Fprintf(&buf, "%s %s %s\n", o.kind, o.path, o.body)
	}
	return buf.Bytes()
}

func TestSameSeedSameInputs(t *testing.T) {
	a, b, c := tinyInput(t, specSmall, 5), tinyInput(t, specSmall, 5), tinyInput(t, specSmall, 6)
	oa := buildOracle(a, 5, nil, rootPoolSize, 0, false, 2)
	ob := buildOracle(b, 5, nil, rootPoolSize, 0, false, 2)
	oc := buildOracle(c, 6, nil, rootPoolSize, 0, false, 2)
	if !slices.Equal(oa.roots, ob.roots) {
		t.Error("same seed, different root pools")
	}
	if slices.Equal(oa.roots, oc.roots) {
		t.Error("different seeds, same root pool")
	}
	if len(oa.roots) != rootPoolSize {
		t.Errorf("pool has %d roots, want %d", len(oa.roots), rootPoolSize)
	}
	if !slices.Equal(a.g.Adjacency(), b.g.Adjacency()) || !slices.Equal(a.w.ArcWeights(), b.w.ArcWeights()) {
		t.Error("same seed, different graph or weights")
	}
	// The graph is a fixed instance; the seed reaches weights, roots and ops.
	if !slices.Equal(a.g.Adjacency(), c.g.Adjacency()) {
		t.Error("the seed changed the graph's structure")
	}
	if next := tinyInput(t, specSmallNext, 5); slices.Equal(a.g.Adjacency(), next.g.Adjacency()) {
		t.Error("serve-rollout's two graphs are the same graph")
	}
	if slices.Equal(a.w.ArcWeights(), c.w.ArcWeights()) {
		t.Error("different seeds, same weights")
	}
	for _, w := range serveWorkloads {
		for client := 0; client < numClients; client++ {
			x := scheduleBytes(w, client, 5, oa.roots, 200)
			if !bytes.Equal(x, scheduleBytes(w, client, 5, ob.roots, 200)) {
				t.Errorf("%s client %d: same seed, different op schedule", w, client)
			}
			if bytes.Equal(x, scheduleBytes(w, client, 6, oc.roots, 200)) {
				t.Errorf("%s client %d: different seeds, same op schedule", w, client)
			}
		}
	}
	if bytes.Equal(scheduleBytes(wDirect, 0, 5, oa.roots, 50), scheduleBytes(wDirect, 1, 5, oa.roots, 50)) {
		t.Error("the two clients draw the same roots")
	}
}

func TestScheduleShape(t *testing.T) {
	roots := []uint32{1, 2, 3}
	kinds := func(workload string, client, n int) (out []string) {
		s := newSchedule(workload, client, 1, "g", roots, []string{"a", "b"})
		for i := 0; i < n; i++ {
			out = append(out, s.next().kind)
		}
		return out
	}
	if got, want := kinds(wFleet, 0, 8), []string{"bfs", "cc", "bfs", "sssp", "bfs", "cc", "bfs", "sssp"}; !slices.Equal(got, want) {
		t.Errorf("serve mix = %v, want %v", got, want)
	}
	if got, want := kinds(wRollout, 0, 5), []string{"cc", "bfs", "bfs", "sssp", "cc"}; !slices.Equal(got, want) {
		t.Errorf("rollout reader = %v, want %v", got, want)
	}
	// The replacer: a replace, 15 reads, a replace, alternating files.
	s := newSchedule(wRollout, 1, 1, "g", roots, []string{"a", "b"})
	var files []int
	for i := 0; i < 3*(readsPerReplace+1); i++ {
		o := s.next()
		if (i%(readsPerReplace+1) == 0) != (o.kind == kindReplace) {
			t.Fatalf("op %d is %s", i, o.kind)
		}
		if o.kind == kindReplace {
			files = append(files, o.file)
			if o.epoch != uint64(len(files))+1 {
				t.Errorf("replace %d expects epoch %d", len(files), o.epoch)
			}
		}
	}
	if !slices.Equal(files, []int{1, 0, 1}) {
		t.Errorf("replace files = %v, want [1 0 1]", files)
	}
}

// A corrupted body, an answer checked against the wrong epoch's oracle
// and a 503 must each count as a failed operation.
func TestFailuresAreCounted(t *testing.T) {
	a, b := tinyInput(t, specSmall, 1), tinyInput(t, specSmallNext, 1)
	oa := buildOracle(a, 1, nil, 4, 0, false, 2)
	ob := buildOracle(b, 1, oa.roots, 0, 0, false, 2)
	root := oa.roots[0]
	hops, _ := bfs.TopDownBranchBased(a.g, root)
	good, err := json.Marshal(&serve.BFSResponse{Graph: "g", Epoch: 1, Root: root, Batch: 1, Reached: oa.byRoot[root].hopsReached, Dist: hops})
	if err != nil {
		t.Fatal(err)
	}
	flipped := bytes.Replace(good, []byte(`"dist":[`), []byte(`"dist":[7`), 1) // one element changed
	secondEpoch := bytes.Replace(good, []byte(`"epoch":1`), []byte(`"epoch":2`), 1)

	var step atomic.Int32
	replies := []struct {
		status int
		body   []byte
	}{
		{http.StatusOK, good},
		{http.StatusOK, good[:len(good)/2]}, // cut mid-array
		{http.StatusOK, flipped},
		{http.StatusOK, secondEpoch}, // graph A's answer under graph B's epoch
		{http.StatusServiceUnavailable, []byte(`{"error":"no live replica","retry_after":1}`)},
		{http.StatusOK, good},
	}
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rep := replies[int(step.Add(1))-1]
		w.WriteHeader(rep.status)
		w.Write(rep.body)
	}))
	defer ts.Close()

	var reqSeq atomic.Uint64
	c := &client{url: ts.URL, hc: ts.Client(), oracleOf: oracleByEpoch([]*oracle{oa, ob}), reqSeq: &reqSeq}
	o := op{kind: kindBFS, root: root, path: "/query/bfs", body: []byte(`{}`)}
	p := &loadPhase{}
	for range replies {
		p.samples = append(p.samples, c.do(o))
	}
	ops := p.ops()
	if ops.attempted != len(replies) || ops.failed != 4 {
		t.Fatalf("attempted %d failed %d, want %d and 4 (first error: %v)", ops.attempted, ops.failed, len(replies), ops.firstErr)
	}
	for i, s := range p.samples {
		if wantErr := i >= 1 && i <= 4; (s.err != nil) != wantErr {
			t.Errorf("reply %d: err = %v", i, s.err)
		}
	}
	if got := len(p.latencies(kindBFS)); got != 2 {
		t.Errorf("%d latencies kept, want the 2 verified ones", got)
	}

	// Without replaces only epoch 1 exists.
	if _, err := verify(o, http.StatusOK, secondEpoch, oracleByEpoch([]*oracle{oa})); err == nil {
		t.Error("an epoch that was never published verified")
	}
	// A transport error is a failed op too.
	ts.Close()
	if s := c.do(o); s.err == nil {
		t.Error("a refused connection did not fail the op")
	}
}
