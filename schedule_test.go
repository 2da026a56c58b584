package bagraph

// The steal-schedule property suite: work stealing moves chunks
// between workers, never elements between chunks, so every kernel must
// produce byte-identical output under ScheduleStealing and
// ScheduleStatic — across the whole corpus (including the forced-skew
// hub graph whose single vertex owns >50% of all arcs), at every
// standard worker count, for every parallel kernel family. Run under
// -race this doubles as the no-shared-state proof for the stealing
// scheduler's chunk handoff.

import (
	"context"
	"fmt"
	"testing"

	"bagraph/internal/testutil"
)

// runPair executes one request under both schedules and returns the
// two results (stealing first).
func runPair(t *testing.T, g Target, req Request) (*Result, *Result) {
	t.Helper()
	req.Schedule = ScheduleStealing
	steal, err := Run(context.Background(), g, req)
	if err != nil {
		t.Fatalf("stealing run: %v", err)
	}
	req.Schedule = ScheduleStatic
	static, err := Run(context.Background(), g, req)
	if err != nil {
		t.Fatalf("static run: %v", err)
	}
	return steal, static
}

func TestScheduleEquivalenceCC(t *testing.T) {
	testutil.ForEachGraph(t, nil, func(t *testing.T, g *Graph) {
		for _, workers := range testutil.WorkerCounts {
			steal, static := runPair(t, g, Request{
				Kind: KindCC, CC: CCHybrid, Parallel: true, Workers: workers,
			})
			testutil.MustEqualLabels(t, fmt.Sprintf("w%d", workers), steal.Labels, static.Labels)
		}
	})
}

func TestScheduleEquivalenceBFS(t *testing.T) {
	testutil.ForEachGraph(t, nil, func(t *testing.T, g *Graph) {
		if g.NumVertices() == 0 {
			return // no root to traverse from
		}
		for _, workers := range testutil.WorkerCounts {
			steal, static := runPair(t, g, Request{
				Kind: KindBFS, Parallel: true, Root: 0, Workers: workers,
			})
			testutil.MustEqualDists(t, fmt.Sprintf("w%d", workers), steal.Hops, static.Hops)
		}
	})
}

func TestScheduleEquivalenceBFSBatch(t *testing.T) {
	testutil.ForEachGraph(t, nil, func(t *testing.T, g *Graph) {
		n := g.NumVertices()
		if n == 0 {
			return
		}
		roots := []uint32{0, uint32(n / 2), uint32(n - 1), 0}
		for _, workers := range testutil.WorkerCounts {
			steal, static := runPair(t, g, Request{
				Kind: KindBFSBatch, Roots: roots, Workers: workers,
			})
			for i := range roots {
				testutil.MustEqualDists(t, fmt.Sprintf("w%d/root%d", workers, roots[i]),
					steal.HopsBatch[i], static.HopsBatch[i])
			}
		}
	})
}

func TestScheduleEquivalenceSSSP(t *testing.T) {
	testutil.ForEachWeighted(t, nil, func(t *testing.T, g *WeightedGraph) {
		if g.NumVertices() == 0 {
			return
		}
		for _, workers := range testutil.WorkerCounts {
			steal, static := runPair(t, g, Request{
				Kind: KindSSSP, SSSP: SSSPHybrid, Parallel: true,
				Root: 0, Workers: workers,
			})
			testutil.MustEqualDists(t, fmt.Sprintf("w%d", workers), steal.Dists, static.Dists)
		}
	})
}

// TestScheduleChunkAccounting pins the observability contract: a
// parallel run reports its chunk volume, a stealing run over-decomposes
// relative to static, and a sequential run reports nothing.
func TestScheduleChunkAccounting(t *testing.T) {
	g := testutil.Hub(192, 600)
	static, err := Run(context.Background(), g, Request{
		Kind: KindCC, CC: CCBranchAvoiding, Parallel: true, Workers: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if static.Stats.Chunks == 0 {
		t.Fatal("static parallel run reported no chunks")
	}
	if static.Stats.Steals != 0 || static.Stats.StealPasses != 0 {
		t.Fatalf("static run reported steals: %+v", static.Stats)
	}
	steal, err := Run(context.Background(), g, Request{
		Kind: KindCC, CC: CCBranchAvoiding, Parallel: true, Workers: 4,
		Schedule: ScheduleStealing,
	})
	if err != nil {
		t.Fatal(err)
	}
	if steal.Stats.Chunks <= static.Stats.Chunks {
		t.Fatalf("stealing run did not over-decompose: %d chunks vs static %d",
			steal.Stats.Chunks, static.Stats.Chunks)
	}
	seq, err := Run(context.Background(), g, Request{Kind: KindCC, CC: CCBranchAvoiding})
	if err != nil {
		t.Fatal(err)
	}
	if seq.Stats.Chunks != 0 || seq.Stats.Steals != 0 {
		t.Fatalf("sequential run reported scheduler stats: %+v", seq.Stats)
	}
}

// TestParseSchedule pins the flag vocabulary the CLIs and daemon share.
func TestParseSchedule(t *testing.T) {
	for in, want := range map[string]Schedule{
		"": ScheduleStatic, "static": ScheduleStatic,
		"steal": ScheduleStealing, "stealing": ScheduleStealing,
	} {
		got, err := ParseSchedule(in)
		if err != nil || got != want {
			t.Errorf("ParseSchedule(%q) = %v, %v", in, got, err)
		}
	}
	if _, err := ParseSchedule("fifo"); err == nil {
		t.Error("ParseSchedule accepted an unknown name")
	}
	if ScheduleStatic.String() != "static" || ScheduleStealing.String() != "stealing" {
		t.Errorf("Schedule strings: %v %v", ScheduleStatic, ScheduleStealing)
	}
}
