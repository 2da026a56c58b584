package par

import (
	"sync/atomic"
	"testing"
)

// offsFromDegrees builds a CSR offsets array from a degree sequence.
func offsFromDegrees(deg []int) []int64 {
	offs := make([]int64, len(deg)+1)
	for i, d := range deg {
		offs[i+1] = offs[i] + int64(d)
	}
	return offs
}

func checkCover(t *testing.T, ranges []Range, n int) {
	t.Helper()
	lo := 0
	for _, r := range ranges {
		if r.Lo != lo {
			t.Fatalf("range %v does not start at %d", r, lo)
		}
		if r.Hi <= r.Lo {
			t.Fatalf("empty or inverted range %v", r)
		}
		lo = r.Hi
	}
	if lo != n {
		t.Fatalf("ranges end at %d, want %d", lo, n)
	}
}

func TestPartitionCoversAndBalances(t *testing.T) {
	// Skewed degrees: vertex 0 holds half of all arcs.
	deg := make([]int, 1000)
	deg[0] = 1000
	for i := 1; i < len(deg); i++ {
		deg[i] = 1
	}
	offs := offsFromDegrees(deg)
	ranges := Partition(offs, 4, 1)
	checkCover(t, ranges, len(deg))
	// The heavy vertex must sit alone-ish: no range besides the first
	// should carry much more than total/parts arcs.
	total := offs[len(offs)-1]
	for i, r := range ranges {
		arcs := offs[r.Hi] - offs[r.Lo]
		if i > 0 && arcs > total/2 {
			t.Errorf("range %d = %v has %d of %d arcs", i, r, arcs, total)
		}
	}
}

func TestPartitionUniform(t *testing.T) {
	deg := make([]int, 64)
	for i := range deg {
		deg[i] = 3
	}
	offs := offsFromDegrees(deg)
	for _, parts := range []int{1, 2, 3, 4, 7, 64, 100} {
		ranges := Partition(offs, parts, 1)
		checkCover(t, ranges, len(deg))
		if len(ranges) > parts {
			t.Errorf("parts=%d produced %d ranges", parts, len(ranges))
		}
	}
}

func TestPartitionAligned(t *testing.T) {
	deg := make([]int, 1000)
	for i := range deg {
		deg[i] = 1 + i%5
	}
	offs := offsFromDegrees(deg)
	ranges := Partition(offs, 8, 64)
	checkCover(t, ranges, len(deg))
	for i, r := range ranges {
		if i > 0 && r.Lo%64 != 0 {
			t.Errorf("range %d = %v not 64-aligned", i, r)
		}
	}
}

func TestPartitionEdgeCases(t *testing.T) {
	if got := Partition([]int64{0}, 4, 1); got != nil {
		t.Errorf("empty graph: got %v", got)
	}
	// All-isolated vertices: zero arcs everywhere.
	offs := make([]int64, 11)
	ranges := Partition(offs, 4, 1)
	checkCover(t, ranges, 10)
}

func TestPartitionSlice(t *testing.T) {
	for _, tc := range []struct{ n, parts int }{
		{0, 4}, {1, 4}, {10, 3}, {10, 10}, {10, 20}, {1000, 7},
	} {
		ranges := PartitionSlice(tc.n, tc.parts)
		if tc.n == 0 {
			if ranges != nil {
				t.Errorf("n=0: got %v", ranges)
			}
			continue
		}
		checkCover(t, ranges, tc.n)
		if len(ranges) > tc.parts {
			t.Errorf("n=%d parts=%d produced %d ranges", tc.n, tc.parts, len(ranges))
		}
	}
}

func TestPoolRunsEveryTask(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 8} {
		p := NewPool(workers)
		if p.Workers() != workers {
			t.Fatalf("Workers() = %d, want %d", p.Workers(), workers)
		}
		hits := make([]int32, 100)
		for pass := 0; pass < 10; pass++ {
			p.Run(len(hits), func(i int) {
				atomic.AddInt32(&hits[i], 1)
			})
		}
		p.Close()
		p.Close() // idempotent
		for i, h := range hits {
			if h != 10 {
				t.Fatalf("workers=%d: task %d ran %d times, want 10", workers, i, h)
			}
		}
	}
}

func TestPoolBarrier(t *testing.T) {
	// Run must not return before every task completes: accumulate into a
	// plain slice (no atomics) and read it after the barrier; the race
	// detector cross-checks the happens-before edge.
	p := NewPool(4)
	defer p.Close()
	sums := make([]int64, 8)
	for pass := 0; pass < 50; pass++ {
		p.Run(len(sums), func(i int) { sums[i]++ })
		for i, s := range sums {
			if s != int64(pass+1) {
				t.Fatalf("pass %d: sums[%d] = %d", pass, i, s)
			}
		}
	}
}

func TestRunChunksCoversEveryChunkOnce(t *testing.T) {
	// Every chunk must execute exactly once under both schedules, for
	// worker counts below, at, and above the chunk count.
	chunks := PartitionSlice(1000, 37)
	for _, sched := range []Schedule{Static, Stealing} {
		for _, workers := range []int{1, 2, 4, 8, 64} {
			p := NewPool(workers)
			hits := make([]int32, 1000)
			st := p.RunChunks(chunks, sched, func(w int, c Range) {
				if w < 0 || w >= p.Workers() {
					t.Errorf("worker id %d out of range", w)
				}
				for i := c.Lo; i < c.Hi; i++ {
					atomic.AddInt32(&hits[i], 1)
				}
			})
			p.Close()
			if st.Chunks != len(chunks) {
				t.Errorf("%v/workers=%d: Chunks = %d, want %d", sched, workers, st.Chunks, len(chunks))
			}
			for i, h := range hits {
				if h != 1 {
					t.Fatalf("%v/workers=%d: index %d ran %d times", sched, workers, i, h)
				}
			}
		}
	}
}

func TestRunChunksWorkerSerial(t *testing.T) {
	// All fn calls for one worker index run serially: per-worker
	// accumulators written without atomics must survive -race.
	p := NewPool(4)
	defer p.Close()
	chunks := PartitionSlice(4096, 64)
	acc := make([]int64, p.Workers()*8) // padded slots, one per worker
	for pass := 0; pass < 20; pass++ {
		st := p.RunChunks(chunks, Stealing, func(w int, c Range) {
			acc[w*8] += int64(c.Len())
		})
		total := int64(0)
		for w := 0; w < p.Workers(); w++ {
			total += acc[w*8]
		}
		if total != int64(4096*(pass+1)) {
			t.Fatalf("pass %d: accumulated %d vertices, want %d", pass, total, 4096*(pass+1))
		}
		if st.Steals > 0 && st.StealPasses == 0 {
			t.Fatal("steals recorded without steal passes")
		}
	}
}

func TestRunChunksStealsFromBlockedOwner(t *testing.T) {
	// Deterministic steal: worker 0's first chunk blocks until every
	// other chunk has run. Those chunks sit behind worker 0's cursor,
	// so they can only complete if another worker steals them —
	// scheduler-timing independent, works even on one CPU because the
	// gate is a goroutine blocking point.
	p := NewPool(2)
	defer p.Close()
	// 8 chunks; blocks are [0,4) and [4,8). Chunk 0 gates on the other 7.
	chunks := PartitionSlice(8, 8)
	gate := make(chan struct{})
	var rest int32
	st := p.RunChunks(chunks, Stealing, func(w int, c Range) {
		if c.Lo == 0 {
			<-gate
			return
		}
		if atomic.AddInt32(&rest, 1) == 7 {
			close(gate)
		}
	})
	if st.Steals == 0 {
		t.Fatal("no chunks were stolen from the blocked owner")
	}
	if st.StealPasses < st.Steals {
		t.Fatalf("StealPasses = %d < Steals = %d", st.StealPasses, st.Steals)
	}
}

func TestRunChunksEmpty(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	for _, sched := range []Schedule{Static, Stealing} {
		st := p.RunChunks(nil, sched, func(int, Range) { t.Fatal("ran a chunk of nothing") })
		if st != (ChunkStats{}) {
			t.Errorf("%v: stats %+v for the empty chunk list", sched, st)
		}
	}
}

func TestChunkCount(t *testing.T) {
	if got := ChunkCount(4, Static); got != 4 {
		t.Errorf("Static: %d chunks, want workers", got)
	}
	if got := ChunkCount(4, Stealing); got != 4*DefaultChunkFactor {
		t.Errorf("Stealing: %d", got)
	}
}

func TestScheduleString(t *testing.T) {
	if Static.String() != "static" || Stealing.String() != "stealing" {
		t.Errorf("Schedule strings: %v %v", Static, Stealing)
	}
}

func TestDefaultWorkers(t *testing.T) {
	if DefaultWorkers(3) != 3 {
		t.Error("explicit count not honored")
	}
	if DefaultWorkers(0) < 1 || DefaultWorkers(-1) < 1 {
		t.Error("default must be at least 1")
	}
}
