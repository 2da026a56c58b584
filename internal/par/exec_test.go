package par_test

// External test package: testutil imports par (for its Exec helper), so
// a test that needs testutil.CancelAfter cannot live in package par.

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"

	"bagraph/internal/par"
	"bagraph/internal/perfcount"
	"bagraph/internal/testutil"
)

// TestRunChunksCtx pins Exec.Pass, the one site where the engine
// kernels observe cancellation and account scheduler work: a cancelled
// context runs no chunk, a live one is polled exactly once per pass, and
// the scheduler counters are folded into the kernel's Stats exactly as
// a bare RunChunks reports them, under both schedules.
func TestRunChunksCtx(t *testing.T) {
	chunks := par.PartitionSlice(8, 8)

	t.Run("pre-cancelled", func(t *testing.T) {
		x := testutil.Exec(t, 2, par.Stealing)
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		x.Ctx = ctx
		var st perfcount.Stats
		err := x.Pass(&st, chunks, func(int, par.Range) {
			t.Error("pre-cancelled pass dispatched a chunk")
		})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
		if st.Chunks != 0 || st.Steals != 0 || st.StealPasses != 0 {
			t.Fatalf("skipped pass touched the stats: %+v", st)
		}
	})

	t.Run("one-poll-per-pass", func(t *testing.T) {
		const budget = 3
		x := testutil.Exec(t, 2, par.Static)
		x.Ctx = testutil.CancelAfter(budget)
		var st perfcount.Stats
		var ran int32
		passes := 0
		for ; passes < 2*budget; passes++ {
			if err := x.Pass(&st, chunks, func(int, par.Range) { atomic.AddInt32(&ran, 1) }); err != nil {
				break
			}
		}
		if passes != budget || int(ran) != budget*len(chunks) {
			t.Fatalf("an Err budget of %d allowed %d passes (%d chunks): Pass must poll exactly once", budget, passes, ran)
		}
	})

	for _, sched := range []par.Schedule{par.Static, par.Stealing} {
		t.Run("fold/"+sched.String(), func(t *testing.T) {
			// Blocks are [0,4) for worker 0 and [4,8) for worker 1. Under
			// Stealing, chunk 0 gates on the other seven (the
			// blocked-owner construction of
			// TestRunChunksStealsFromBlockedOwner), so every pass steals
			// at least once — chunk 0 itself or the chunks behind it —
			// and the ownership count below is what RunChunks reports.
			x := testutil.Exec(t, 2, sched)
			var st perfcount.Stats
			const passes = 2
			var wantSteals uint64
			for pass := 0; pass < passes; pass++ {
				gate := make(chan struct{})
				var rest, stolen int32
				err := x.Pass(&st, chunks, func(w int, c par.Range) {
					if owner := c.Lo / 4; owner != w {
						atomic.AddInt32(&stolen, 1)
					}
					if sched == par.Static {
						return
					}
					if c.Lo == 0 {
						<-gate
					} else if atomic.AddInt32(&rest, 1) == 7 {
						close(gate)
					}
				})
				if err != nil {
					t.Fatal(err)
				}
				wantSteals += uint64(stolen)
			}
			if st.Chunks != passes*len(chunks) {
				t.Errorf("Chunks = %d, want %d", st.Chunks, passes*len(chunks))
			}
			if st.Steals != wantSteals {
				t.Errorf("Steals = %d, ownership count says %d", st.Steals, wantSteals)
			}
			if sched == par.Stealing && st.Steals < passes {
				t.Errorf("Steals = %d over %d passes: nothing was stolen from the blocked owner", st.Steals, passes)
			}
			if (sched == par.Static && st.StealPasses != 0) || st.StealPasses < st.Steals {
				t.Errorf("StealPasses = %d with Steals = %d", st.StealPasses, st.Steals)
			}
		})
	}
}
