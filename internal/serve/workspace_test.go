package serve

import (
	"context"
	"testing"

	"bagraph"
)

// TestWorkspaceComesBackWhenTheWaiterIsGone: a result holding a
// workspace reaches the free list whichever settles first, the
// dispatcher handing it over or the waiter giving up on its context,
// and the free list keeps at most one workspace per worker.
func TestWorkspaceComesBackWhenTheWaiterIsGone(t *testing.T) {
	b := NewBatcher(2, 0, -1, bagraph.ScheduleStatic)
	t.Cleanup(b.Close)
	newRequest := func() *Request {
		return &Request{ctx: context.Background(), done: make(chan Result, 1)}
	}
	check := func(step string, held, free int) {
		t.Helper()
		b.wsMu.Lock()
		defer b.wsMu.Unlock()
		if b.wsHeld != held || len(b.wsFree) != free {
			t.Fatalf("%s: %d held, %d free; want %d held, %d free", step, b.wsHeld, len(b.wsFree), held, free)
		}
	}

	// The waiter gives up first: the dispatcher returns the workspace.
	r := newRequest()
	abandon(r)
	deliver(r, Result{ws: b.getWorkspace()})
	check("waiter first", 1, 1)
	if len(r.done) != 0 {
		t.Fatal("a result was handed to a waiter that had gone")
	}

	// The dispatcher hands over first: the waiter returns it.
	r = newRequest()
	deliver(r, Result{ws: b.getWorkspace()})
	abandon(r)
	check("dispatcher first", 1, 1)

	// Three at once: the third goes to the GC on return.
	ws := []*workspace{b.getWorkspace(), b.getWorkspace(), b.getWorkspace()}
	check("three out", 3, 0)
	for _, w := range ws {
		w.release()
	}
	check("three back", 2, 2)
}
