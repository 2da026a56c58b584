package sssp

import (
	"sort"
	"testing"
	"testing/quick"

	"bagraph/internal/xrand"
)

func newHeap(n int) *minHeap {
	h := new(minHeap)
	h.reset(n)
	return h
}

func TestHeapPushPopSorted(t *testing.T) {
	h := newHeap(10)
	prios := []uint64{5, 3, 8, 1, 9, 2, 7, 0, 6, 4}
	for id, p := range prios {
		h.pushOrDecrease(uint32(id), p)
	}
	if len(h.ids) != 10 {
		t.Fatalf("len = %d", len(h.ids))
	}
	for want := uint64(0); want < 10; want++ {
		_, p := h.pop()
		if p != want {
			t.Fatalf("pop priority %d, want %d", p, want)
		}
	}
	if len(h.ids) != 0 {
		t.Fatal("heap not empty")
	}
}

// TestHeapPushOrDecrease: the first call inserts, a higher priority is
// a no-op, a lower one takes effect.
func TestHeapPushOrDecrease(t *testing.T) {
	h := newHeap(2)
	h.pushOrDecrease(0, 10)
	h.pushOrDecrease(0, 15)
	if h.prio[h.pos[0]] != 10 {
		t.Fatalf("priority = %d after an increase, want 10", h.prio[h.pos[0]])
	}
	h.pushOrDecrease(0, 5)
	if _, p := h.pop(); p != 5 {
		t.Fatalf("priority = %d, want 5", p)
	}
}

// TestHeapDecreaseReorders: lowering a priority moves the item up past
// the items it now undercuts.
func TestHeapDecreaseReorders(t *testing.T) {
	h := newHeap(3)
	h.pushOrDecrease(0, 10)
	h.pushOrDecrease(1, 20)
	h.pushOrDecrease(2, 30)
	h.pushOrDecrease(0, 15)
	h.pushOrDecrease(2, 5)
	for _, want := range [][2]uint64{{2, 5}, {0, 10}, {1, 20}} {
		if id, p := h.pop(); uint64(id) != want[0] || p != want[1] {
			t.Fatalf("pop = (%d, %d), want (%d, %d)", id, p, want[0], want[1])
		}
	}
}

// TestHeapReset: a heap reset for a larger id range, with items left
// over from the last use, starts empty and keeps its storage.
func TestHeapReset(t *testing.T) {
	h := newHeap(4)
	h.pushOrDecrease(2, 1)
	h.pushOrDecrease(3, 2)
	h.pop()
	if h.pos[2] != -1 || h.pos[3] != 0 {
		t.Fatalf("pos = %v, want the popped id absent", h.pos)
	}
	ids := &h.ids[:1][0]
	h.reset(3)
	if len(h.ids) != 0 || &h.ids[:1][0] != ids {
		t.Fatalf("reset left %d items or dropped its storage", len(h.ids))
	}
	for id, slot := range h.pos {
		if slot != -1 {
			t.Fatalf("id %d still at slot %d after reset", id, slot)
		}
	}
}

// Property: popping everything yields priorities in sorted order, for
// random insert/decrease sequences.
func TestHeapOrderProperty(t *testing.T) {
	h := new(minHeap)
	f := func(seed uint64) bool {
		r := xrand.New(seed)
		n := 1 + r.Intn(200)
		h.reset(n)
		current := make(map[uint32]uint64)
		for i := 0; i < n; i++ {
			id := uint32(r.Intn(n))
			p := r.Uint64() % 1000
			h.pushOrDecrease(id, p)
			if cur, ok := current[id]; !ok || p < cur {
				current[id] = p
			}
		}
		var want []uint64
		for _, p := range current {
			want = append(want, p)
		}
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		for _, w := range want {
			_, p := h.pop()
			if p != w {
				return false
			}
		}
		return len(h.ids) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
