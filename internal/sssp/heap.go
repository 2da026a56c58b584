package sssp

import "bagraph/internal/core"

// minHeap is an indexed binary min-heap over vertex ids with uint64
// priorities and decrease-key: Dijkstra's priority queue. It lives in a
// Scratch, and its storage is reused by capacity across queries.
type minHeap struct {
	ids  []uint32 // heap order
	prio []uint64 // priority per heap slot
	pos  []int32  // id -> heap slot, -1 if absent
}

// reset empties the heap for ids [0, n).
func (h *minHeap) reset(n int) {
	h.ids, h.prio = h.ids[:0], h.prio[:0]
	h.pos = core.Fit(h.pos, n)
	for i := range h.pos {
		h.pos[i] = -1
	}
}

func (h *minHeap) bytes() int64 {
	return 4*int64(cap(h.ids)+cap(h.pos)) + 8*int64(cap(h.prio))
}

// pushOrDecrease inserts id or lowers its priority, whichever applies;
// a priority no lower than id's current one is a no-op.
func (h *minHeap) pushOrDecrease(id uint32, prio uint64) {
	slot := h.pos[id]
	if slot < 0 {
		h.ids = append(h.ids, id)
		h.prio = append(h.prio, prio)
		slot = int32(len(h.ids) - 1)
		h.pos[id] = slot
	} else if prio >= h.prio[slot] {
		return
	}
	h.prio[slot] = prio
	h.up(int(slot))
}

// pop removes and returns the item with the smallest priority. The heap
// must not be empty.
func (h *minHeap) pop() (id uint32, prio uint64) {
	id, prio = h.ids[0], h.prio[0]
	last := len(h.ids) - 1
	h.swap(0, last)
	h.ids, h.prio = h.ids[:last], h.prio[:last]
	h.pos[id] = -1
	if last > 0 {
		h.down(0)
	}
	return id, prio
}

func (h *minHeap) swap(i, j int) {
	h.ids[i], h.ids[j] = h.ids[j], h.ids[i]
	h.prio[i], h.prio[j] = h.prio[j], h.prio[i]
	h.pos[h.ids[i]] = int32(i)
	h.pos[h.ids[j]] = int32(j)
}

func (h *minHeap) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if h.prio[parent] <= h.prio[i] {
			return
		}
		h.swap(i, parent)
		i = parent
	}
}

func (h *minHeap) down(i int) {
	n := len(h.ids)
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < n && h.prio[l] < h.prio[smallest] {
			smallest = l
		}
		if r < n && h.prio[r] < h.prio[smallest] {
			smallest = r
		}
		if smallest == i {
			return
		}
		h.swap(i, smallest)
		i = smallest
	}
}
