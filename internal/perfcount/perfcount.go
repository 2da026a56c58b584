// Package perfcount defines the two counter records of the repo: the
// hardware-event set of the simulated machine (Counters) and the
// software-visible record of a native kernel run (Stats).
//
// The paper's Fig. 10 correlates six per-edge quantities — time (T),
// instructions (I), branches (B), mispredictions (M), loads (L) and
// stores (S). Counters carries exactly those events plus the cache-level
// breakdown the timing model needs to turn loads into cycles. Stats is
// what the native kernels can count without a machine model: passes,
// per-pass changes and the store counts behind the §5.2 blow-up.
package perfcount

import "fmt"

// Counters is a snapshot of simulated hardware event counts. The zero
// value is an empty snapshot; counters are deltas under subtraction, so
// per-iteration series are computed by snapshotting around iteration
// boundaries.
type Counters struct {
	Instructions uint64 // all retired instructions, including branches
	Branches     uint64 // retired conditional branches
	Mispredicts  uint64 // mispredicted conditional branches
	Loads        uint64 // memory read operations
	Stores       uint64 // memory write operations
	CondMoves    uint64 // predicated (conditional-move/add) operations

	// Cache-level hit breakdown for loads and stores combined. L1 + L2 +
	// L3 + Mem equals Loads + Stores.
	L1, L2, L3, Mem uint64
}

// Add accumulates o into c.
func (c *Counters) Add(o Counters) {
	c.Instructions += o.Instructions
	c.Branches += o.Branches
	c.Mispredicts += o.Mispredicts
	c.Loads += o.Loads
	c.Stores += o.Stores
	c.CondMoves += o.CondMoves
	c.L1 += o.L1
	c.L2 += o.L2
	c.L3 += o.L3
	c.Mem += o.Mem
}

// Delta returns c - base. Each field of base must not exceed the
// corresponding field of c (snapshots of a monotone counter set).
func (c Counters) Delta(base Counters) Counters {
	return Counters{
		Instructions: c.Instructions - base.Instructions,
		Branches:     c.Branches - base.Branches,
		Mispredicts:  c.Mispredicts - base.Mispredicts,
		Loads:        c.Loads - base.Loads,
		Stores:       c.Stores - base.Stores,
		CondMoves:    c.CondMoves - base.CondMoves,
		L1:           c.L1 - base.L1,
		L2:           c.L2 - base.L2,
		L3:           c.L3 - base.L3,
		Mem:          c.Mem - base.Mem,
	}
}

// MemOps returns Loads + Stores.
func (c Counters) MemOps() uint64 { return c.Loads + c.Stores }

// MissRate returns Mispredicts / Branches, or 0 for a branch-free window.
func (c Counters) MissRate() float64 {
	if c.Branches == 0 {
		return 0
	}
	return float64(c.Mispredicts) / float64(c.Branches)
}

// String implements fmt.Stringer with a compact event summary.
func (c Counters) String() string {
	return fmt.Sprintf("I=%d B=%d M=%d L=%d S=%d cmov=%d (L1=%d L2=%d L3=%d mem=%d)",
		c.Instructions, c.Branches, c.Mispredicts, c.Loads, c.Stores, c.CondMoves,
		c.L1, c.L2, c.L3, c.Mem)
}

// Series is a per-iteration (SV) or per-level (BFS) sequence of counter
// deltas, the unit of every per-iteration figure in the paper.
type Series []Counters

// Total sums the series.
func (s Series) Total() Counters {
	var t Counters
	for _, c := range s {
		t.Add(c)
	}
	return t
}
