package core

// Variant selects the inner loop of a kernel: the one thing the paper
// varies while the surrounding operation mix is held fixed. The kernel
// families (cc.SV, bfs.TopDown, sssp.BellmanFord and the engine kernels
// built on them) all take this one type; what each value means for a
// family's loop is documented on that kernel.
type Variant int

const (
	// BranchBased tests the data-dependent condition (label comparison,
	// discovery test, relaxation test) with a conditional branch and
	// stores only on the taken path (the paper's Algorithms 2 and 4).
	BranchBased Variant = iota
	// BranchAvoiding feeds the comparison into arithmetic masks and
	// conditional moves and stores unconditionally (Algorithms 3 and
	// 5): no data-dependent branch in the loop.
	BranchAvoiding
	// Hybrid runs branch-avoiding while the condition is unpredictable
	// and switches one way to the branch-based loop once the per-pass
	// change rate drops below the kernel's threshold (the paper's §6.2
	// crossover). Top-down BFS has no hybrid loop.
	Hybrid
)

// HybridChangeFraction is the Hybrid switch threshold every family
// shares: once a pass changes fewer than this fraction of the work it
// compared (the labels propagation swept for CC, the arcs a pass
// scanned for SSSP), the condition has become predictable and later
// passes run the branch-based loop. The paper's §6.2 observes a single
// crossover point, which makes the one-way switch sound.
const HybridChangeFraction = 0.02

// String implements fmt.Stringer.
func (v Variant) String() string {
	switch v {
	case BranchBased:
		return "branch-based"
	case BranchAvoiding:
		return "branch-avoiding"
	case Hybrid:
		return "hybrid"
	default:
		return "unknown"
	}
}
