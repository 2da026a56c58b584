// Package cc implements connected-components kernels: the paper's
// Shiloach-Vishkin label-propagation algorithm in branch-based
// (Algorithm 2) and branch-avoiding (Algorithm 3) forms, the hybrid
// algorithm the paper's §6.2 proposes, and two independent baselines
// (union-find and BFS labeling) used to cross-validate results.
//
// All SV variants converge to the same canonical labeling: every vertex
// carries the minimum vertex id of its connected component.
//
// Two deliberate deviations from the paper's pseudocode, both documented
// here because they affect instruction counts, not results:
//
//  1. Algorithm 2 compares cu ≤ cv; taken literally with the change flag
//     set inside the branch the loop never terminates (equal labels keep
//     signalling change). We use the strict cu < cv, which is what any
//     working implementation (including the paper's measured assembly,
//     judging by its termination) must do.
//  2. Algorithm 2 never refreshes cv after a label improvement; we keep
//     cv current (cv ← cu on the taken path), matching the "minimum label
//     among itself and its neighbors" semantics stated in the text.
package cc

import (
	"context"
	"fmt"
	"time"

	"bagraph/internal/core"
	"bagraph/internal/graph"
	"bagraph/internal/perfcount"
)

// SVBranchBased runs the branch-based Shiloach-Vishkin kernel
// (Algorithm 2) to completion in fresh memory — the reference oracle
// the other kernels are validated against.
func SVBranchBased(g *graph.Graph) ([]uint32, perfcount.Stats) {
	labels, st, _ := SV(context.Background(), g, core.BranchBased, nil)
	return labels, st
}

// SV runs sequential Shiloach-Vishkin label propagation with the inner
// loop variant selects. BranchBased branches on every label comparison
// and stores only improvements; BranchAvoiding feeds the comparison into
// an arithmetic conditional move, leaving the loop tests as the only
// branches and writing every label exactly once per pass (LabelStores is
// Passes × |V|); Hybrid starts branch-avoiding and switches once labels
// stabilize (below core.HybridChangeFraction of |V| changing in a
// pass).
//
// The labels are written into labels, reused by capacity (core.Fit);
// the returned slice aliases its memory when it was large enough.
//
// The context is observed between passes (never inside the inner loop,
// which stays exactly the paper's operation mix), and a cancelled run
// returns the labels computed so far alongside ctx's error.
func SV(ctx context.Context, g *graph.Graph, variant core.Variant, labels []uint32) ([]uint32, perfcount.Stats, error) {
	return sv(ctx, g, variant, core.HybridChangeFraction, labels)
}

// sv is SV with the Hybrid switch threshold as a parameter, so tests can
// force the crossover.
func sv(ctx context.Context, g *graph.Graph, variant core.Variant, threshold float64, labels []uint32) ([]uint32, perfcount.Stats, error) {
	n := g.NumVertices()
	labels = identity(core.Fit(labels, n))
	var st perfcount.Stats
	adj := g.Adjacency()
	offs := g.Offsets()

	avoiding := variant == core.BranchAvoiding || variant == core.Hybrid
	for change := true; change; {
		if err := ctx.Err(); err != nil {
			return labels, st, err
		}
		change = false
		changed := 0
		start := time.Now()
		if avoiding {
			var diffAccum uint32
			//ba:branch-free
			for v := 0; v < n; v++ {
				cinit := labels[v]
				cv := cinit
				for _, u := range adj[offs[v]:offs[v+1]] {
					cu := labels[u]
					// cv ← min(cv, cu) via mask select: no data branch.
					m := core.MaskLess32(cu, cv)
					cv = core.Select32(m, cu, cv)
				}
				labels[v] = cv
				st.LabelStores++
				diff := cv ^ cinit
				diffAccum |= diff
				// Branch-free change tally: diff != 0 contributes 1.
				changed += core.Bit(^core.MaskEqual32(diff, 0))
			}
			change = diffAccum != 0
		} else {
			for v := 0; v < n; v++ {
				cv := labels[v]
				cv0 := cv
				for _, u := range adj[offs[v]:offs[v+1]] {
					cu := labels[u]
					if cu < cv {
						cv = cu
						labels[v] = cu
						st.LabelStores++
						change = true
					}
				}
				if cv != cv0 {
					changed++
				}
			}
		}
		st.PassDurations = append(st.PassDurations, time.Since(start))
		st.PassChanges = append(st.PassChanges, changed)
		st.Passes++
		if variant == core.Hybrid && avoiding && float64(changed) < threshold*float64(n) {
			avoiding = false
		}
	}
	return labels, st, nil
}

// UnionFind computes components with a weighted quick-union with path
// halving in fresh memory — an independent baseline for
// cross-validating the SV kernels. Labels are canonicalized to the
// minimum vertex id per component.
func UnionFind(g *graph.Graph) []uint32 {
	return UnionFindInto(g, nil, nil)
}

// UnionFindInto is UnionFind writing the labeling into labels and the
// union-find forest into parent, both reused by capacity (core.Fit);
// the returned slice aliases labels' memory when it was large enough.
// Until the canonicalizing sweep, labels holds the roots' ranks.
func UnionFindInto(g *graph.Graph, labels, parent []uint32) []uint32 {
	n := g.NumVertices()
	labels, parent = core.Fit(labels, n), core.Fit(parent, n)
	rank := labels
	for i := range parent {
		parent[i] = uint32(i)
		rank[i] = 0
	}
	find := func(x uint32) uint32 {
		for parent[x] != x {
			parent[x] = parent[parent[x]] // path halving
			x = parent[x]
		}
		return x
	}
	for u := 0; u < n; u++ {
		for _, v := range g.Neighbors(uint32(u)) {
			ru, rv := find(uint32(u)), find(v)
			if ru == rv {
				continue
			}
			if rank[ru] < rank[rv] {
				ru, rv = rv, ru
			}
			parent[rv] = ru
			if rank[ru] == rank[rv] {
				rank[ru]++
			}
		}
	}
	// Canonicalize to min id per component: an ascending sweep meets a
	// component's minimum first and parks it in the root's slot, which
	// no other vertex's label occupies.
	const unset = ^uint32(0)
	for i := range labels {
		labels[i] = unset
	}
	for v := 0; v < n; v++ {
		r := find(uint32(v))
		if labels[r] == unset {
			labels[r] = uint32(v)
		}
		labels[v] = labels[r]
	}
	return labels
}

// ViaBFS computes components by sweeping vertices in ascending order and
// flood-filling each unvisited one. Because the sweep is ascending, every
// component is labeled with its minimum vertex id — the same canonical
// form the SV kernels converge to.
func ViaBFS(g *graph.Graph) []uint32 {
	n := g.NumVertices()
	labels := make([]uint32, n)
	const unset = ^uint32(0)
	for i := range labels {
		labels[i] = unset
	}
	queue := make([]uint32, 0, n)
	for s := 0; s < n; s++ {
		if labels[s] != unset {
			continue
		}
		root := uint32(s)
		labels[s] = root
		queue = append(queue[:0], root)
		for head := 0; head < len(queue); head++ {
			v := queue[head]
			for _, w := range g.Neighbors(v) {
				if labels[w] == unset {
					labels[w] = root
					queue = append(queue, w)
				}
			}
		}
	}
	return labels
}

// CountComponents returns the number of distinct labels. Canonical
// labelings keep every label below len(labels), so the tally is a flat
// boolean array — no per-vertex hash probe (whose data-dependent probe
// branches would be an own-goal in this repository); labels outside that
// range spill to a map that stays empty in practice.
func CountComponents(labels []uint32) int {
	n := len(labels)
	seen := make([]bool, n)
	count := 0
	var overflow map[uint32]struct{}
	for _, l := range labels {
		if int(l) < n {
			if !seen[l] {
				seen[l] = true
				count++
			}
		} else {
			if overflow == nil {
				overflow = make(map[uint32]struct{})
			}
			overflow[l] = struct{}{}
		}
	}
	return count + len(overflow)
}

// ComponentSizes returns the size of each component keyed by label. The
// per-vertex tally runs over a flat counter array (see CountComponents);
// the map is materialized once per distinct label at the end.
func ComponentSizes(labels []uint32) map[uint32]int {
	n := len(labels)
	tally := make([]int, n)
	sizes := make(map[uint32]int)
	for _, l := range labels {
		if int(l) < n {
			tally[l]++
		} else {
			sizes[l]++
		}
	}
	for l, c := range tally {
		if c > 0 {
			sizes[uint32(l)] = c
		}
	}
	return sizes
}

// Verify checks that labels is the canonical min-id component labeling of
// g: endpoints of every edge agree, every label is the minimum id of its
// component, and the labeling matches an independently computed one.
func Verify(g *graph.Graph, labels []uint32) error {
	n := g.NumVertices()
	if len(labels) != n {
		return fmt.Errorf("cc: %d labels for %d vertices", len(labels), n)
	}
	for u := 0; u < n; u++ {
		for _, v := range g.Neighbors(uint32(u)) {
			if labels[u] != labels[v] {
				return fmt.Errorf("cc: edge (%d,%d) spans labels %d,%d", u, v, labels[u], labels[v])
			}
		}
	}
	ref := ViaBFS(g)
	for v := 0; v < n; v++ {
		if labels[v] != ref[v] {
			return fmt.Errorf("cc: vertex %d labeled %d, reference %d", v, labels[v], ref[v])
		}
	}
	return nil
}
