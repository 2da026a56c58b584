package perfcount

import "time"

// Stats is the observability record of one native kernel run: the
// software-visible counters the paper measures (passes, per-pass
// changes, store counts), normalized across the kernel families. Every
// kernel in internal/cc, internal/bfs and internal/sssp fills this one
// record directly and bagraph.Run returns it unchanged; fields not
// meaningful for a family stay zero.
type Stats struct {
	// Passes counts outer iterations: SV passes (including the final
	// pass that observes no change), BFS levels (shared sweeps for the
	// multi-source kernel), SSSP relaxation passes. Parallel CC counts
	// every barrier pass it dispatches: its seed's BFS levels, the fill
	// and each propagation pass.
	Passes int
	// PassDurations holds per-pass wall-clock times.
	PassDurations []time.Duration
	// PassChanges holds per-pass changed-vertex counts (CC and SSSP); a
	// parallel CC seed level counts the frontier it settled.
	PassChanges []int
	// LevelSizes holds per-level frontier sizes (single-source BFS and
	// the parallel CC seed).
	LevelSizes []int
	// TopDownLevels and BottomUpLevels split BFS levels by traversal
	// direction: pure top-down kernels count every level as top-down,
	// the direction-optimizing kernels record which way the Beamer
	// heuristic went.
	TopDownLevels, BottomUpLevels int
	// Waves counts 64-source sweeps (multi-source BFS).
	Waves int
	// Reached counts discovered vertices including the root (BFS;
	// source-vertex pairs for multi-source BFS; the seeded component's
	// size for parallel CC).
	Reached int
	// LabelStores counts label-array writes (CC).
	LabelStores uint64
	// DistStores counts distance-array writes (BFS and SSSP).
	DistStores uint64
	// QueueStores counts frontier-queue writes (BFS); the
	// branch-avoiding store blow-up of the paper's §5.2 shows up here.
	QueueStores uint64
	// CandStores counts candidate-buffer writes in the parallel SSSP
	// scatter (the §5.2 blow-up with the candidate buffer in the
	// queue's role).
	CandStores uint64
	// Buckets counts delta-stepping bucket activations (parallel SSSP).
	Buckets int
	// Chunks counts scheduler chunks executed across all passes of a
	// parallel kernel, under either schedule (zero only for sequential
	// kernels); Steals counts the chunks run by a worker that did not
	// own them, and StealPasses the victim-selection scans behind
	// those steals — both necessarily zero under the static schedule.
	Chunks      int
	Steals      uint64
	StealPasses uint64
	// LightRelaxed counts the parallel SSSP kernel's applied
	// relaxations: every candidate that lowered a distance when folded.
	// The name survives from a removed split of arcs into light and
	// heavy classes, where it counted the light class only.
	LightRelaxed uint64
	// WordsScanned counts the non-empty vertex-set words the parallel
	// BFS kernels swept for candidates, summed over their sweeps — the
	// frontier-locality proxy that drops under a hub-clustered layout.
	// For single-source BFS (including the parallel CC seed) the set is
	// a bottom-up level's unvisited vertices; for multi-source BFS it is
	// a level's active vertices, those some search in the wave has not
	// yet reached. Exact, and the same at any worker count and schedule.
	// Zero for SSSP and the sequential kernels.
	WordsScanned uint64
}

// StealsPerPass returns the average number of stolen chunks per pass —
// the load-imbalance signal the autotuner and /metrics watch. Zero when
// no passes ran or the schedule was static.
func (s Stats) StealsPerPass() float64 {
	if s.Passes == 0 {
		return 0
	}
	return float64(s.Steals) / float64(s.Passes)
}

// Total returns the summed wall-clock time of all passes.
func (s Stats) Total() time.Duration {
	var t time.Duration
	for _, d := range s.PassDurations {
		t += d
	}
	return t
}
