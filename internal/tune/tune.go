// Package tune is the serving-time analogue of the paper's hybrid
// predictor: an adaptive controller that picks the performance knobs
// of each kernel dispatch — chunk schedule, delta-stepping bucket
// width, and the branch-based/branch-avoiding/hybrid cutover — per
// (graph, kernel) from the live Stats counters the unified Run API
// returns, instead of a static flag chosen at daemon start.
//
// Every knob the controller turns is result-invariant by construction:
// bb/ba/hybrid are the same algorithm with different branch structure
// (the paper's premise), schedule and chunking only redistribute the
// same work, and delta only re-buckets the same relaxations. A
// Decision can therefore never change an answer, only its latency —
// the byte-identity property tests pin exactly that across the corpus.
//
// The bb/ba cutover is seeded from internal/predictor, the seed's
// model of the paper's §3: a 2-bit saturating counter is simulated
// over traces of varying taken-fractions to find the per-pass
// change fraction at which the branch-based kernel's misprediction
// cost overtakes the branch-avoiding kernel's unconditional-store
// overhead. Observed per-pass change fractions from live traffic then
// classify each (graph, kernel) cell against that threshold.
package tune

import (
	"sync"

	"bagraph"
	"bagraph/internal/predictor"
)

// Kernel kind names, matching the serving layer's query families.
const (
	KindCC   = "cc"
	KindBFS  = "bfs"
	KindSSSP = "sssp"
	KindMS   = "ms"
)

// Workload identifies one (graph, kernel) cell and carries the static
// shape facts a first decision needs before any run has been observed.
type Workload struct {
	// Graph and Epoch identify the resident graph; a replaced graph
	// (new epoch) starts a fresh cell, mirroring the serve layer's
	// cache retirement.
	Graph string
	Epoch uint64
	// Kind is the kernel family (KindCC, KindBFS, KindSSSP, KindMS).
	Kind string
	// Vertices and Arcs size the graph.
	Vertices int
	Arcs     int64
	// MaxDegree is the largest vertex degree — with Workers it bounds
	// the arc skew any static partition can suffer.
	MaxDegree int
	// Workers is the resident pool size the dispatch will use.
	Workers int
	// DefaultDelta is the graph's precomputed delta-stepping bucket
	// width (KindSSSP); the delta decision scales it.
	DefaultDelta uint64
}

// Decision is the controller's pick for one dispatch.
type Decision struct {
	// Algo is the canonical serving-layer algorithm name for the cell's
	// kind (e.g. "par-ba"); it resolves the query-level "auto" request.
	Algo string
	// Schedule is the chunk schedule for the parallel kernels.
	Schedule bagraph.Schedule
	// Delta is the delta-stepping bucket width (KindSSSP; 0 keeps the
	// kernel default).
	Delta uint64
}

// Controller tuning constants. Exported so tests and docs state the
// contract once.
const (
	// SkewThreshold is the structural arc-skew above which a cell
	// starts under the stealing schedule: one vertex's arcs exceeding
	// half a worker's fair share means a static partition can stall a
	// pass barrier behind that block.
	SkewThreshold = 0.5
	// SettleRuns is how many observed runs a cell accumulates before
	// it revisits a knob — decisions must be stable under batched
	// traffic, not flap per query.
	SettleRuns = 8
	// stealFloor is the steals-per-pass EWMA below which a stealing
	// cell falls back to static: the scheduler is paying chunk-cursor
	// traffic without shedding any work.
	stealFloor = 0.5
	// bucketsHigh and bucketsLow bound the observed bucket count per
	// SSSP run: above the high mark delta doubles (fewer, fuller
	// buckets), below the low mark — when relaxation blow-up says the
	// buckets are too coarse — it halves.
	bucketsHigh = 128
	bucketsLow  = 8
	// blowupHigh is the candidate-store amplification (CandStores per
	// applied distance store) above which the cell considers a finer
	// delta: work is being re-relaxed, the signature of over-wide
	// buckets.
	blowupHigh = 2.0
	// deltaShiftMin/Max clamp the delta scaling to 2^-4 .. 2^8 of the
	// graph default.
	deltaShiftMin = -4
	deltaShiftMax = 8
	// ewmaAlpha is the weight of the newest observation.
	ewmaAlpha = 0.25
	// missPenalty and storeCost are the cycle-scale constants behind
	// the predictor-seeded cutover: a mispredicted branch costs a
	// pipeline flush (~16 cycles, the paper's §2 ballpark), the
	// branch-avoiding rewrite costs an always-executed store-and-mask
	// (~2 cycles) per edge.
	missPenalty = 16.0
	storeCost   = 2.0
)

// key identifies a cell.
type key struct {
	graph string
	epoch uint64
	kind  string
}

// ewma is an exponentially weighted moving average that treats its
// first sample as the baseline.
type ewma struct {
	v      float64
	primed bool
}

func (e *ewma) add(x float64) {
	if !e.primed {
		e.v, e.primed = x, true
		return
	}
	e.v += ewmaAlpha * (x - e.v)
}

// cell is the per-(graph, kernel) adaptive state.
type cell struct {
	runs int

	schedule     bagraph.Schedule
	schedSettled bool // fell back to static: no more steal counters, stay
	stealRate    ewma

	algo     string
	hiPasses uint64 // passes observed with change fraction >= cutover
	loPasses uint64

	deltaShift       int
	sinceDeltaChange int
	buckets          ewma
	blowup           ewma
}

// Controller holds the adaptive cells. All methods are safe for
// concurrent use; Decide and Observe take one short mutex hold each —
// negligible next to the kernel run they bracket.
type Controller struct {
	cutover float64
	mu      sync.Mutex
	cells   map[key]*cell
}

// New returns a controller with the bb/ba cutover seeded from the
// 2-bit predictor model.
func New() *Controller {
	return &Controller{cutover: CutoverFraction(), cells: make(map[key]*cell)}
}

// Cutover returns the seeded change-fraction threshold: per-pass
// change fractions at or above it make the branch-based kernel's
// predicted misprediction cost exceed the branch-avoiding overhead.
func (c *Controller) Cutover() float64 { return c.cutover }

// cellFor returns (creating if needed) the cell for w. Callers hold
// c.mu.
func (c *Controller) cellFor(w Workload) *cell {
	k := key{w.Graph, w.Epoch, w.Kind}
	cl := c.cells[k]
	if cl == nil {
		cl = &cell{schedule: initialSchedule(w), algo: defaultAlgo(w.Kind)}
		c.cells[k] = cl
	}
	return cl
}

// initialSchedule picks the first schedule from graph structure alone:
// steal when the largest vertex's arcs exceed SkewThreshold of one
// worker's fair share — the forced-skew case where a static partition
// must hand some worker a hub-dominated block.
func initialSchedule(w Workload) bagraph.Schedule {
	if w.Arcs <= 0 || w.Workers <= 1 {
		return bagraph.ScheduleStatic
	}
	skew := float64(w.MaxDegree) * float64(w.Workers) / float64(w.Arcs)
	if skew > SkewThreshold {
		return bagraph.ScheduleStealing
	}
	return bagraph.ScheduleStatic
}

// defaultAlgo is the untrained pick per kind: the hybrids, the paper's
// §6.2 recommendation, until live counters say a pure form is safe.
func defaultAlgo(kind string) string {
	switch kind {
	case KindCC, KindSSSP:
		return "par-hybrid"
	case KindMS:
		return "ms"
	default:
		return "par-do"
	}
}

// Decide returns the controller's current pick for one dispatch
// against w.
func (c *Controller) Decide(w Workload) Decision {
	c.mu.Lock()
	defer c.mu.Unlock()
	cl := c.cellFor(w)
	d := Decision{Algo: cl.algo, Schedule: cl.schedule}
	if w.Kind == KindSSSP {
		d.Delta = shiftDelta(w.DefaultDelta, cl.deltaShift)
	}
	return d
}

// shiftDelta scales the default bucket width by 2^shift, clamped to
// stay a positive width.
func shiftDelta(delta uint64, shift int) uint64 {
	if delta == 0 {
		return 0
	}
	switch {
	case shift > 0:
		return delta << uint(shift)
	case shift < 0:
		d := delta >> uint(-shift)
		if d == 0 {
			return 1
		}
		return d
	default:
		return delta
	}
}

// Observe feeds one completed run's counters back into w's cell. n
// passes of the kernel's Stats drive three independent knobs:
//
//   - schedule: a stealing cell whose steals-per-pass EWMA sits below
//     stealFloor after SettleRuns falls back to static — the skew the
//     structure suggested is not materializing in this traffic;
//   - algo: each pass's changed-vertex fraction is classified against
//     the predictor-seeded cutover; a cell whose passes are all on one
//     side settles on the pure kernel for that side, mixed cells stay
//     hybrid;
//   - delta (KindSSSP): bucket-count and candidate-blow-up EWMAs widen
//     or narrow the bucket width one power of two per SettleRuns.
func (c *Controller) Observe(w Workload, st bagraph.Stats) {
	c.mu.Lock()
	defer c.mu.Unlock()
	cl := c.cellFor(w)
	cl.runs++

	// Schedule: only stealing runs carry steal counters.
	if cl.schedule == bagraph.ScheduleStealing && st.Chunks > 0 {
		cl.stealRate.add(st.StealsPerPass())
		if !cl.schedSettled && cl.runs >= SettleRuns && cl.stealRate.v < stealFloor {
			cl.schedule = bagraph.ScheduleStatic
			cl.schedSettled = true
		}
	}

	// Algo: classify each observed pass's change fraction against the
	// cutover. BFS kernels report no PassChanges; their cells keep the
	// direction-optimizing default. Parallel CC reports its seed's BFS
	// levels and fill as passes too, so a one-component graph — where
	// no propagation pass runs and the pick cannot change the work —
	// classifies seed passes only.
	if w.Vertices > 0 {
		for _, changed := range st.PassChanges {
			f := float64(changed) / float64(w.Vertices)
			if f >= c.cutover {
				cl.hiPasses++
			} else {
				cl.loPasses++
			}
		}
	}
	if (w.Kind == KindCC || w.Kind == KindSSSP) && cl.runs >= SettleRuns {
		total := cl.hiPasses + cl.loPasses
		switch {
		case total == 0:
			// Nothing classified: every observed run was on a zero-vertex
			// workload or reported no PassChanges. Keep the hybrid.
		case cl.hiPasses == 0:
			cl.algo = "par-bb" // every pass predictable: branches are free
		case cl.loPasses == 0:
			cl.algo = "par-ba" // every pass churns: avoid the branches
		default:
			cl.algo = "par-hybrid" // churn then convergence: the paper's cutover
		}
	}

	// Delta: SSSP only.
	if w.Kind == KindSSSP {
		if st.Buckets > 0 {
			cl.buckets.add(float64(st.Buckets))
		}
		if st.DistStores > 0 {
			cl.blowup.add(float64(st.CandStores) / float64(st.DistStores))
		}
		cl.sinceDeltaChange++
		if cl.sinceDeltaChange >= SettleRuns && cl.buckets.primed {
			switch {
			case cl.buckets.v > bucketsHigh && cl.deltaShift < deltaShiftMax:
				cl.deltaShift++
				cl.sinceDeltaChange = 0
			case cl.buckets.v < bucketsLow && cl.blowup.primed &&
				cl.blowup.v > blowupHigh && cl.deltaShift > deltaShiftMin:
				cl.deltaShift--
				cl.sinceDeltaChange = 0
			}
		}
	}
}

// Runs reports how many runs w's cell has observed (0 for an unseen
// cell) — the warm-up observability hook.
func (c *Controller) Runs(w Workload) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	cl := c.cells[key{w.Graph, w.Epoch, w.Kind}]
	if cl == nil {
		return 0
	}
	return cl.runs
}

// MispredictRate estimates the steady-state misprediction rate of the
// paper's 2-bit saturating counter on a branch taken with probability
// p, by simulating predictor.TwoBitUnit over a deterministic
// low-discrepancy trace (Bresenham-spread takes, no RNG: the estimate
// is reproducible and the controller stays bit-deterministic).
func MispredictRate(p float64) float64 {
	if p <= 0 || p >= 1 {
		return 0
	}
	u := predictor.NewTwoBit(predictor.WeaklyNotTaken)
	const n = 4096
	misses, acc := 0, 0.0
	for i := 0; i < n; i++ {
		acc += p
		taken := acc >= 1
		if taken {
			acc -= 1
		}
		if predictor.Observe(u, 0, taken) {
			misses++
		}
	}
	return float64(misses) / n
}

// CutoverFraction derives the per-pass change-fraction threshold at
// which the branch-avoiding kernel starts winning: the smallest
// fraction whose predicted misprediction cost (MispredictRate ×
// missPenalty per edge-test) exceeds the branch-avoiding rewrite's
// constant store overhead. The scan is over [0, 0.5] — beyond one half
// the branch is taken-majority and the 2-bit counter tracks it again,
// but SV/delta-stepping passes converge downward through exactly this
// range, which is what the hybrid's switch rides.
func CutoverFraction() float64 {
	target := storeCost / missPenalty
	for f := 0.01; f <= 0.5; f += 0.01 {
		if MispredictRate(f) >= target {
			return f
		}
	}
	return 0.5
}
