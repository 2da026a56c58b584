// Package bc implements betweenness centrality (Brandes' algorithm) with
// a branch-avoiding forward phase — one of the extensions the paper's §1
// names explicitly ("betweenness centrality [26, 10]").
//
// Brandes' forward phase is a top-down BFS that additionally accumulates
// shortest-path counts (sigma); its discovery branch and its
// "is w on the next level" test are both data-dependent, so the paper's
// transformation applies to each: the queue write becomes unconditional
// with a predicated tail advance (exactly Algorithm 5), and the sigma
// accumulation becomes an unconditional load-modify-store whose addend is
// masked to zero for non-successors. As with BFS, the price is O(|E|)
// stores per source instead of O(|V|) — the negative-result side of the
// paper, inherited by the heavier kernel. The backward (dependency)
// phase is shared verbatim by both variants.
package bc

import (
	"fmt"
	"math"

	"bagraph/internal/core"
	"bagraph/internal/graph"
)

const inf = ^uint32(0)

// Stats describes one full betweenness computation.
type Stats struct {
	// Sources is the number of BFS sources processed (|V|).
	Sources int
	// DistStores and SigmaStores count writes to the per-source distance
	// and sigma arrays across all sources; QueueStores counts queue
	// writes. The branch-avoiding variant's store blow-up shows up here.
	DistStores  uint64
	SigmaStores uint64
	QueueStores uint64
}

// state carries the per-source scratch arrays, reused across sources.
type state struct {
	dist  []uint32
	sigma []float64
	delta []float64
	queue []uint32
}

func newState(n int) *state {
	return &state{
		dist:  make([]uint32, n),
		sigma: make([]float64, n),
		delta: make([]float64, n),
		queue: make([]uint32, 0, n),
	}
}

func (s *state) reset(n int) {
	for i := 0; i < n; i++ {
		s.dist[i] = inf
		s.sigma[i] = 0
		s.delta[i] = 0
	}
	s.queue = s.queue[:0]
}

// BranchBased computes exact betweenness centrality for every vertex of
// an undirected, unweighted graph with the classical branch-based
// forward phase.
func BranchBased(g *graph.Graph) ([]float64, Stats) {
	return brandes(g, forwardBranchBased)
}

// BranchAvoiding computes the same centralities with the branch-avoiding
// forward phase. Results are bit-identical to BranchBased: the two
// forward phases perform the same floating-point operations in the same
// order; only the control flow differs.
func BranchAvoiding(g *graph.Graph) ([]float64, Stats) {
	return brandes(g, forwardBranchAvoiding)
}

func brandes(g *graph.Graph, forward func(*graph.Graph, uint32, *state, *Stats)) ([]float64, Stats) {
	n := g.NumVertices()
	bc := make([]float64, n)
	var st Stats
	scratch := newState(n)
	for s := 0; s < n; s++ {
		scratch.reset(n)
		forward(g, uint32(s), scratch, &st)
		accumulate(g, uint32(s), scratch, bc)
		st.Sources++
	}
	// Each pair is counted from both endpoints.
	for i := range bc {
		bc[i] /= 2
	}
	return bc, st
}

// forwardBranchBased is Brandes' BFS with sigma accumulation, branch
// style (paper Algorithm 4 plus the successor test).
func forwardBranchBased(g *graph.Graph, s uint32, sc *state, st *Stats) {
	adj := g.Adjacency()
	offs := g.Offsets()
	sc.dist[s] = 0
	sc.sigma[s] = 1
	sc.queue = append(sc.queue, s)
	st.DistStores++
	st.SigmaStores++
	st.QueueStores++
	for head := 0; head < len(sc.queue); head++ {
		v := sc.queue[head]
		next := sc.dist[v] + 1
		sv := sc.sigma[v]
		for j := offs[v]; j < offs[v+1]; j++ {
			w := adj[j]
			if sc.dist[w] == inf {
				sc.dist[w] = next
				st.DistStores++
				sc.queue = append(sc.queue, w)
				st.QueueStores++
			}
			if sc.dist[w] == next {
				sc.sigma[w] += sv
				st.SigmaStores++
			}
		}
	}
}

// forwardBranchAvoiding replaces both data-dependent branches with
// predicated operations: the queue slot is written unconditionally and
// the tail advanced by a mask bit (Algorithm 5), and sigma[w] is
// read-modified-written unconditionally with a masked addend.
func forwardBranchAvoiding(g *graph.Graph, s uint32, sc *state, st *Stats) {
	adj := g.Adjacency()
	offs := g.Offsets()
	sc.dist[s] = 0
	sc.sigma[s] = 1
	st.DistStores++
	st.SigmaStores++
	// The queue needs full capacity for unconditional tail writes.
	q := sc.queue[:cap(sc.queue)]
	if len(q) < g.NumVertices()+1 {
		q = make([]uint32, g.NumVertices()+1)
	}
	q[0] = s
	st.QueueStores++
	head, tail := 0, 1
	for head < tail {
		v := q[head]
		head++
		next := sc.dist[v] + 1
		sv := sc.sigma[v]
		for j := offs[v]; j < offs[v+1]; j++ {
			w := adj[j]
			temp := sc.dist[w]
			// Unconditional queue write, predicated tail advance.
			q[tail] = w
			st.QueueStores++
			isNew := core.MaskGreater32(temp, next)
			temp = core.Select32(isNew, next, temp)
			tail += core.Bit(isNew)
			sc.dist[w] = temp
			st.DistStores++
			// Masked sigma accumulation: addend is sv when w sits on the
			// next level, else 0. Unconditional load-modify-store.
			onNext := core.MaskEqual32(temp, next)
			addend := sv * float64(core.Bit(onNext))
			sc.sigma[w] += addend
			st.SigmaStores++
		}
	}
	sc.queue = q[:tail]
}

// accumulate runs the (shared) backward dependency phase and folds the
// per-source dependencies into bc.
func accumulate(g *graph.Graph, s uint32, sc *state, bc []float64) {
	adj := g.Adjacency()
	offs := g.Offsets()
	// Reverse BFS order: vertices farthest from s first.
	for i := len(sc.queue) - 1; i >= 0; i-- {
		v := sc.queue[i]
		dv := sc.dist[v]
		coeff := 0.0
		for j := offs[v]; j < offs[v+1]; j++ {
			w := adj[j]
			if sc.dist[w] == dv+1 {
				coeff += (1 + sc.delta[w]) / sc.sigma[w]
			}
		}
		sc.delta[v] = sc.sigma[v] * coeff
		if v != s {
			bc[v] += sc.delta[v]
		}
	}
}

// Verify checks a betweenness vector against an independently computed
// reference (brute-force path counting), within tolerance. Intended for
// small graphs in tests.
func Verify(g *graph.Graph, got []float64, tol float64) error {
	want := Reference(g)
	if len(got) != len(want) {
		return fmt.Errorf("bc: %d values for %d vertices", len(got), len(want))
	}
	for v := range want {
		if math.Abs(got[v]-want[v]) > tol {
			return fmt.Errorf("bc: vertex %d: got %.6f, reference %.6f", v, got[v], want[v])
		}
	}
	return nil
}

// Reference computes exact betweenness by brute force: for every ordered
// pair (s, t), count shortest s-t paths through each intermediate vertex
// via BFS path counting from both endpoints. O(V·(V+E)) time, O(V²) used
// only in spirit — fine for test-sized graphs.
func Reference(g *graph.Graph) []float64 {
	n := g.NumVertices()
	bc := make([]float64, n)
	distFrom := make([][]uint32, n)
	countFrom := make([][]float64, n)
	for s := 0; s < n; s++ {
		distFrom[s], countFrom[s] = bfsCounts(g, uint32(s))
	}
	for s := 0; s < n; s++ {
		for t := 0; t < n; t++ {
			if s == t || distFrom[s][t] == inf {
				continue
			}
			total := countFrom[s][t]
			for v := 0; v < n; v++ {
				if v == s || v == t {
					continue
				}
				// v lies on a shortest s-t path iff the distances add up.
				if distFrom[s][v] != inf && distFrom[t][v] != inf &&
					distFrom[s][v]+distFrom[t][v] == distFrom[s][t] {
					bc[v] += countFrom[s][v] * countFrom[t][v] / total
				}
			}
		}
	}
	// Ordered pairs count each unordered pair twice.
	for i := range bc {
		bc[i] /= 2
	}
	return bc
}

func bfsCounts(g *graph.Graph, s uint32) ([]uint32, []float64) {
	n := g.NumVertices()
	dist := make([]uint32, n)
	count := make([]float64, n)
	for i := range dist {
		dist[i] = inf
	}
	dist[s] = 0
	count[s] = 1
	queue := []uint32{s}
	for head := 0; head < len(queue); head++ {
		v := queue[head]
		for _, w := range g.Neighbors(v) {
			if dist[w] == inf {
				dist[w] = dist[v] + 1
				queue = append(queue, w)
			}
			if dist[w] == dist[v]+1 {
				count[w] += count[v]
			}
		}
	}
	return dist, count
}
