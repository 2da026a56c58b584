// Package metis reads and writes the METIS graph format used by the 10th
// DIMACS Implementation Challenge — the distribution format of the
// paper's Table 2 graphs.
//
// Format: an optional run of '%' comment lines, a header "n m [fmt]", and
// then n lines where line i lists the (1-indexed) neighbors of vertex i.
// m is the number of undirected edges. The fmt field is read
// right-to-left: the last digit set means per-edge weights (each
// neighbor is followed by its integer weight), the middle digit
// per-vertex weights, the first vertex sizes. Read accepts only the
// unweighted format; ReadWeighted additionally accepts edge-weighted
// files ("1", "01", "001") and gives unweighted files unit weights.
// Vertex weights/sizes are not supported and return a descriptive error
// rather than being silently dropped, and edge weights that disagree
// between an edge's two endpoint lines are rejected.
package metis

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"bagraph/internal/graph"
)

// header is the parsed "n m [fmt]" line.
type header struct {
	n           int
	m           int64
	edgeWeights bool
}

// parseHeader validates the header line. The optional fourth field
// (ncon, the vertex-weight count) is only legal with vertex weights,
// which we reject.
func parseHeader(line string) (header, error) {
	fields := strings.Fields(line)
	if len(fields) < 2 || len(fields) > 4 {
		return header{}, fmt.Errorf("metis: malformed header %q", line)
	}
	n, err := strconv.Atoi(fields[0])
	if err != nil || n < 0 {
		return header{}, fmt.Errorf("metis: bad vertex count %q", fields[0])
	}
	// Checked here too, before the body is read; graph.Build would
	// refuse the count only after parsing every edge.
	if int64(n) > graph.MaxVertices {
		return header{}, fmt.Errorf("metis: vertex count %d exceeds the 2^31 limit", n)
	}
	m, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil || m < 0 {
		return header{}, fmt.Errorf("metis: bad edge count %q", fields[1])
	}
	// A simple undirected graph cannot hold more edges than n choose 2;
	// rejecting impossible headers here also keeps the declared count
	// safe to use as an allocation hint.
	if maxEdges := int64(n) * (int64(n) - 1) / 2; m > maxEdges {
		return header{}, fmt.Errorf("metis: header declares %d edges, impossible for %d vertices", m, n)
	}
	h := header{n: n, m: m}
	if len(fields) >= 3 {
		code := fields[2]
		if len(code) > 3 || strings.Trim(code, "01") != "" {
			return header{}, fmt.Errorf("metis: bad format code %q", code)
		}
		// Right-to-left: edge weights, vertex weights, vertex sizes.
		if strings.HasSuffix(code, "1") {
			h.edgeWeights = true
		}
		if len(code) >= 2 && code[len(code)-2] == '1' {
			return header{}, fmt.Errorf("metis: vertex weights (format %q) not supported", code)
		}
		if len(code) == 3 && code[0] == '1' {
			return header{}, fmt.Errorf("metis: vertex sizes (format %q) not supported", code)
		}
	}
	// The optional fourth field (ncon) accompanies vertex weights,
	// which this parser rejects above — so any 4-field header that
	// reaches here is malformed rather than merely unsupported.
	if len(fields) == 4 {
		return header{}, fmt.Errorf("metis: ncon field without vertex weights in header %q", line)
	}
	return h, nil
}

// Read parses an unweighted METIS graph. Weighted formats return a
// descriptive error rather than silently dropping weights; use
// ReadWeighted for files carrying per-edge weights.
func Read(r io.Reader) (*graph.Graph, error) {
	sc := newScanner(r)
	h, err := readHeader(sc)
	if err != nil {
		return nil, err
	}
	if h.edgeWeights {
		return nil, fmt.Errorf("metis: file carries edge weights; use ReadWeighted")
	}
	edges := make([]graph.Edge, 0, edgeHint(h.m))
	for v := 0; v < h.n; v++ {
		line, err := nextDataLine(sc)
		if err != nil {
			return nil, fmt.Errorf("metis: adjacency line for vertex %d: %w", v+1, err)
		}
		for _, tok := range strings.Fields(line) {
			w, err := parseNeighbor(tok, v, h.n)
			if err != nil {
				return nil, err
			}
			// Each undirected edge appears on both endpoint lines; keep
			// the canonical direction and let the builder symmetrize.
			if v+1 <= int(w) {
				edges = append(edges, graph.Edge{U: uint32(v), V: w - 1})
			}
		}
	}
	g, err := graph.Build(h.n, edges, graph.Options{})
	if err != nil {
		return nil, fmt.Errorf("metis: %w", err)
	}
	if g.NumEdges() != h.m {
		return nil, fmt.Errorf("metis: header declares %d edges, adjacency lists contain %d", h.m, g.NumEdges())
	}
	return g, nil
}

// ReadWeighted parses a METIS graph with optional per-edge weights
// (format code "1"). Files without edge weights parse with unit
// weights, so the result is always ready for the weighted kernels;
// Weighted reports whether the file carried explicit weights.
func ReadWeighted(r io.Reader) (*Weighted, error) {
	sc := newScanner(r)
	h, err := readHeader(sc)
	if err != nil {
		return nil, err
	}
	edges := make([]graph.WeightedEdge, 0, edgeHint(h.m))
	// Every undirected edge appears on both endpoint lines; the two
	// sightings must carry the same weight. seen records the first.
	var seen map[uint64]uint32
	if h.edgeWeights {
		seen = make(map[uint64]uint32, edgeHint(h.m))
	}
	for v := 0; v < h.n; v++ {
		line, err := nextDataLine(sc)
		if err != nil {
			return nil, fmt.Errorf("metis: adjacency line for vertex %d: %w", v+1, err)
		}
		toks := strings.Fields(line)
		if h.edgeWeights && len(toks)%2 != 0 {
			return nil, fmt.Errorf("metis: vertex %d: odd token count in weighted adjacency line", v+1)
		}
		step := 1
		if h.edgeWeights {
			step = 2
		}
		for i := 0; i < len(toks); i += step {
			w, err := parseNeighbor(toks[i], v, h.n)
			if err != nil {
				return nil, err
			}
			wt := uint32(1)
			if h.edgeWeights {
				parsed, err := strconv.ParseUint(toks[i+1], 10, 32)
				if err != nil {
					return nil, fmt.Errorf("metis: vertex %d: bad weight %q for neighbor %d", v+1, toks[i+1], w)
				}
				wt = uint32(parsed)
				lo, hi := uint32(v), w-1
				if lo > hi {
					lo, hi = hi, lo
				}
				key := uint64(lo)<<32 | uint64(hi)
				if prev, ok := seen[key]; ok {
					if prev != wt {
						return nil, fmt.Errorf("metis: edge (%d,%d) weighted %d and %d on its two endpoint lines", lo+1, hi+1, prev, wt)
					}
				} else {
					seen[key] = wt
				}
			}
			if v+1 <= int(w) {
				edges = append(edges, graph.WeightedEdge{U: uint32(v), V: w - 1, W: wt})
			}
		}
	}
	g, err := graph.BuildWeighted(h.n, edges, "")
	if err != nil {
		return nil, fmt.Errorf("metis: %w", err)
	}
	if g.NumEdges() != h.m {
		return nil, fmt.Errorf("metis: header declares %d edges, adjacency lists contain %d", h.m, g.NumEdges())
	}
	return &Weighted{Weighted: g, HasWeights: h.edgeWeights}, nil
}

// Weighted is ReadWeighted's result: the weighted graph plus whether
// the file carried explicit edge weights (false means unit weights
// were synthesized).
type Weighted struct {
	*graph.Weighted
	HasWeights bool
}

// edgeHint bounds the header's declared edge count before it is used
// as an allocation size: the header is untrusted input, and a absurd
// count must cost a few reallocations, not an up-front allocation.
func edgeHint(m int64) int64 {
	const max = 1 << 20
	if m > max {
		return max
	}
	return m
}

// newScanner sizes a line scanner for adjacency lines of large graphs.
func newScanner(r io.Reader) *bufio.Scanner {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	return sc
}

// readHeader consumes comments and parses the header line.
func readHeader(sc *bufio.Scanner) (header, error) {
	line, err := nextDataLine(sc)
	if err != nil {
		return header{}, fmt.Errorf("metis: missing header: %w", err)
	}
	return parseHeader(line)
}

// parseNeighbor validates one 1-indexed neighbor token.
func parseNeighbor(tok string, v, n int) (uint32, error) {
	w, err := strconv.Atoi(tok)
	if err != nil {
		return 0, fmt.Errorf("metis: vertex %d: bad neighbor %q", v+1, tok)
	}
	if w < 1 || w > n {
		return 0, fmt.Errorf("metis: vertex %d: neighbor %d out of range [1, %d]", v+1, w, n)
	}
	return uint32(w), nil
}

// nextDataLine returns the next non-comment line, which may be empty (an
// isolated vertex has an empty adjacency line). Comment lines start with
// '%'.
func nextDataLine(sc *bufio.Scanner) (string, error) {
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(strings.TrimSpace(line), "%") {
			continue
		}
		return line, nil
	}
	if err := sc.Err(); err != nil {
		return "", err
	}
	return "", io.ErrUnexpectedEOF
}

// Write serializes g in METIS format.
func Write(w io.Writer, g *graph.Graph) error {
	return write(w, g, nil)
}

// WriteWeighted serializes g with its per-edge weights (format code
// "001").
func WriteWeighted(w io.Writer, g *graph.Weighted) error {
	return write(w, g.Graph, g.ArcWeights())
}

// write emits the shared format; a non-nil weights array (aligned with
// the adjacency array) selects the edge-weighted variant.
func write(w io.Writer, g *graph.Graph, weights []uint32) error {
	bw := bufio.NewWriter(w)
	if g.Name() != "" {
		fmt.Fprintf(bw, "%% %s\n", g.Name())
	}
	if weights != nil {
		fmt.Fprintf(bw, "%d %d 001\n", g.NumVertices(), g.NumEdges())
	} else {
		fmt.Fprintf(bw, "%d %d\n", g.NumVertices(), g.NumEdges())
	}
	n := g.NumVertices()
	offs := g.Offsets()
	for v := 0; v < n; v++ {
		nb := g.Neighbors(uint32(v))
		for i, u := range nb {
			if i > 0 {
				if err := bw.WriteByte(' '); err != nil {
					return err
				}
			}
			if _, err := bw.WriteString(strconv.Itoa(int(u) + 1)); err != nil {
				return err
			}
			if weights != nil {
				if err := bw.WriteByte(' '); err != nil {
					return err
				}
				if _, err := bw.WriteString(strconv.FormatUint(uint64(weights[offs[v]+int64(i)]), 10)); err != nil {
					return err
				}
			}
		}
		if err := bw.WriteByte('\n'); err != nil {
			return err
		}
	}
	return bw.Flush()
}
