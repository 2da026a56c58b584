// Package bitset implements a dense fixed-capacity bitset with an
// optional succinct rank directory.
//
// BFS frontiers and visited sets are the primary users. The representation
// is a flat []uint64, one bit per element, which keeps the memory footprint
// at |V|/8 bytes and makes clearing between searches a memclr.
//
// The rank directory (BuildRank) adds one uint32 of cumulative popcount
// per 512-bit block — a 1/128 space overhead — and lets scans skip whole
// empty blocks: NextSetIn consults it to jump over runs of zero words,
// and Rank/Select answer position queries without rescanning. The
// directory is a snapshot; see BuildRank for the staleness contract the
// kernels rely on (bits may be cleared after a build, never set).
package bitset

import "math/bits"

const (
	wordBits = 64
	// rankBlockWords is the rank-directory granularity: 8 words = 512
	// bits per block, one cache line of payload per directory entry.
	rankBlockWords = 8
	rankBlockBits  = rankBlockWords * wordBits
)

// Set is a fixed-capacity bitset over the universe [0, Len()).
type Set struct {
	words []uint64
	n     int
	// rank[b] is the number of set bits in blocks [0, b) as of the last
	// BuildRank; len numBlocks+1, empty until built (bulk mutators drop
	// it back to empty).
	rank []uint32
}

// New returns a bitset with capacity for n elements, all cleared.
func New(n int) *Set {
	if n < 0 {
		panic("bitset: negative size")
	}
	return &Set{words: make([]uint64, (n+wordBits-1)/wordBits), n: n}
}

// Len returns the capacity of the set (the size of the universe).
func (s *Set) Len() int { return s.n }

// Set sets bit i.
func (s *Set) Set(i int) {
	s.words[i/wordBits] |= 1 << (uint(i) % wordBits)
}

// Clear clears bit i.
func (s *Set) Clear(i int) {
	s.words[i/wordBits] &^= 1 << (uint(i) % wordBits)
}

// Test reports whether bit i is set.
func (s *Set) Test(i int) bool {
	return s.words[i/wordBits]&(1<<(uint(i)%wordBits)) != 0
}

// TestAndSet sets bit i and reports whether it was previously set.
func (s *Set) TestAndSet(i int) bool {
	w, b := i/wordBits, uint64(1)<<(uint(i)%wordBits)
	old := s.words[w]&b != 0
	s.words[w] |= b
	return old
}

// Reset clears every bit and drops the rank directory (the built
// snapshot describes contents that no longer exist).
func (s *Set) Reset() {
	for i := range s.words {
		s.words[i] = 0
	}
	s.rank = s.rank[:0]
}

// SetAll sets every bit in [0, Len()) and drops the rank directory.
// Bits of the final partial word beyond Len() stay zero, preserving the
// Count/NextSet invariants.
func (s *Set) SetAll() {
	for i := range s.words {
		s.words[i] = ^uint64(0)
	}
	if tail := uint(s.n % wordBits); tail != 0 {
		s.words[len(s.words)-1] = (uint64(1) << tail) - 1
	}
	s.rank = s.rank[:0]
}

// Count returns the number of set bits.
func (s *Set) Count() int {
	c := 0
	for _, w := range s.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// Any reports whether at least one bit is set.
func (s *Set) Any() bool {
	for _, w := range s.words {
		if w != 0 {
			return true
		}
	}
	return false
}

// ForEach calls fn for every set bit in increasing order.
func (s *Set) ForEach(fn func(i int)) {
	for wi, w := range s.words {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			fn(wi*wordBits + b)
			w &= w - 1
		}
	}
}

// NextSet returns the index of the first set bit at or after i, or -1 if
// there is none. When a rank directory is present the scan skips
// directory-empty blocks (see NextSetIn for the staleness contract).
func (s *Set) NextSet(i int) int {
	j, _ := s.NextSetIn(i, s.n)
	return j
}

// NextSetIn returns the index of the first set bit in [i, hi), or -1 if
// the range holds none, along with the number of 64-bit words the scan
// actually loaded — the locality proxy the bottom-up BFS reports.
//
// When a rank directory is present (BuildRank), whole 8-word blocks
// whose directory popcount is zero are skipped without touching their
// words. A stale directory is safe as long as no bit has been SET since
// the build: clearing bits only makes blocks emptier, so a block that
// was empty at build time is still empty, and non-empty directory
// entries merely cost the normal word scan. Callers that set bits after
// a build must Reset or rebuild first.
func (s *Set) NextSetIn(i, hi int) (idx, wordsScanned int) {
	if hi > s.n {
		hi = s.n
	}
	if i < 0 {
		i = 0
	}
	if i >= hi {
		return -1, 0
	}
	wi := i / wordBits
	last := (hi - 1) / wordBits
	w := s.words[wi] >> (uint(i) % wordBits)
	scanned := 1
	if w != 0 {
		if j := i + bits.TrailingZeros64(w); j < hi {
			return j, scanned
		}
		return -1, scanned
	}
	ranked := len(s.rank) != 0
	for wi++; wi <= last; {
		if ranked && wi%rankBlockWords == 0 {
			if b := wi / rankBlockWords; s.rank[b+1] == s.rank[b] {
				wi += rankBlockWords
				continue
			}
		}
		scanned++
		if w := s.words[wi]; w != 0 {
			if j := wi*wordBits + bits.TrailingZeros64(w); j < hi {
				return j, scanned
			}
			return -1, scanned
		}
		wi++
	}
	return -1, scanned
}

// BuildRank (re)builds the rank directory: one cumulative uint32
// popcount per 512-bit block. Costs one linear popcount pass; call it
// single-threaded at a pass barrier. The directory is a snapshot — the
// point mutators (Set, Clear, TestAndSet) deliberately leave it stale so
// the hot kernel loops stay store-free and race-free, and scans remain
// CORRECT only while bits are cleared, never set, after the build. The
// bulk mutators (Reset, SetAll) drop the directory entirely.
func (s *Set) BuildRank() {
	nb := (len(s.words) + rankBlockWords - 1) / rankBlockWords
	if cap(s.rank) < nb+1 {
		s.rank = make([]uint32, nb+1)
	}
	s.rank = s.rank[:nb+1]
	c := uint32(0)
	s.rank[0] = 0
	for b := 0; b < nb; b++ {
		lo := b * rankBlockWords
		hi := lo + rankBlockWords
		if hi > len(s.words) {
			hi = len(s.words)
		}
		for _, w := range s.words[lo:hi] {
			c += uint32(bits.OnesCount64(w))
		}
		s.rank[b+1] = c
	}
}

// HasRank reports whether a rank directory is currently built.
func (s *Set) HasRank() bool { return len(s.rank) != 0 }

// Rank returns the number of set bits in [0, i), using the directory to
// skip ahead when one is built. With a stale directory the answer
// reflects a mix of build-time and current state; call it only when the
// directory is fresh.
func (s *Set) Rank(i int) int {
	if i <= 0 {
		return 0
	}
	if i > s.n {
		i = s.n
	}
	wi := i / wordBits
	c, w0 := 0, 0
	if len(s.rank) != 0 {
		b := wi / rankBlockWords
		c, w0 = int(s.rank[b]), b*rankBlockWords
	}
	for _, w := range s.words[w0:wi] {
		c += bits.OnesCount64(w)
	}
	if r := uint(i) % wordBits; r != 0 {
		c += bits.OnesCount64(s.words[wi] & (1<<r - 1))
	}
	return c
}

// Select returns the index of the k-th set bit (0-based), or -1 if
// fewer than k+1 bits are set. With a directory built, the containing
// block is found by binary search over the cumulative counts and only
// that block's words are popcounted; the same freshness caveat as Rank
// applies.
func (s *Set) Select(k int) int {
	if k < 0 {
		return -1
	}
	c, wi := 0, 0
	if len(s.rank) != 0 {
		// Largest block b with rank[b] <= k.
		lo, hi := 0, len(s.rank)-1
		for lo < hi {
			mid := int(uint(lo+hi+1) >> 1)
			if int(s.rank[mid]) <= k {
				lo = mid
			} else {
				hi = mid - 1
			}
		}
		c, wi = int(s.rank[lo]), lo*rankBlockWords
	}
	for ; wi < len(s.words); wi++ {
		pc := bits.OnesCount64(s.words[wi])
		if c+pc > k {
			return wi*wordBits + selectWord(s.words[wi], k-c)
		}
		c += pc
	}
	return -1
}

// selectWord returns the index of the k-th set bit of w; k must be less
// than popcount(w).
func selectWord(w uint64, k int) int {
	for ; k > 0; k-- {
		w &= w - 1
	}
	return bits.TrailingZeros64(w)
}

// Union sets s = s ∪ t and drops s's rank directory (bits may be
// set). The sets must have the same capacity.
func (s *Set) Union(t *Set) {
	if s.n != t.n {
		panic("bitset: capacity mismatch")
	}
	for i := range s.words {
		s.words[i] |= t.words[i]
	}
	s.rank = s.rank[:0]
}

// Intersect sets s = s ∩ t. The sets must have the same capacity. A
// built rank directory survives: intersection only clears bits, which
// the staleness contract permits.
func (s *Set) Intersect(t *Set) {
	if s.n != t.n {
		panic("bitset: capacity mismatch")
	}
	for i := range s.words {
		s.words[i] &= t.words[i]
	}
}

// CopyFrom copies t's bits into s and drops s's rank directory. The
// sets must have the same capacity.
func (s *Set) CopyFrom(t *Set) {
	if s.n != t.n {
		panic("bitset: capacity mismatch")
	}
	copy(s.words, t.words)
	s.rank = s.rank[:0]
}
