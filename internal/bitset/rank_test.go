package bitset

import (
	"testing"
	"testing/quick"

	"bagraph/internal/xrand"
)

// TestWordBoundaryEdges pins set/clear/test/scan behavior exactly at
// the 64-bit word seams (bits 63, 64, 127) for capacities that do and do
// not divide evenly by 64.
func TestWordBoundaryEdges(t *testing.T) {
	for _, n := range []int{65, 100, 128, 129, 200} {
		s := New(n)
		for _, i := range []int{63, 64} {
			s.Set(i)
			if !s.Test(i) {
				t.Fatalf("n=%d: bit %d not set", n, i)
			}
		}
		if n > 127 {
			s.Set(127)
			if !s.Test(127) || s.Test(126) {
				t.Fatalf("n=%d: bits around 127 wrong: Test(127)=%v Test(126)=%v", n, s.Test(127), s.Test(126))
			}
		}
		// Neighbors across the seam must be untouched.
		for _, i := range []int{62, 65} {
			if s.Test(i) {
				t.Fatalf("n=%d: neighbor bit %d leaked", n, i)
			}
		}
		if got := s.NextSet(64); got != 64 {
			t.Fatalf("n=%d: NextSet(64) = %d, want 64", n, got)
		}
		s.Clear(63)
		if s.Test(63) || !s.Test(64) {
			t.Fatalf("n=%d: Clear(63) crossed the word boundary", n)
		}
		s.Clear(64)
		if got := s.NextSet(0); n > 127 && got != 127 {
			t.Fatalf("n=%d: NextSet(0) after clears = %d, want 127", n, got)
		}
	}
}

func TestZeroLengthSet(t *testing.T) {
	s := New(0)
	if s.Len() != 0 || s.Count() != 0 || s.Any() {
		t.Fatal("zero-length set not empty")
	}
	if got := s.NextSet(0); got != -1 {
		t.Fatalf("NextSet(0) on empty universe = %d, want -1", got)
	}
	if idx, w := s.NextSetIn(0, 0); idx != -1 || w != 0 {
		t.Fatalf("NextSetIn on empty universe = (%d, %d), want (-1, 0)", idx, w)
	}
	s.Reset()
	s.SetAll()
	if s.Count() != 0 {
		t.Fatal("SetAll on zero-length set produced bits")
	}
	s.BuildRank()
	if got := s.Rank(0); got != 0 {
		t.Fatalf("Rank(0) on empty universe = %d", got)
	}
	if got := s.Select(0); got != -1 {
		t.Fatalf("Select(0) on empty universe = %d, want -1", got)
	}
	s.ForEach(func(i int) { t.Fatalf("ForEach visited %d on empty universe", i) })
}

func TestSetAllTailMasking(t *testing.T) {
	for _, n := range []int{1, 63, 64, 65, 127, 128, 129, 511, 512, 513} {
		s := New(n)
		s.SetAll()
		if got := s.Count(); got != n {
			t.Fatalf("n=%d: SetAll count = %d", n, got)
		}
		// The bits beyond n in the last word must stay zero so NextSet
		// never reports an out-of-universe index.
		if got := s.NextSet(n - 1); got != n-1 {
			t.Fatalf("n=%d: NextSet(n-1) = %d", n, got)
		}
		s.Clear(n - 1)
		if got := s.NextSet(n - 1); got != -1 {
			t.Fatalf("n=%d: NextSet past last real bit = %d, want -1", n, got)
		}
	}
}

func TestRankSelectAgainstNaive(t *testing.T) {
	f := func(seed uint64) bool {
		r := xrand.New(seed)
		n := 1 + int(seed%2000)
		s := New(n)
		for i := 0; i < n/3+1; i++ {
			s.Set(r.Intn(n))
		}
		s.BuildRank()
		if !s.HasRank() {
			return false
		}
		// rank(i) vs naive prefix popcount, select(k) inverts rank.
		c := 0
		for i := 0; i <= n; i++ {
			if s.Rank(i) != c {
				t.Logf("seed %d: Rank(%d) = %d, want %d", seed, i, s.Rank(i), c)
				return false
			}
			if i < n && s.Test(i) {
				if got := s.Select(c); got != i {
					t.Logf("seed %d: Select(%d) = %d, want %d", seed, c, got, i)
					return false
				}
				c++
			}
		}
		return s.Select(c) == -1 && s.Select(-1) == -1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestRankWithoutDirectory(t *testing.T) {
	s := New(300)
	for _, i := range []int{0, 63, 64, 127, 128, 299} {
		s.Set(i)
	}
	// Rank/Select fall back to plain scans with no directory built.
	if s.HasRank() {
		t.Fatal("fresh set claims a rank directory")
	}
	if got := s.Rank(128); got != 4 {
		t.Fatalf("Rank(128) without directory = %d, want 4", got)
	}
	if got := s.Select(4); got != 128 {
		t.Fatalf("Select(4) without directory = %d, want 128", got)
	}
}

func TestNextSetInSkipsEmptyBlocks(t *testing.T) {
	// 10 blocks of 512 bits; only blocks 0 and 9 hold bits.
	n := 10 * rankBlockBits
	s := New(n)
	s.Set(3)
	s.Set(9*rankBlockBits + 17)
	idx, scanned := s.NextSetIn(4, n)
	if idx != 9*rankBlockBits+17 {
		t.Fatalf("NextSetIn without directory = %d", idx)
	}
	plain := scanned
	s.BuildRank()
	idx, scanned = s.NextSetIn(4, n)
	if idx != 9*rankBlockBits+17 {
		t.Fatalf("NextSetIn with directory = %d", idx)
	}
	if scanned >= plain {
		t.Fatalf("directory scan loaded %d words, plain scan %d — no skip happened", scanned, plain)
	}
	// Range caps: a hi before the hit must report -1.
	if idx, _ := s.NextSetIn(4, 9*rankBlockBits); idx != -1 {
		t.Fatalf("NextSetIn(4, blockStart) = %d, want -1", idx)
	}
	// Shrink-only staleness: clearing the found bit after the build must
	// still be correct (block 9 now empty but directory says otherwise —
	// costs a scan, never wrong).
	s.Clear(9*rankBlockBits + 17)
	if idx, _ := s.NextSetIn(4, n); idx != -1 {
		t.Fatalf("NextSetIn after clear = %d, want -1", idx)
	}
}

func TestNextSetInMatchesNextSet(t *testing.T) {
	f := func(seed uint64) bool {
		r := xrand.New(seed)
		n := 1 + int(seed%3000)
		s := New(n)
		for i := 0; i < n/50+1; i++ {
			s.Set(r.Intn(n))
		}
		if seed%2 == 0 {
			s.BuildRank()
		}
		for i := -1; i <= n; i++ {
			want := -1
			for j := max(i, 0); j < n; j++ {
				if s.Test(j) {
					want = j
					break
				}
			}
			if idx, _ := s.NextSetIn(i, n); idx != want {
				t.Logf("seed %d n %d: NextSetIn(%d) = %d, want %d", seed, n, i, idx, want)
				return false
			}
			if got := s.NextSet(i); got != want {
				t.Logf("seed %d n %d: NextSet(%d) = %d, want %d", seed, n, i, got, want)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestBulkMutatorsDropDirectory(t *testing.T) {
	s := New(1024)
	s.Set(1000)
	s.BuildRank()
	s.Reset()
	if s.HasRank() {
		t.Fatal("Reset kept the rank directory")
	}
	// Without the drop, the stale all-empty directory would make this
	// NextSet skip the freshly set bit.
	s.Set(700)
	if got := s.NextSet(0); got != 700 {
		t.Fatalf("NextSet after Reset+Set = %d, want 700", got)
	}

	s.BuildRank()
	s.SetAll()
	if s.HasRank() {
		t.Fatal("SetAll kept the rank directory")
	}
	s.BuildRank()
	t2 := New(1024)
	t2.Set(5)
	s.CopyFrom(t2)
	if s.HasRank() {
		t.Fatal("CopyFrom kept the rank directory")
	}
	s.BuildRank()
	s.Union(t2)
	if s.HasRank() {
		t.Fatal("Union kept the rank directory")
	}
	s.BuildRank()
	s.Intersect(t2)
	if !s.HasRank() {
		t.Fatal("Intersect dropped the directory despite only clearing bits")
	}
	if got := s.NextSet(0); got != 5 {
		t.Fatalf("NextSet after Intersect = %d, want 5", got)
	}
}

// BenchmarkBitsetRank measures the directory's effect on sparse scans:
// a hub-clustered frontier (all bits in the low words of a large
// universe) swept with NextSetIn, with and without BuildRank.
func BenchmarkBitsetRank(b *testing.B) {
	const n = 1 << 20
	mk := func() *Set {
		s := New(n)
		for i := 0; i < 512; i++ { // low-word cluster, rest of universe empty
			s.Set(i * 3 % 2048)
		}
		s.Set(n - 1) // one straggler forcing a full-universe sweep
		return s
	}
	for _, bc := range []struct {
		name   string
		ranked bool
	}{{"plain", false}, {"ranked", true}} {
		b.Run(bc.name, func(b *testing.B) {
			s := mk()
			if bc.ranked {
				s.BuildRank()
			}
			b.ResetTimer()
			var words, visited int
			for i := 0; i < b.N; i++ {
				for j, w := s.NextSetIn(0, n); j != -1; j, w = s.NextSetIn(j+1, n) {
					words += w
					visited++
				}
			}
			b.ReportMetric(float64(words)/float64(b.N), "words/op")
			if visited == 0 {
				b.Fatal("scan found no bits")
			}
		})
	}
	b.Run("build", func(b *testing.B) {
		s := mk()
		for i := 0; i < b.N; i++ {
			s.BuildRank()
		}
	})
}
