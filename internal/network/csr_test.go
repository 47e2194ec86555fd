package network

import (
	"math/rand"
	"slices"
	"testing"
)

// TestSparseDenseEquivalenceProperty drives a dense and a sparse
// EdgeSet through the same randomized mutation sequence — including
// duplicate adds, removals, resets, copies and set algebra against both
// representations — and asserts every observable agrees after each
// phase. This is the representation contract the engines rely on: a
// sparse set is indistinguishable from a dense one through the public
// API.
func TestSparseDenseEquivalenceProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 40; trial++ {
		n := 2 + rng.Intn(97)
		dense, sparse := NewEdgeSet(n), NewEdgeSetSparse(n)
		if sparse.IsSparse() == dense.IsSparse() {
			t.Fatal("representation flags must differ")
		}
		for step := 0; step < 30; step++ {
			switch op := rng.Intn(10); op {
			case 0: // burst of adds, duplicates included
				for k := 0; k < 1+rng.Intn(3*n); k++ {
					u, v := rng.Intn(n), rng.Intn(n)
					dense.Add(u, v)
					sparse.Add(u, v)
				}
			case 1: // remove a (maybe absent) link
				u, v := rng.Intn(n), rng.Intn(n)
				if u != v {
					dense.Remove(u, v)
					sparse.Remove(u, v)
				}
			case 2:
				dense.Reset()
				sparse.Reset()
			case 3:
				dense.FillComplete()
				sparse.FillComplete()
			case 4: // union with a random set, in the same and the other mode
				other := randomSet(rng, n, rng.Intn(2) == 0)
				dense.UnionWith(other)
				sparse.UnionWith(other)
			case 5: // intersect
				other := randomSet(rng, n, rng.Intn(2) == 0)
				dense.IntersectWith(other)
				sparse.IntersectWith(other)
			case 6: // cross-mode copy
				other := randomSet(rng, n, rng.Intn(2) == 0)
				dense.CopyFrom(other)
				sparse.CopyFrom(other)
			case 7: // clone and keep going on the clones
				dense, sparse = dense.Clone(), sparse.Clone()
			default: // more adds (bias toward content)
				for k := 0; k < 1+rng.Intn(n); k++ {
					u, v := rng.Intn(n), rng.Intn(n)
					if u != v {
						dense.AddUnchecked(u, v)
						sparse.AddUnchecked(u, v)
					}
				}
			}
			assertSame(t, dense, sparse, rng)
			if t.Failed() {
				t.Fatalf("diverged at trial %d step %d", trial, step)
			}
		}
	}
}

func randomSet(rng *rand.Rand, n int, sparseMode bool) *EdgeSet {
	var s *EdgeSet
	if sparseMode {
		s = NewEdgeSetSparse(n)
	} else {
		s = NewEdgeSet(n)
	}
	for k := 0; k < rng.Intn(2*n+1); k++ {
		s.Add(rng.Intn(n), rng.Intn(n))
	}
	return s
}

// assertSame checks every observable of the two sets against each other.
func assertSame(t *testing.T, dense, sparse *EdgeSet, rng *rand.Rand) {
	t.Helper()
	n := dense.N()
	if sparse.N() != n {
		t.Fatalf("n mismatch: %d vs %d", n, sparse.N())
	}
	if dl, sl := dense.Len(), sparse.Len(); dl != sl {
		t.Errorf("Len: dense %d, sparse %d", dl, sl)
		return
	}
	if !dense.Equal(sparse) || !sparse.Equal(dense) {
		t.Error("Equal disagrees across representations")
		return
	}
	mask := make([]uint64, MaskWords(n))
	for w := range mask {
		mask[w] = rng.Uint64()
	}
	if tail := n % 64; tail != 0 {
		mask[len(mask)-1] &= (1 << uint(tail)) - 1
	}
	accD := make([]uint64, MaskWords(n))
	accS := make([]uint64, MaskWords(n))
	for v := 0; v < n; v++ {
		if di, si := dense.InDegree(v), sparse.InDegree(v); di != si {
			t.Errorf("InDegree(%d): dense %d, sparse %d", v, di, si)
		}
		if do, so := dense.OutDegree(v), sparse.OutDegree(v); do != so {
			t.Errorf("OutDegree(%d): dense %d, sparse %d", v, do, so)
		}
		din := dense.InNeighborsInto(v, nil)
		sin := sparse.InNeighborsInto(v, nil)
		if !equalInts(din, sin) {
			t.Errorf("InNeighbors(%d): dense %v, sparse %v", v, din, sin)
		}
		if !equalInts(dense.OutNeighbors(v), sparse.OutNeighbors(v)) {
			t.Errorf("OutNeighbors(%d) differ", v)
		}
		if dh, sh := dense.OutHits(v, mask), sparse.OutHits(v, mask); dh != sh {
			t.Errorf("OutHits(%d): dense %d, sparse %d", v, dh, sh)
		}
		clear(accD)
		clear(accS)
		dense.InBitsInto(v, accD)
		sparse.InBitsInto(v, accS)
		for w := range accD {
			if accD[w] != accS[w] {
				t.Errorf("InBitsInto(%d) word %d: %x vs %x", v, w, accD[w], accS[w])
			}
		}
		u := rng.Intn(n)
		if dh, sh := dense.Has(u, v), sparse.Has(u, v); dh != sh {
			t.Errorf("Has(%d,%d): dense %v, sparse %v", u, v, dh, sh)
		}
	}
	// CSR views agree with the bit rows, and Edges round-trips.
	de, se := dense.Edges(), sparse.Edges()
	if len(de) != len(se) {
		t.Errorf("Edges length: dense %d, sparse %d", len(de), len(se))
		return
	}
	for i := range de {
		if de[i] != se[i] {
			t.Errorf("Edges[%d]: dense %v, sparse %v", i, de[i], se[i])
			return
		}
	}
	if sparse.IsSparse() {
		starts, ids := sparse.InCSR()
		for v := 0; v < n; v++ {
			row := ids[starts[v]:starts[v+1]]
			din := dense.InNeighborsInto(v, nil)
			if len(row) != len(din) {
				t.Errorf("InCSR row %d length %d, want %d", v, len(row), len(din))
				continue
			}
			for i, u := range row {
				if int(u) != din[i] {
					t.Errorf("InCSR row %d entry %d: %d, want %d", v, i, u, din[i])
				}
			}
		}
	}
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestSparseResetKeepsZeroAllocRounds pins the headroom discipline: after
// warmup, a Reset + refill cycle performs no allocations even when every
// round sets a new edge high-water mark (the log keeps headroom over the
// mark instead of reallocating at each record). The count rises on
// every run so that one allocation per record shows up in the average
// rather than being divided away.
func TestSparseResetKeepsZeroAllocRounds(t *testing.T) {
	const n = 4096
	s := NewEdgeSetSparse(n)
	fill := func(edges int) {
		s.Reset()
		for k := 0; k < edges; k++ {
			u := (k * 2654435761) % n
			v := (u + 1 + k%(n-1)) % n
			s.AddUnchecked(u, v)
		}
		_ = s.Len() // force the build
	}
	edges := 8 * n
	fill(edges) // warmup establishes the watermark
	fill(edges)
	avg := testing.AllocsPerRun(20, func() {
		edges += 100
		fill(edges)
	})
	if avg != 0 {
		t.Errorf("Reset+refill at a rising edge count allocated %g times per round, want 0", avg)
	}
}

// TestFillCompleteConvertsSparse checks the representation change and
// that the converted set behaves like Complete(n).
func TestFillCompleteConvertsSparse(t *testing.T) {
	s := NewEdgeSetSparse(67)
	s.Add(1, 2)
	s.FillComplete()
	if s.IsSparse() {
		t.Fatal("FillComplete should convert to dense")
	}
	if got, want := s.Len(), 67*66; got != want {
		t.Fatalf("complete graph has %d links, want %d", got, want)
	}
	if s.Has(5, 5) {
		t.Fatal("self-loop present after FillComplete")
	}
}

// TestOrderedBuildEquivalenceProperty drives a sparse set and a dense
// mirror through random op sequences that mix in-order and out-of-order
// appends (duplicates included), Remove, CopyFrom in both directions,
// UnionWith, IntersectWith and Retain. After every op the sparse set
// must match the dense one on every observable, its ordered flag must
// only be set when the log really ascends, and its CSR views must equal
// those the general counting-sort build produces from the same log —
// the oracle for the two-pass build.
func TestOrderedBuildEquivalenceProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 40; trial++ {
		n := 2 + rng.Intn(97)
		dense, sparse := NewEdgeSet(n), NewEdgeSetSparse(n)
		for step := 0; step < 30; step++ {
			switch op := rng.Intn(9); op {
			case 0: // fresh in-order fill, the er2 sampler's shape
				dense.Reset()
				sparse.Reset()
				for _, p := range ascendingPairs(rng, n) {
					dense.AddUnchecked(int(p>>32), int(uint32(p)))
					sparse.AddUnchecked(int(p>>32), int(uint32(p)))
				}
			case 1: // in-order burst appended to whatever is there
				for _, p := range ascendingPairs(rng, n) {
					dense.Add(int(p>>32), int(uint32(p)))
					sparse.Add(int(p>>32), int(uint32(p)))
				}
			case 2: // out-of-order burst, duplicates included
				for k := 0; k < 1+rng.Intn(2*n); k++ {
					u, v := rng.Intn(n), rng.Intn(n)
					dense.Add(u, v)
					sparse.Add(u, v)
				}
			case 3:
				u, v := rng.Intn(n), rng.Intn(n)
				if u != v {
					dense.Remove(u, v)
					sparse.Remove(u, v)
				}
			case 4:
				other := randomMixedSet(rng, n)
				dense.CopyFrom(other)
				sparse.CopyFrom(other)
				if rng.Intn(2) == 0 { // and back: sparse into a dense copy
					d := NewEdgeSet(n)
					d.CopyFrom(sparse)
					dense = d
				}
			case 5:
				other := randomMixedSet(rng, n)
				dense.UnionWith(other)
				sparse.UnionWith(other)
			case 6:
				other := randomMixedSet(rng, n)
				dense.IntersectWith(other)
				sparse.IntersectWith(other)
			default:
				salt := rng.Uint64()
				keep := func(u, v int) bool { return (uint64(u*131+v)*0x9e3779b97f4a7c15^salt)>>62 != 0 }
				want := dense.Edges()
				dense.Retain(keep)
				var seen [][2]int
				sparse.Retain(func(u, v int) bool {
					seen = append(seen, [2]int{u, v})
					return keep(u, v)
				})
				if !sameEdgeList(seen, want) {
					t.Fatalf("trial %d step %d: Retain visited %v, want each link once in ForEachEdge order %v", trial, step, seen, want)
				}
				if !sparse.csr.ordered {
					t.Fatalf("trial %d step %d: Retain left the log unordered", trial, step)
				}
			}
			assertSame(t, dense, sparse, rng)
			assertOrderedInvariant(t, sparse)
			assertBuildMatchesOracle(t, sparse)
			if t.Failed() {
				t.Fatalf("diverged at trial %d step %d", trial, step)
			}
		}
	}
}

// ascendingPairs returns a strictly ascending run of distinct packed
// links without self-loops.
func ascendingPairs(rng *rand.Rand, n int) []uint64 {
	var ps []uint64
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			if u != v && rng.Intn(8) == 0 {
				ps = append(ps, uint64(u)<<32|uint64(v))
			}
		}
	}
	return ps
}

// randomMixedSet is a dense set, an ordered sparse set or an unordered
// sparse set with duplicates, with equal odds.
func randomMixedSet(rng *rand.Rand, n int) *EdgeSet {
	switch rng.Intn(3) {
	case 0:
		return randomSet(rng, n, false)
	case 1:
		s := NewEdgeSetSparse(n)
		for _, p := range ascendingPairs(rng, n) {
			s.AddUnchecked(int(p>>32), int(uint32(p)))
		}
		return s
	default:
		return randomSet(rng, n, true)
	}
}

func sameEdgeList(a, b [][2]int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// assertOrderedInvariant: the ordered flag may only be set on a log
// that is strictly ascending.
func assertOrderedInvariant(t *testing.T, s *EdgeSet) {
	t.Helper()
	c := s.csr
	if !c.ordered {
		return
	}
	for i := 1; i < len(c.pairs); i++ {
		if c.pairs[i-1] >= c.pairs[i] {
			t.Errorf("log flagged ordered but entries %d,%d are %x,%x", i-1, i, c.pairs[i-1], c.pairs[i])
			return
		}
	}
}

// assertBuildMatchesOracle rebuilds s's log through the general
// counting-sort path and checks both CSR views match s's own, entry for
// entry.
func assertBuildMatchesOracle(t *testing.T, s *EdgeSet) {
	t.Helper()
	oracle := NewEdgeSetSparse(s.N())
	oracle.CopyFrom(s)
	oracle.csr.ordered = false
	so, sl := s.OutCSR()
	oo, ol := oracle.OutCSR()
	si, sil := s.InCSR()
	oi, oil := oracle.InCSR()
	if !slices.Equal(so, oo) || !slices.Equal(sl, ol) {
		t.Errorf("OutCSR: two-pass build %v/%v, general build %v/%v", so, sl, oo, ol)
	}
	if !slices.Equal(si, oi) || !slices.Equal(sil, oil) {
		t.Errorf("InCSR: two-pass build %v/%v, general build %v/%v", si, sil, oi, oil)
	}
}

// TestOrderedFlagTransitions pins which mutators keep, set and clear
// the ordered flag that selects the two-pass build.
func TestOrderedFlagTransitions(t *testing.T) {
	const n = 8
	s := NewEdgeSetSparse(n)
	step := func(what string, want bool) {
		t.Helper()
		if got := s.csr.ordered; got != want {
			t.Errorf("after %s: ordered = %v, want %v", what, got, want)
		}
	}
	step("NewEdgeSetSparse", true)
	s.Add(0, 3)
	s.Add(1, 2)
	s.AddUnchecked(1, 5)
	step("ascending appends", true)
	s.Remove(1, 2)
	s.IntersectWith(Complete(n))
	step("Remove and IntersectWith", true)
	s.Add(0, 4)
	step("an out-of-order append", false)
	s.Reset()
	step("Reset", true)
	s.Add(2, 1)
	s.Add(2, 1)
	step("a duplicate append", false)
	s.Reset()
	s.Add(2, 1)
	other := NewEdgeSetSparse(n)
	other.Add(0, 1)
	s.UnionWith(other)
	step("UnionWith", false)
	s.CopyFrom(Complete(n))
	step("CopyFrom of a dense set", true)
	s.CopyFrom(other)
	step("CopyFrom of an ordered log", true)
	other.Add(0, 1)
	s.CopyFrom(other)
	step("CopyFrom of an unordered log", false)
	s.Retain(func(u, v int) bool { return true })
	step("Retain", true)

	// Retain on an ordered log filters without building.
	s.Reset()
	s.Add(0, 1)
	s.Add(3, 2)
	s.Retain(func(u, v int) bool { return u == 3 })
	if !s.csr.dirty {
		t.Error("Retain on an ordered log ran a build")
	}
	if got := s.Edges(); len(got) != 1 || got[0] != [2]int{3, 2} {
		t.Errorf("Retain kept %v, want [[3 2]]", got)
	}
}

// TestOrderedLogLenWithoutBuild pins the two read paths that must not
// build CSR views on an ordered log: Len counts the log (an ordered log
// has no duplicates) and OrderedLog hands out the log with per-sender
// starts. Both must agree with the built views, and an unordered log
// must fall back (Len deduplicates, OrderedLog refuses).
func TestOrderedLogLenWithoutBuild(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for _, n := range []int{1, 5, 64, 65, 200} {
		s := NewEdgeSetSparse(n)
		for u := 0; u < n; u++ {
			for v := 0; v < n; v++ {
				if u != v && rng.Intn(4) == 0 {
					s.AddUnchecked(u, v)
				}
			}
		}
		links := len(s.csr.pairs)
		if got := s.Len(); got != links {
			t.Fatalf("n=%d: Len = %d, want %d", n, got, links)
		}
		if !s.csr.dirty {
			t.Fatalf("n=%d: Len on an ordered log ran a build", n)
		}
		starts := make([]int32, n)
		pairs, ok := s.OrderedLog(starts)
		if !ok || len(pairs) != links {
			t.Fatalf("n=%d: OrderedLog ok=%v with %d pairs, want %d", n, ok, len(pairs), links)
		}
		if !s.csr.dirty {
			t.Fatalf("n=%d: OrderedLog ran a build", n)
		}
		outStarts, outIDs := s.OutCSR()
		for u := 0; u < n; u++ {
			if starts[u] != outStarts[u] {
				t.Fatalf("n=%d: starts[%d] = %d, out-CSR row starts at %d", n, u, starts[u], outStarts[u])
			}
		}
		for i, p := range pairs {
			if int32(uint32(p)) != outIDs[i] {
				t.Fatalf("n=%d: log entry %d is %d, out-CSR has %d", n, i, uint32(p), outIDs[i])
			}
		}
	}

	s := NewEdgeSetSparse(4)
	s.Add(2, 1)
	s.Add(0, 3)
	s.Add(2, 1)
	if _, ok := s.OrderedLog(make([]int32, 4)); ok {
		t.Error("OrderedLog accepted an unordered log")
	}
	if got := s.Len(); got != 2 {
		t.Errorf("Len on an unordered log with a duplicate = %d, want 2", got)
	}
	if _, ok := NewEdgeSet(4).OrderedLog(make([]int32, 4)); ok {
		t.Error("OrderedLog accepted a dense set")
	}
}

// TestBulkAppendMatchesAddUnchecked drives the BulkLog/CommitBulk seam
// against per-link AddUnchecked references, dense and sparse, on logs
// that already hold links: empty, ordered and unordered prefixes, then
// appended runs that ascend past the prefix, ascend but start at or
// below its last link, or do not ascend at all. The ordered flag must
// come out exactly as the per-link appends leave it, and every
// observable must match.
func TestBulkAppendMatchesAddUnchecked(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for trial := 0; trial < 200; trial++ {
		n := 2 + rng.Intn(70)
		bulk, ref, dense := NewEdgeSetSparse(n), NewEdgeSetSparse(n), NewEdgeSet(n)
		var prefix []uint64
		switch rng.Intn(3) {
		case 1:
			prefix = ascendingPairs(rng, n)
		case 2:
			for k := 0; k < 1+rng.Intn(2*n); k++ {
				if u, v := rng.Intn(n), rng.Intn(n); u != v {
					prefix = append(prefix, uint64(u)<<32|uint64(v))
				}
			}
		}
		run := ascendingPairs(rng, n)
		ascending := true
		switch rng.Intn(4) {
		case 0: // keep only the part past the prefix's last link
			if len(prefix) > 0 {
				last := prefix[len(prefix)-1]
				i, _ := slices.BinarySearch(run, last+1)
				run = run[i:]
			}
		case 1: // shuffled: not ascending
			rng.Shuffle(len(run), func(i, j int) { run[i], run[j] = run[j], run[i] })
			for i := 1; i < len(run); i++ {
				ascending = ascending && run[i-1] < run[i]
			}
		case 2: // starts exactly at the prefix's last link
			if len(prefix) > 0 {
				run = append([]uint64{prefix[len(prefix)-1]}, run...)
			}
		}
		for _, s := range []*EdgeSet{bulk, ref, dense} {
			for _, p := range prefix {
				s.AddUnchecked(int(p>>32), int(uint32(p)))
			}
		}
		if rng.Intn(2) == 0 {
			// Canonicalized and built prefixes: the views must be rebuilt
			// after the append.
			bulk.InCSR()
			ref.InCSR()
		}
		log := bulk.BulkLog()
		log = append(log, run...)
		bulk.CommitBulk(log, ascending)
		for _, p := range run {
			ref.AddUnchecked(int(p>>32), int(uint32(p)))
			dense.AddUnchecked(int(p>>32), int(uint32(p)))
		}
		if bulk.csr.ordered != ref.csr.ordered {
			t.Fatalf("trial %d: ordered = %v after the bulk append, per-link appends give %v", trial, bulk.csr.ordered, ref.csr.ordered)
		}
		assertOrderedInvariant(t, bulk)
		if bulk.Len() != ref.Len() || bulk.Len() != dense.Len() {
			t.Fatalf("trial %d: Len %d, references %d (sparse) %d (dense)", trial, bulk.Len(), ref.Len(), dense.Len())
		}
		if !bulk.Equal(ref) || !bulk.Equal(dense) || !dense.Equal(bulk) {
			t.Fatalf("trial %d: bulk append diverged from AddUnchecked", trial)
		}
		if !sameEdgeList(bulk.Edges(), dense.Edges()) {
			t.Fatalf("trial %d: ForEachEdge order diverged", trial)
		}
		bo, bl := bulk.OutCSR()
		ro, rl := ref.OutCSR()
		bi, bil := bulk.InCSR()
		ri, ril := ref.InCSR()
		if !slices.Equal(bo, ro) || !slices.Equal(bl, rl) || !slices.Equal(bi, ri) || !slices.Equal(bil, ril) {
			t.Fatalf("trial %d: CSR views diverged from the per-link reference", trial)
		}
	}

	// The join rule on its own.
	s := NewEdgeSetSparse(8)
	s.Add(2, 5)
	s.CommitBulk(append(s.BulkLog(), 2<<32|6, 3<<32|0), true)
	if !s.csr.ordered {
		t.Error("an ascending join cleared the ordered flag")
	}
	s.CommitBulk(append(s.BulkLog(), 3<<32|0, 4<<32|1), true)
	if s.csr.ordered {
		t.Error("a join repeating the last link kept the ordered flag")
	}
	if got := s.Len(); got != 4 {
		t.Errorf("Len = %d after a duplicate join, want 4", got)
	}
	s.Reset()
	s.CommitBulk(append(s.BulkLog(), 1<<32|2, 0<<32|1), false)
	if s.csr.ordered {
		t.Error("a run declared out of order kept the ordered flag")
	}
}

// TestCanonicalizeRewritesLog: Canonicalize turns any sparse log into
// the strictly ascending, duplicate-free log of the same links, whose
// views then build exactly as the general counting-sort build does.
func TestCanonicalizeRewritesLog(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 60; trial++ {
		n := 2 + rng.Intn(97)
		s := randomMixedSet(rng, n)
		if !s.IsSparse() {
			continue
		}
		want := s.Edges()
		if rng.Intn(2) == 0 {
			s.Add(rng.Intn(n), rng.Intn(n)) // dirty again after the Edges build
			want = s.Edges()
		}
		s.Canonicalize()
		if !s.csr.ordered {
			t.Fatalf("trial %d: Canonicalize left the log unordered", trial)
		}
		assertOrderedInvariant(t, s)
		pairs, ok := s.OrderedLog(nil)
		if !ok || len(pairs) != len(want) {
			t.Fatalf("trial %d: OrderedLog ok=%v with %d pairs, want %d", trial, ok, len(pairs), len(want))
		}
		for i, p := range pairs {
			if got := [2]int{int(p >> 32), int(uint32(p))}; got != want[i] {
				t.Fatalf("trial %d: log entry %d is %d→%d, want %v", trial, i, p>>32, uint32(p), want[i])
			}
		}
		assertBuildMatchesOracle(t, s)
	}
	s := NewEdgeSet(4)
	s.Add(1, 2)
	s.Canonicalize() // dense: a no-op
	if !s.Has(1, 2) || s.Len() != 1 {
		t.Error("Canonicalize changed a dense set")
	}
}
