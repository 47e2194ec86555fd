package adversary

import (
	"encoding/binary"
	"hash"
	"hash/fnv"
	"testing"

	"anondyn/internal/network"
)

// addLink feeds one packed u<<32|v link to h as 8 little-endian bytes.
func addLink(h hash.Hash64, p uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], p)
	h.Write(b[:])
}

// TestSparseProbabilisticStreamPinned pins the er2 RNG stream with
// golden values: the hash and length of the raw sparse log of each of
// the first rounds, for a few (n, p, seed) points, plus the canonical
// link sequence of RandomDegree with er2 noise layered over its block
// links. Per-seed determinism alone would let a sampler rewrite change
// the draws; these values come from the per-link AddUnchecked sampler
// and must not move — same draws, same links, same order.
func TestSparseProbabilisticStreamPinned(t *testing.T) {
	type pin struct {
		links int
		hash  uint64
	}
	er2 := []struct {
		n    int
		p    float64
		seed int64
		want []pin
	}{
		{257, 0.05, 1, []pin{{3319, 15242583018811763495}, {3250, 18203776116185918343}, {3307, 11210071531970240524}}},
		{4097, 0.004, 1, []pin{{67165, 907655729192330443}, {67038, 8736407633423337886}, {67190, 11784609300239386573}}},
		{4097, 0.12, 7, []pin{{2012301, 14273116882511147740}, {2014377, 11941619697979244112}, {2016048, 6183253248702519523}}},
	}
	for _, tc := range er2 {
		a := mustAdv(NewSparseProbabilistic(tc.p, tc.seed))
		view := SizeView(tc.n)
		dst := network.NewEdgeSetSparse(tc.n)
		starts := make([]int32, tc.n)
		for round, want := range tc.want {
			a.EdgesInto(round, view, dst)
			pairs, ok := dst.OrderedLog(starts)
			if !ok {
				t.Fatalf("n=%d p=%g round %d: er2 left an unordered log", tc.n, tc.p, round)
			}
			h := fnv.New64a()
			for _, p := range pairs {
				addLink(h, p)
			}
			if got := (pin{len(pairs), h.Sum64()}); got != want {
				t.Errorf("n=%d p=%g seed %d round %d: log %+v, pinned %+v", tc.n, tc.p, tc.seed, round, got, want)
			}
		}
	}

	// RandomDegree layers sparseBernoulliInto over copied block links, so
	// its log is unordered; pin the canonical link sequence.
	rd := []struct {
		n     int
		extra float64
		want  []pin
	}{
		{257, 0.02, []pin{{1837, 4938729183586610711}, {1805, 155439504252118839}, {1801, 4120796925679113078}}},
		{4097, 0.002, []pin{{41598, 5596151233821875771}, {41627, 12899818273945195542}, {41802, 7525064588069222765}}},
	}
	for _, tc := range rd {
		a := mustAdv(NewRandomDegree(2, 4, tc.extra, 3))
		view := SizeView(tc.n)
		dst := network.NewEdgeSetSparse(tc.n)
		for round, want := range tc.want {
			a.EdgesInto(round, view, dst)
			h := fnv.New64a()
			dst.ForEachEdge(func(u, v int) bool {
				addLink(h, uint64(u)<<32|uint64(v))
				return true
			})
			if got := (pin{dst.Len(), h.Sum64()}); got != want {
				t.Errorf("randomDegree n=%d extra=%g round %d: links %+v, pinned %+v", tc.n, tc.extra, round, got, want)
			}
		}
	}
}
