package network

import (
	"fmt"
	"math/rand"
	"testing"
)

// The engine's hot loop calls InDegree/OutDegree per node per round and
// the dynaDegree checker scans incoming links over thousands of rounds,
// so the column-scan rewrite of InNeighbors/InDegree is benchmarked
// here against the workload sizes the experiments use.

func benchSizes() []int { return []int{9, 51, 129} }

func BenchmarkInDegree(b *testing.B) {
	for _, n := range benchSizes() {
		e := randomEdgeSet(n, 0.5, rand.New(rand.NewSource(7)))
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			sum := 0
			for i := 0; i < b.N; i++ {
				for v := 0; v < n; v++ {
					sum += e.InDegree(v)
				}
			}
			if sum < 0 {
				b.Fatal("impossible")
			}
		})
	}
}

func BenchmarkInNeighbors(b *testing.B) {
	for _, n := range benchSizes() {
		e := randomEdgeSet(n, 0.5, rand.New(rand.NewSource(7)))
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for v := 0; v < n; v++ {
					if e.InNeighbors(v) == nil && n > 1 {
						b.Fatal("empty neighborhood in a dense graph")
					}
				}
			}
		})
	}
}

func BenchmarkFillComplete(b *testing.B) {
	for _, n := range benchSizes() {
		e := NewEdgeSet(n)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				e.FillComplete()
			}
		})
	}
}

func BenchmarkEdgeSetReset(b *testing.B) {
	e := Complete(129)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e.Reset()
	}
}

// BenchmarkEdgeSetBuild measures the sparse round pipeline from an
// empty log to both CSR views at the storm workload's scale: n=4097
// with every link present independently at p=0.12 (~2M links). The
// in-order log is what the er2 sampler emits and takes the two-pass
// build; the shuffled one holds the same links in random order and
// takes the general counting-sort build.
func BenchmarkEdgeSetBuild(b *testing.B) {
	const n, p = 4097, 0.12
	rng := rand.New(rand.NewSource(11))
	var ordered []uint64
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			if u != v && rng.Float64() < p {
				ordered = append(ordered, uint64(u)<<32|uint64(v))
			}
		}
	}
	shuffled := append([]uint64(nil), ordered...)
	rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	for _, bc := range []struct {
		name  string
		pairs []uint64
	}{{"ordered", ordered}, {"shuffled", shuffled}} {
		s := NewEdgeSetSparse(n)
		round := func() {
			s.Reset()
			for _, pair := range bc.pairs {
				s.AddUnchecked(int(pair>>32), int(uint32(pair)))
			}
			s.InCSR()
		}
		// Warm the log and views as an engine's first rounds do: the
		// second Reset gives the appended log its headroom.
		round()
		round()
		b.Run(fmt.Sprintf("n=%d/p=%g/%s", n, p, bc.name), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				round()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(bc.pairs)), "ns/edge")
		})
	}
}
