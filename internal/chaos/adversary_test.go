package chaos

import (
	"testing"

	"anondyn"
	"anondyn/internal/adversary"
	"anondyn/internal/network"
)

// completeBase is a minimal non-InPlace complete-graph adversary, so
// the wrapper's allocating fallback path gets exercised too.
type completeBase struct{}

func (completeBase) Name() string { return "completebase" }
func (completeBase) Edges(_ int, view adversary.View) *network.EdgeSet {
	e := network.NewEdgeSet(view.N())
	e.FillComplete()
	return e
}

// TestWrapAdversaryPassthrough: a storm without connectivity windows
// returns the base adversary itself — no wrapper cost for crash-only
// storms.
func TestWrapAdversaryPassthrough(t *testing.T) {
	s := &Stress{
		Fleet:  Fleet{TotalNodes: 20},
		Rounds: 10,
		Events: []Event{{Kind: "crash", Round: 2, Count: 3}},
	}
	base := anondyn.Complete()
	if got := s.CompileStorm(0).WrapAdversary(base); got != base {
		t.Error("crash-only storm wrapped the adversary")
	}
}

// TestPartitionCutsCrossingEdges: during the window, every link
// crossing the cut is gone and every same-side link survives; outside
// the window the set is untouched.
func TestPartitionCutsCrossingEdges(t *testing.T) {
	s := &Stress{
		Fleet:  Fleet{TotalNodes: 40, Groups: 4},
		Rounds: 30,
		Events: []Event{{Kind: "partition", Round: 5, Duration: 3, Groups: []int{0}}},
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	st := s.CompileStorm(2)
	wrapped := st.WrapAdversary(anondyn.Complete())
	if wrapped.Name() != "complete+storm" {
		t.Errorf("wrapper name = %q", wrapped.Name())
	}
	view := adversary.SizeView(40)
	inCut := func(node int) bool { return node < 10 } // group 0 = IDs [0, 10)

	for _, round := range []int{4, 5, 7, 8} {
		e := wrapped.Edges(round, view)
		active := round >= 5 && round < 8
		e2 := network.NewEdgeSet(40)
		e2.FillComplete()
		want := e2.Len()
		if active {
			want -= 2 * 10 * 30 // both directions across the cut
		}
		if e.Len() != want {
			t.Errorf("round %d: %d edges, want %d", round, e.Len(), want)
		}
		e.ForEachEdge(func(u, v int) bool {
			if active && inCut(u) != inCut(v) {
				t.Errorf("round %d: cut-crossing edge %d→%d survived", round, u, v)
				return false
			}
			return true
		})
	}
}

// TestStarveDenseSparseParity: the wrapper's starvation draws walk
// edges in sender-major order in every representation, so the filtered
// set is identical across the dense/CSR switch — the determinism
// contract behind sharding large storms. Three inputs carry the same
// complete graph: a dense set, an ordered sparse log (filtered in
// place) and a sparse log filled out of order with duplicates (built,
// then rewritten). keep must see each link exactly once, in ForEachEdge
// order, for all three.
func TestStarveDenseSparseParity(t *testing.T) {
	const n = 60
	s := &Stress{
		Fleet:  Fleet{TotalNodes: n},
		Rounds: 20,
		Events: []Event{{Kind: "starve", Round: 1, Duration: 20, Rate: 0.4}},
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	inputs := []struct {
		name string
		make func() *network.EdgeSet
	}{
		{"dense", func() *network.EdgeSet {
			e := network.NewEdgeSet(n)
			e.FillComplete()
			return e
		}},
		{"sparse-ordered", func() *network.EdgeSet {
			e := network.NewEdgeSetSparse(n)
			for u := 0; u < n; u++ {
				for v := 0; v < n; v++ {
					e.Add(u, v)
				}
			}
			return e
		}},
		{"sparse-unordered", func() *network.EdgeSet {
			e := network.NewEdgeSetSparse(n)
			for u := n - 1; u >= 0; u-- {
				for v := n - 1; v >= 0; v-- {
					e.Add(u, v)
					if (u+v)%7 == 0 {
						e.Add(u, v)
					}
				}
			}
			return e
		}},
	}
	for round := 1; round <= 4; round++ {
		var first *network.EdgeSet
		for _, in := range inputs {
			// A fresh wrapper per input: filter state is scratch.
			w := s.CompileStorm(9).WrapAdversary(completeBase{}).(*stormAdversary)
			e := in.make()
			if e.IsSparse() != (in.name != "dense") {
				t.Fatalf("%s: wrong representation", in.name)
			}
			want := e.Edges()
			var seen [][2]int
			if !w.activate(round) {
				t.Fatalf("round %d: starve window inactive", round)
			}
			e.Retain(func(u, v int) bool {
				seen = append(seen, [2]int{u, v})
				return w.keep(u, v)
			})
			if len(seen) != len(want) {
				t.Fatalf("round %d %s: keep saw %d links, want %d", round, in.name, len(seen), len(want))
			}
			for i := range want {
				if seen[i] != want[i] {
					t.Fatalf("round %d %s: keep call %d saw %v, want %v", round, in.name, i, seen[i], want[i])
				}
			}
			if e.Len() == n*(n-1) {
				t.Errorf("round %d %s: starvation at rate 0.4 dropped nothing", round, in.name)
			}
			if first == nil {
				first = e
			} else if !e.Equal(first) {
				t.Errorf("round %d: %s kept a different set than dense", round, in.name)
			}
		}
	}
}

// TestStormFilterZeroAllocRound: once warmed, an er2 round filtered by
// an active partition and an active starve window allocates nothing at
// CSR scale — the window scratch is reused, and Retain filters the
// engine-owned set in place.
func TestStormFilterZeroAllocRound(t *testing.T) {
	const n = 4097
	s := &Stress{
		Fleet:  Fleet{TotalNodes: n, Groups: 4},
		Rounds: 100,
		Events: []Event{
			{Kind: "partition", Round: 1, Duration: 100, Groups: []int{0}},
			{Kind: "starve", Round: 1, Duration: 100, Rate: 0.3},
		},
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	base, err := adversary.NewSparseProbabilistic(0.01, 3)
	if err != nil {
		t.Fatal(err)
	}
	w := s.CompileStorm(5).WrapAdversary(base).(adversary.InPlace)
	view := adversary.SizeView(n)
	dst := network.NewEdgeSetAuto(n)
	if !dst.IsSparse() {
		t.Fatal("n=4097 should select the CSR representation")
	}
	round := 1
	step := func() {
		w.EdgesInto(round, view, dst)
		_, _ = dst.InCSR() // the engine's read: force the build
		round++
	}
	for i := 0; i < 3; i++ {
		step()
	}
	if avg := testing.AllocsPerRun(10, step); avg != 0 {
		t.Errorf("warmed er2+storm round allocated %g times, want 0", avg)
	}
}

// TestStarveDeterministicPerRound: the same round refilters to the
// same set (each round's drop stream is self-seeded, not positional),
// and different rounds draw different sets.
func TestStarveDeterministicPerRound(t *testing.T) {
	s := &Stress{
		Fleet:  Fleet{TotalNodes: 30},
		Rounds: 20,
		Events: []Event{{Kind: "starve", Round: 1, Duration: 20, Rate: 0.3}},
	}
	w := s.CompileStorm(0).WrapAdversary(completeBase{})
	view := adversary.SizeView(30)
	a := w.Edges(3, view)
	b := w.Edges(5, view)
	c := w.Edges(3, view)
	if !a.Equal(c) {
		t.Error("round 3 refiltered to a different set")
	}
	if a.Equal(b) {
		t.Error("rounds 3 and 5 drew identical starvation")
	}
}

// TestWrapAdversaryInPlace: EdgesInto on an InPlace base matches the
// allocating path exactly.
func TestWrapAdversaryInPlace(t *testing.T) {
	s := &Stress{
		Fleet:  Fleet{TotalNodes: 25, Groups: 5},
		Rounds: 12,
		Events: []Event{{Kind: "partition", Round: 2, Duration: 6, Groups: []int{1, 3}}},
	}
	base := anondyn.Complete()
	if _, ok := base.(adversary.InPlace); !ok {
		t.Skip("complete adversary lost its InPlace fast path")
	}
	w := s.CompileStorm(4).WrapAdversary(base)
	view := adversary.SizeView(25)
	for round := 1; round <= 9; round++ {
		dst := network.NewEdgeSet(25)
		w.(adversary.InPlace).EdgesInto(round, view, dst)
		if want := w.Edges(round, view); !dst.Equal(want) {
			t.Errorf("round %d: EdgesInto differs from Edges", round)
		}
	}
	if !adversary.IsOblivious(w) {
		t.Error("wrapper hides the base's obliviousness")
	}
}

// BenchmarkStormFilter measures one filtered round of the storm
// workload's shape at CSR scale: an er2 round at n=4097, p=0.12 (~2M
// links) copied into the engine-owned set, filtered by an active
// partition and an active starve window, then built into the CSR views
// the delivery core reads.
func BenchmarkStormFilter(b *testing.B) {
	const n = 4097
	s := &Stress{
		Fleet:  Fleet{TotalNodes: n, Groups: 4},
		Rounds: 1 << 30,
		Events: []Event{
			{Kind: "partition", Round: 1, Duration: 1 << 29, Groups: []int{0}},
			{Kind: "starve", Round: 1, Duration: 1 << 29, Rate: 0.3},
		},
	}
	if err := s.Validate(); err != nil {
		b.Fatal(err)
	}
	base, err := adversary.NewSparseProbabilistic(0.12, 3)
	if err != nil {
		b.Fatal(err)
	}
	view := adversary.SizeView(n)
	round := network.NewEdgeSetSparse(n)
	base.EdgesInto(1, view, round)
	edges := round.Len()
	w := s.CompileStorm(5).WrapAdversary(base).(*stormAdversary)
	dst := network.NewEdgeSetSparse(n)
	filtered := func(t int) {
		dst.CopyFrom(round)
		w.filter(t, dst)
		dst.InCSR()
	}
	filtered(1) // warm the scratch, as an engine's first round does
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		filtered(2 + i)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(edges), "ns/edge")
}
