package chaos

import (
	"anondyn"
	"anondyn/internal/adversary"
	"anondyn/internal/network"
)

// WrapAdversary layers the storm's connectivity windows (partitions,
// starvation) over a base adversary. Storms without such windows
// return the base unchanged, so crash/Byzantine-only storms keep the
// base adversary's exact fast paths.
func (st *Storm) WrapAdversary(base anondyn.Adversary) anondyn.Adversary {
	if len(st.cuts) == 0 && len(st.starves) == 0 {
		return base
	}
	w := &stormAdversary{base: base, cuts: st.cuts, starves: st.starves}
	w.inPlace, _ = base.(adversary.InPlace)
	return w
}

// stormAdversary filters a base adversary's per-round edge set through
// the storm's active connectivity windows. It always implements the
// InPlace fast path: the base fills the engine-owned scratch set (or is
// copied into it), then EdgeSet.Retain drops the suppressed links in
// place — O(edges) per round in either representation, with the walk
// order (and hence every starvation draw) identical across the
// dense/CSR switch. The active-window scratch is reused round to round,
// so a filtered round allocates nothing.
type stormAdversary struct {
	base    adversary.Adversary
	inPlace adversary.InPlace // non-nil when the base has the fast path
	cuts    []cutWindow
	starves []starveWindow

	activeCuts []cutWindow  // cut windows active this round
	draws      []starveDraw // starve windows active this round
}

// starveDraw is one active starve window's per-round drop stream.
type starveDraw struct {
	rng  stream
	rate float64
}

// Name labels the wrapper in traces and logs.
func (a *stormAdversary) Name() string { return a.base.Name() + "+storm" }

// Edges is the allocating fallback path.
func (a *stormAdversary) Edges(t int, view adversary.View) *network.EdgeSet {
	e := a.base.Edges(t, view).Clone()
	a.filter(t, e)
	return e
}

// EdgesInto implements the zero-extra-allocation engine path.
func (a *stormAdversary) EdgesInto(t int, view adversary.View, dst *network.EdgeSet) {
	if a.inPlace != nil {
		a.inPlace.EdgesInto(t, view, dst)
	} else {
		dst.CopyFrom(a.base.Edges(t, view))
	}
	a.filter(t, dst)
}

// Oblivious forwards the base's state-independence promise — the
// windows themselves never consult the view.
func (a *stormAdversary) Oblivious() bool { return adversary.IsOblivious(a.base) }

// filter drops every link an active window suppresses: links crossing
// an active partition cut, then each survivor with the active starve
// windows' per-round drop draws (sender-major order; see
// StreamVersion). Rounds with no active window return untouched.
func (a *stormAdversary) filter(t int, dst *network.EdgeSet) {
	if a.activate(t) {
		dst.Retain(a.keep)
	}
}

// activate loads round t's active windows into the reused scratch and
// reports whether any is active.
func (a *stormAdversary) activate(t int) bool {
	a.activeCuts = a.activeCuts[:0]
	for _, w := range a.cuts {
		if t >= w.from && t < w.until {
			a.activeCuts = append(a.activeCuts, w)
		}
	}
	a.draws = a.draws[:0]
	for _, w := range a.starves {
		if t >= w.from && t < w.until {
			a.draws = append(a.draws, starveDraw{
				rng:  stream{z: mix(int64(w.seed), uint64(t)*saltStarve)},
				rate: w.rate,
			})
		}
	}
	return len(a.activeCuts) > 0 || len(a.draws) > 0
}

// keep decides one link's fate this round: dropped when it crosses an
// active cut, otherwise when any active starve window's draw falls
// under its rate (windows in spec order, stopping at the first drop).
func (a *stormAdversary) keep(u, v int) bool {
	for _, w := range a.activeCuts {
		if w.inCut[u] != w.inCut[v] {
			return false
		}
	}
	for i := range a.draws {
		if d := &a.draws[i]; d.rng.float64() < d.rate {
			return false
		}
	}
	return true
}
