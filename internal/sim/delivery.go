package sim

import (
	"math"
	"slices"

	"anondyn/internal/core"
	"anondyn/internal/fault"
	"anondyn/internal/network"
)

// neverCrashes marks nodes without a scheduled crash in the dense
// crash-round arrays: every round index compares below it, so the
// alive checks need no special case.
const neverCrashes = math.MaxInt

// fillCrashState flattens a crash schedule into dense per-node arrays —
// the round loop and the per-delivery partial-crash check never probe
// the schedule map. rounds[i] holds node i's crash round (neverCrashes
// when unscheduled): "alive in t" is t ≤ rounds[i], "fully alive
// through t" is t < rounds[i], matching fault.Schedule's semantics.
func fillCrashState(rounds []int, info []fault.Crash, s fault.Schedule) {
	for i := range rounds {
		rounds[i] = neverCrashes
		info[i] = fault.Crash{}
	}
	for node, c := range s {
		rounds[node] = c.Round
		info[node] = c
	}
}

// Shared pieces of the word-wise delivery core, used identically by the
// sequential receiver loop and the receiver-parallel pool so the two
// stay bit-for-bit equivalent.

// sortDeliveriesByPort restores the documented ascending-port delivery
// order after a node-order in-neighbor gather. Ports within one
// receiver's round are distinct (the numbering is a bijection), so the
// sorted order is unique — identical to what the reference port loop
// produces. slices.SortFunc is allocation-free, keeping the steady
// round at 0 allocs even under non-identity numberings.
func sortDeliveriesByPort(ds []core.Delivery) {
	slices.SortFunc(ds, func(a, b core.Delivery) int { return a.Port - b.Port })
}

// countLost computes one round's adversary-suppressed message count
// word-wise: first a bitmap of the receivers able to receive in round t
// (not Byzantine, fully alive through the round) and its popcount, then,
// per alive sender, that count minus the mask bits its out-row covers
// (OutHits: O(out-degree) on CSR, O(n/64) dense). The mask is counted
// once per round, not once per sender, so a CSR round costs
// O(n + edges) rather than O(n²/64). mask must be MaskWords(n) words
// and is overwritten.
func countLost(t, n int, isByz []bool, crashRound []int, edges *network.EdgeSet, mask []uint64) int {
	clear(mask)
	eligible := 0
	for v := 0; v < n; v++ {
		if isByz[v] || t >= crashRound[v] {
			continue
		}
		mask[v/64] |= 1 << (uint(v) % 64)
		eligible++
	}
	lost := 0
	for u := 0; u < n; u++ {
		// A sender counts while it is Byzantine or still alive at the
		// start of round t (its crash round still broadcasts).
		if !isByz[u] && t > crashRound[u] {
			continue
		}
		miss := eligible - edges.OutHits(u, mask)
		if mask[u/64]&(1<<(uint(u)%64)) != 0 {
			miss-- // (u, u) is never a link; u "missing" itself is no loss
		}
		lost += miss
	}
	return lost
}
