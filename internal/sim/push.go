package sim

import (
	"anondyn/internal/core"
	"anondyn/internal/network"
)

// pushBlock is pushRound's receiver block width, and pushMinDegree the
// gate constant c: a round pushes only when its mean in-degree is at
// least c·B, B = ⌈n/pushBlock⌉ blocks. The B·n per-block sender visits
// then stay under 1/c of the edge walk, and each visit reads a row
// segment of about c links, long enough to pay for the cache miss that
// starts it.
//
// Both come from BenchmarkPushSweep, run as five interleaved passes of
// steady DAC rounds on er2 (2-vCPU Xeon, GOMAXPROCS=1, Go 1.24). Median
// ns/edge, pull → push at 1024-receiver blocks, fault-free / with 1%
// crashes:
//
//	n=4097  in-degree  32:  54 → 40 / 58 → 45   (B=5)
//	n=4097  in-degree  64:  67 → 46 / 60 → 46
//	n=4097  in-degree 128:  54 → 45 / 73 → 50
//	n=4097  in-degree 492:  55 → 42 / 59 → 45
//	n=16385 in-degree 128:  52 → 85 / 78 → 81   (B=16)
//	n=16385 in-degree 256:  59 → 62 / 70 → 69
//	n=16385 in-degree 492:  60 → 54 / 69 → 57
//
// At n=16385 push needs about 16 links per row segment just to break
// even (the log and the 2 KB-per-node DAC state outgrow L2 there);
// c=24 keeps n=16385 at in-degree 256 on the pull paths and admits
// in-degree 492 and n=4097 from in-degree 120 up. It gives up the
// n=4097 wins at in-degree 32–64, where the whole log still fits in
// cache.
//
// Re-derived once scatterRound read the ordered log with no CSR build
// (same machine and settings; pull is scatterRound fault-free up to 2¹⁸
// edges and deliverRange otherwise):
//
//	n=4097  in-degree  16:  46 → 55 / 66 → 47
//	n=4097  in-degree  24:  43 → 51 / 57 → 46
//	n=4097  in-degree  32:  45 → 46 / 66 → 51
//	n=4097  in-degree  64:  55 → 49 / 66 → 49
//
// Fault-free push no longer wins below in-degree 64, and a c low enough
// to admit n=4097 at 64 (c ≤ 12) would admit n=16385 from in-degree
// 204, where push lost at 256, so c stays 24. Blocks of 256 receivers
// lost at n=16385 (in-degree 8–128: 1.2–1.8× pull), and blocks of 4096
// were within noise of 1024 above the gate (two to three passes of
// every width), so the width stays at 1024, which is about 0.6 MB of
// DAC state at n=4097.
const (
	pushBlock     = 1024
	pushMinDegree = 24
)

// pushWorth decides whether this round takes pushRound: the caller has
// checked the configuration shape (pushShape) and that edges is sparse;
// here the log must also be ordered and dense enough to pay for the
// per-block sender visits. On success the round's log is left in
// pushPairs and every sender's first link in pushCursor.
func (e *Engine) pushWorth(edges *network.EdgeSet) bool {
	n := e.cfg.N
	if len(e.pushCursor) < n {
		return false
	}
	// An unordered log stays on the pull paths; the order is checked
	// before Len could canonicalize it.
	pairs, ok := edges.OrderedLog(nil)
	if !ok {
		return false
	}
	if e.pushForce == 0 {
		blocks := (n + pushBlock - 1) / pushBlock
		if len(pairs) < pushMinDegree*blocks*n {
			return false
		}
	}
	e.pushPairs, _ = edges.OrderedLog(e.pushCursor)
	return true
}

// pushRound is the sender-major round: it walks the ordered edge log
// (u<<32|v ascending, as the er2 sampler and the storm filters leave
// it) and calls Deliver on each surviving link's receiver, with no CSR
// view built at all. Each receiver still gets its deliveries in
// ascending sender order — exactly what the pull paths give it, since
// identity ports make sender order port order.
//
// A single sweep would hit each receiver's algorithm state at random,
// so the sweep runs once per block of receivers sized to keep the
// block's state cache-resident. Every sender's row is sorted by
// receiver, so a per-sender cursor resumes each row where the previous
// block stopped: the log is read exactly once in total, plus B·n cursor
// visits. A block's receivers end their round as soon as its sweep is
// done, while their state is still warm.
//
// The suppressed-message count comes out of the same sweep:
// Σ over alive senders of (eligible receivers − self) minus the links
// from alive senders to eligible receivers. A crashing sender's link
// counts as present even where its partial final broadcast is
// withheld, as in countLost.
func (e *Engine) pushRound(t int, liveView bool) (delivered, lost int) {
	n := e.cfg.N
	pairs := e.pushPairs
	e.pushPairs = nil
	cursor := e.pushCursor[:n]
	procs := e.cfg.Procs[:n]
	crashRound := e.crashRound[:n]
	block := pushBlock
	if e.pushForce > 0 {
		block = e.pushForce
	}
	blocks := (n + block - 1) / block
	links, withheld := 0, 0
	e.pushRounds++
	for b := 0; b < blocks; b++ {
		// Equal blocks: n just past a multiple of the width must not
		// leave a near-empty last block that still visits every sender.
		lo, hi := b*n/blocks, (b+1)*n/blocks
		for u := 0; u < n; u++ {
			cr := crashRound[u]
			if t > cr {
				continue // crashed in an earlier round: sends nothing
			}
			c := int(cursor[u])
			end := uint64(u)<<32 | uint64(hi) // past u's links into this block
			d := core.Delivery{Port: u, Msg: e.broadcasts[u]}
			if cr == t && e.crashInfo[u].DeliverTo != nil {
				// Partial final broadcast: the links count, but only the
				// listed receivers hear it.
				for ; c < len(pairs) && pairs[c] < end; c++ {
					v := int(uint32(pairs[c]))
					if t >= crashRound[v] {
						continue
					}
					links++
					if !e.crashInfo[u].AllowsFinalDelivery(v) {
						withheld++
						continue
					}
					procs[v].Deliver(d)
				}
				cursor[u] = int32(c)
				continue
			}
			for ; c < len(pairs) && pairs[c] < end; c++ {
				v := int(uint32(pairs[c]))
				if t >= crashRound[v] {
					continue // v does not survive the round: receives nothing
				}
				links++
				procs[v].Deliver(d)
			}
			cursor[u] = int32(c)
		}
		for v := lo; v < hi; v++ {
			if t >= crashRound[v] {
				continue
			}
			proc := procs[v]
			proc.EndRound()
			e.noteDecision(v, proc, t)
			if liveView {
				e.view.snaps[v] = core.Snap(proc)
			}
		}
	}
	// Eligible receivers are exactly the senders that survive the round,
	// a subset of the alive senders.
	senders, eligible := 0, 0
	for _, cr := range crashRound {
		if t <= cr {
			senders++
			if t < cr {
				eligible++
			}
		}
	}
	return links - withheld, (senders-1)*eligible - links
}
