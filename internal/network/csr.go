package network

import (
	"fmt"
	"slices"
)

// SparseThreshold is the node count at which NewEdgeSetAuto switches
// from the dense bit-matrix representation to the sparse CSR one. The
// dense matrices cost 2·n·⌈n/64⌉ words regardless of how many links a
// round actually has: at n=4097 that is ~4.3 MB — past L2 on common
// parts, which is exactly where the measured per-edge round cost
// climbed from ~45 ns to ~73 ns — and at n=65537 it would be ~1 GB per
// set. The sparse representation costs O(n + edges) instead.
const SparseThreshold = 2048

// csrState is the sparse-mode representation behind an EdgeSet: a
// mutation log of packed (u,v) pairs plus lazily (re)built CSR views in
// both directions. The log is the source of truth — mutators only
// append to or filter it — and build() compacts it into sender-major
// (outStart/outList) and receiver-major (inStart/inList) adjacency the
// first time a reader needs one, deduplicating on the way (adversaries
// that layer extra links over a copied schedule may log one link
// twice; it must still deliver once).
//
// The log also tracks whether it is ordered: strictly ascending by
// u<<32|v, which is exactly ForEachEdge order and rules out duplicates.
// A reset log is ordered, appends keep it so while they ascend (the er2
// sampler, dense-to-sparse copies and every filter do), and the first
// out-of-order append clears the flag. An ordered log already IS the
// sender-major view, so build skips the sort and dedup and Retain can
// filter the log in place without building at all.
type csrState struct {
	pairs   []uint64 // mutation log, u<<32 | v per link
	ordered bool     // pairs strictly ascending: canonical order, no duplicates
	dirty   bool     // log changed since the last build

	outStart []int32 // n+1 prefix offsets into outList
	outList  []int32 // receivers, ascending within each sender row
	inStart  []int32 // n+1 prefix offsets into inList
	inList   []int32 // senders, ascending within each receiver row

	cursor   []int32 // length-n scatter scratch for build
	maxPairs int     // high-water mark of the log, for headroom sizing
}

// push appends one packed link to the log, clearing the ordered flag
// when it does not ascend past the previous entry.
func (c *csrState) push(p uint64) {
	if c.ordered && len(c.pairs) > 0 && p <= c.pairs[len(c.pairs)-1] {
		c.ordered = false
	}
	c.pairs = append(c.pairs, p)
	c.dirty = true
}

// reserve makes room for k more log entries. When the log has to grow
// it reallocates with 50% headroom over the need, so a run whose edge
// count drifts upwards settles into a log that no longer grows.
func (c *csrState) reserve(k int) {
	need := len(c.pairs) + k
	if cap(c.pairs) >= need {
		return
	}
	grown := make([]uint64, len(c.pairs), need+need/2)
	copy(grown, c.pairs)
	c.pairs = grown
}

// NewEdgeSetSparse returns an empty edge set over n nodes in sparse CSR
// mode: no n×n bit-matrix is ever materialized, and storage scales with
// the number of links actually added. The full EdgeSet API works in
// either mode (except InRow, which is inherently a bitmap accessor);
// FillComplete converts the set to dense, because a complete graph is.
func NewEdgeSetSparse(n int) *EdgeSet {
	if n < 1 {
		panic(fmt.Sprintf("network: invalid node count %d", n))
	}
	return &EdgeSet{
		n:     n,
		words: MaskWords(n),
		csr: &csrState{
			outStart: make([]int32, n+1),
			inStart:  make([]int32, n+1),
			cursor:   make([]int32, n),
			ordered:  true,
			dirty:    true,
		},
	}
}

// NewEdgeSetAuto picks the representation by size: dense bit matrices
// below SparseThreshold (word-wise iteration, O(1) Has), sparse CSR at
// and above it. Engine-owned per-round scratch sets use this, so the
// delivery core follows the representation that fits the cache at each
// scale.
func NewEdgeSetAuto(n int) *EdgeSet {
	if n >= SparseThreshold {
		return NewEdgeSetSparse(n)
	}
	return NewEdgeSet(n)
}

// IsSparse reports whether the set uses the sparse CSR representation.
func (e *EdgeSet) IsSparse() bool { return e.csr != nil }

// OutCSR exposes the sender-major CSR view: starts has n+1 prefix
// offsets and ids[starts[u]:starts[u+1]] lists u's receivers in
// ascending order. Sparse mode only; the slices alias internal storage,
// are valid until the next mutation, and must be treated as read-only.
func (e *EdgeSet) OutCSR() (starts, ids []int32) {
	c := e.mustSparse("OutCSR")
	e.build()
	return c.outStart, c.outList
}

// InCSR exposes the receiver-major CSR view: ids[starts[v]:starts[v+1]]
// lists v's senders in ascending order — the delivery core's gather
// rows. Same aliasing rules as OutCSR.
func (e *EdgeSet) InCSR() (starts, ids []int32) {
	c := e.mustSparse("InCSR")
	e.build()
	return c.inStart, c.inList
}

// InList returns v's senders in ascending order as a CSR row slice —
// the sparse counterpart of scanning InRow's bits. Sparse mode only;
// read-only, valid until the next mutation.
func (e *EdgeSet) InList(v int) []int32 {
	c := e.mustSparse("InList")
	e.check(v)
	e.build()
	return c.inList[c.inStart[v]:c.inStart[v+1]:c.inStart[v+1]]
}

// OutList returns u's receivers in ascending order as a CSR row slice.
// Sparse mode only; read-only, valid until the next mutation.
func (e *EdgeSet) OutList(u int) []int32 {
	c := e.mustSparse("OutList")
	e.check(u)
	e.build()
	return c.outList[c.outStart[u]:c.outStart[u+1]:c.outStart[u+1]]
}

func (e *EdgeSet) mustSparse(method string) *csrState {
	if e.csr == nil {
		panic("network: " + method + " on a dense EdgeSet")
	}
	return e.csr
}

// build compacts the mutation log into both CSR views. An ordered log
// takes two passes: one that copies the receivers straight into outList
// while counting both directions' degrees, then the transposed scatter.
// Any other log takes the general path: counting sort by sender,
// per-row ascending order, in-place dedup, a recount of in-degrees,
// then the same scatter. Cost O(n + log length) either way.
func (e *EdgeSet) build() {
	c := e.csr
	if !c.dirty {
		return
	}
	c.dirty = false
	if len(c.pairs) > c.maxPairs {
		c.maxPairs = len(c.pairs)
	}
	n := e.n
	clear(c.outStart)
	clear(c.inStart)
	var m int
	if c.ordered {
		m = len(c.pairs)
		c.outList = growInt32(c.outList, m)
		for i, p := range c.pairs {
			v := uint32(p)
			c.outList[i] = int32(v)
			c.outStart[(p>>32)+1]++
			c.inStart[v+1]++
		}
		prefixSum(c.outStart)
	} else {
		m = e.buildUnordered()
		for _, v := range c.outList[:m] {
			c.inStart[v+1]++
		}
	}
	prefixSum(c.inStart)

	// Receiver-major transpose: senders land in ascending order because
	// the scatter walks senders in ascending order.
	copy(c.cursor, c.inStart[:n])
	c.inList = growInt32(c.inList, m)
	for u := 0; u < n; u++ {
		for _, v := range c.outList[c.outStart[u]:c.outStart[u+1]] {
			c.inList[c.cursor[v]] = int32(u)
			c.cursor[v]++
		}
	}
}

// buildUnordered fills the sender-major view from a log in any order,
// with duplicates: count, prefix, scatter, then sort each row if needed
// and dedup, compacting in place. It returns the distinct link count.
func (e *EdgeSet) buildUnordered() int {
	c := e.csr
	n := e.n
	for _, p := range c.pairs {
		c.outStart[(p>>32)+1]++
	}
	prefixSum(c.outStart)
	copy(c.cursor, c.outStart[:n])
	c.outList = growInt32(c.outList, len(c.pairs))
	for _, p := range c.pairs {
		u := p >> 32
		c.outList[c.cursor[u]] = int32(uint32(p))
		c.cursor[u]++
	}

	// The write cursor never passes the read position within a row
	// (w ≤ row start), so the compaction is safe.
	w := int32(0)
	for u := 0; u < n; u++ {
		lo, hi := c.outStart[u], c.outStart[u+1]
		row := c.outList[lo:hi]
		if !sortedInt32(row) {
			slices.Sort(row)
		}
		c.outStart[u] = w
		prev := int32(-1)
		for _, v := range row {
			if v != prev {
				c.outList[w] = v
				w++
				prev = v
			}
		}
	}
	c.outStart[n] = w
	c.outList = c.outList[:w]
	return int(w)
}

// prefixSum turns per-row counts stored at [1:] into n+1 offsets.
func prefixSum(starts []int32) {
	for i := 1; i < len(starts); i++ {
		starts[i] += starts[i-1]
	}
}

// sparseReset clears the log, keeping storage. It reallocates only when
// the log's capacity is under the all-time edge high-water mark plus a
// 1/16 margin, and then with reserve's 50% headroom, so a steady-state
// engine round that later sees a record edge count still appends
// without growing — the zero-alloc round budget depends on it.
func (e *EdgeSet) sparseReset() {
	c := e.csr
	if len(c.pairs) > c.maxPairs {
		c.maxPairs = len(c.pairs)
	}
	c.pairs = c.pairs[:0]
	c.reserve(c.maxPairs + c.maxPairs/16)
	c.ordered = true
	c.dirty = true
}

// sparseRetain is Retain in sparse mode. An ordered log is filtered in
// place, with no build. Any other log is built once and rewritten from
// the sender-major view, so it comes out ordered; it fits in the log's
// own storage because the view holds at most as many links as the log.
func (e *EdgeSet) sparseRetain(keep func(u, v int) bool) {
	c := e.csr
	if !c.ordered {
		e.build()
		m := int(c.outStart[e.n])
		c.pairs = c.pairs[:0]
		for u := 0; u < e.n; u++ {
			for _, v := range c.outList[c.outStart[u]:c.outStart[u+1]] {
				if keep(u, int(v)) {
					c.pairs = append(c.pairs, uint64(u)<<32|uint64(uint32(v)))
				}
			}
		}
		c.ordered = true
		c.dirty = len(c.pairs) != m
		return
	}
	w := 0
	for _, p := range c.pairs {
		if keep(int(p>>32), int(uint32(p))) {
			c.pairs[w] = p
			w++
		}
	}
	if w != len(c.pairs) {
		c.pairs = c.pairs[:w]
		c.dirty = true
	}
}

// sparseHas binary-searches u's out row.
func (e *EdgeSet) sparseHas(u, v int) bool {
	e.build()
	c := e.csr
	row := c.outList[c.outStart[u]:c.outStart[u+1]]
	lo, hi := 0, len(row)
	for lo < hi {
		mid := (lo + hi) / 2
		if row[mid] < int32(v) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo < len(row) && row[lo] == int32(v)
}

// sparseRemove filters every occurrence of u→v out of the log.
func (e *EdgeSet) sparseRemove(u, v int) {
	c := e.csr
	pair := uint64(u)<<32 | uint64(uint32(v))
	w := 0
	for _, p := range c.pairs {
		if p != pair {
			c.pairs[w] = p
			w++
		}
	}
	if w != len(c.pairs) {
		c.pairs = c.pairs[:w]
		c.dirty = true
	}
}

// sparseLogFromDense rebuilds the log from a dense set's bit rows, in
// ascending order.
func (e *EdgeSet) sparseLogFromDense(other *EdgeSet) {
	c := e.csr
	c.pairs = c.pairs[:0]
	c.ordered = true
	for u := 0; u < other.n; u++ {
		base := u * other.words
		for w := 0; w < other.words; w++ {
			bits := other.out[base+w]
			for bits != 0 {
				v := w*wordBits + trailingZeros(bits)
				bits &= bits - 1
				c.pairs = append(c.pairs, uint64(u)<<32|uint64(uint32(v)))
			}
		}
	}
	c.dirty = true
}

// makeDense converts a sparse set to the dense bit-matrix
// representation in place, allocating the 2·n·words backing. Used by
// FillComplete: a complete graph is dense by definition, so a sparse
// set asked to become one changes representation instead of logging
// n(n−1) pairs.
func (e *EdgeSet) makeDense() {
	if e.csr == nil {
		return
	}
	e.build()
	c := e.csr
	backing := make([]uint64, 2*e.n*e.words)
	e.out = backing[: e.n*e.words : e.n*e.words]
	e.in = backing[e.n*e.words:]
	for u := 0; u < e.n; u++ {
		for _, v := range c.outList[c.outStart[u]:c.outStart[u+1]] {
			e.out[u*e.words+int(v)/wordBits] |= 1 << (uint(v) % wordBits)
			e.in[int(v)*e.words+u/wordBits] |= 1 << (uint(u) % wordBits)
		}
	}
	e.csr = nil
}

// forEachEdge calls fn for every link in sender-major, ascending-
// receiver order — the representation-independent edge iterator Equal
// and Edges are built on. fn returning false stops the walk.
func (e *EdgeSet) forEachEdge(fn func(u, v int) bool) {
	if e.csr != nil {
		e.build()
		c := e.csr
		for u := 0; u < e.n; u++ {
			for _, v := range c.outList[c.outStart[u]:c.outStart[u+1]] {
				if !fn(u, int(v)) {
					return
				}
			}
		}
		return
	}
	for u := 0; u < e.n; u++ {
		base := u * e.words
		for w := 0; w < e.words; w++ {
			bits := e.out[base+w]
			for bits != 0 {
				v := w*wordBits + trailingZeros(bits)
				bits &= bits - 1
				if !fn(u, v) {
					return
				}
			}
		}
	}
}

// growInt32 returns a slice of length n, reusing buf's storage when it
// fits and reallocating with 25% headroom when it does not, so repeated
// builds at slowly growing edge counts settle into zero allocations.
func growInt32(buf []int32, n int) []int32 {
	if cap(buf) >= n {
		return buf[:n]
	}
	return make([]int32, n, n+n/4)
}

func sortedInt32(xs []int32) bool {
	for i := 1; i < len(xs); i++ {
		if xs[i-1] > xs[i] {
			return false
		}
	}
	return true
}
