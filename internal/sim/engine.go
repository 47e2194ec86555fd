package sim

import (
	"math/bits"
	"runtime"
	"sync"

	"anondyn/internal/adversary"
	"anondyn/internal/core"
	"anondyn/internal/fault"
	"anondyn/internal/metrics"
	"anondyn/internal/network"
	"anondyn/internal/trace"
	"anondyn/internal/wire"
)

// Engine is the deterministic sequential executor. One instance runs one
// execution; it is not safe for concurrent use. Engines are recyclable:
// Reset reconfigures an instance for a fresh execution while reusing
// every allocation of the previous one, which is what makes Monte-Carlo
// batches cheap (see CompiledScenario and the harness worker pool).
//
// All per-node bookkeeping is dense (slices indexed by node ID, sized
// cfg.N) rather than map-based, and the per-round edge set is written
// into an engine-owned scratch set whenever the adversary implements
// adversary.InPlace — so a steady-state round allocates nothing at all
// (asserted by TestSteadyStateRoundAllocs and the bench suite). Maps
// appear only in the exported Result, materialized once per run.
type Engine struct {
	cfg       Config
	maxRounds int
	ports     network.Ports
	ownPorts  bool // ports were engine-built identity numberings (reusable)

	round int
	view  *execView

	// dense per-node execution state, sized cfg.N
	isByz       []bool
	byzStrats   []fault.Strategy
	decided     []bool
	outputs     []float64
	decideRound []int
	inputs      []float64
	faultFree   []int
	crashRound  []int         // crash round, or neverCrashes — no map on the hot path
	crashInfo   []fault.Crash // partial-delivery detail for crash-scheduled nodes

	// scratch reused across rounds
	broadcasts []core.Message
	hasBcast   []bool
	bcastSize  []int // wire.Size per broadcast, computed once per round
	byzMsgs    [][]*core.Message
	scratch    []recvScratch        // per-worker receiver scratch; scratch[0] serves the sequential loop
	seq        [1]recvScratch       // fixed backing for the sequential scratch — no slice-header alloc per build
	flat       []core.Delivery      // per-receiver delivery slices, back to back (scatterRound)
	cursor     []int32              // per-receiver slice starts, then write cursors, over flat; sized at Reset for direct-delivery runs
	bulk       []core.BulkDeliverer // per-node DeliverAll seam, probed once per Reset (nil: plain Deliver)
	recvMask   []uint64             // word-wise mask of round-t-eligible receivers
	edges      *network.EdgeSet     // engine-owned E(t) for InPlace adversaries
	inPlace    adversary.InPlace    // non-nil when the adversary has the fast path
	hooks      Hooks                // cfg.Hooks for this run
	roundObs   RoundObserver        // the effective Observer's optional round hook, cached
	needSize   bool                 // any consumer of wire sizes configured
	hasCap     bool                 // any per-link byte budget configured

	// receiver-parallel round state (see parallel.go)
	workers   int        // resolved Config.RoundWorkers for this run
	parRounds bool       // shard the receiver loop across the pool
	pool      *roundPool // persistent pool; created on the first parallel round
	wg        sync.WaitGroup

	// dense RoundObserver scratch, reused across rounds
	rvValues  []float64
	rvRunning []bool

	// lazy-view bookkeeping: viewSkip means nothing in this configuration
	// ever reads the view's snapshots (oblivious adversary, no Byzantine
	// strategies), so the per-round state capture is skipped entirely.
	// Otherwise the view is maintained incrementally — a full refresh on
	// the first Step, then only the snapshots that changed: each processed
	// node re-snapped at the end of its round, crash flags flipped from
	// the precomputed schedule. Both replace the former O(n) eager
	// refresh per round, the last per-round cost that scaled with n
	// rather than with the edge count.
	viewSkip   bool
	viewInit   bool
	crashSched []int // nodes with a scheduled crash, for flag flips

	// lostFast marks configurations where the suppressed-message count
	// degenerates to n(n−1) − delivered: no Byzantine nodes, no crashes,
	// no link caps — every sender broadcasts, every receiver is eligible,
	// every present link delivers. O(1) instead of the word-wise mask
	// fold, which at n=4097 is the difference between touching 64·n words
	// and none.
	lostFast bool

	// fastGather additionally rules out bandwidth accounting: every
	// in-neighbor then delivers its broadcast unconditionally. Combined
	// with allIdentity (every numbering is the identity bijection,
	// checked once per Reset) the gather fuses: it scans the receiver's
	// in-row bitmap words straight into the delivery buffer, skipping
	// the intermediate neighbor list, outgoing()'s fault checks and the
	// cap/size branches per delivery.
	fastGather  bool
	allIdentity bool

	// directDeliver is the fully fused round core: with fastGather,
	// identity ports everywhere, no delivery shuffling and no
	// Observer/Recorder, nothing between the edge bitmap and the
	// algorithm needs the delivery buffer — each in-row bit becomes a
	// Deliver call on the spot, in the same ascending order the buffered
	// path produces.
	directDeliver bool

	// trackPhases is false when neither an Observer nor a Recorder is
	// configured: phase transitions then have no consumer, and the
	// delivery loop skips the two Phase() probes per delivery — at
	// n=1025/p=8/n that is ~16k interface calls per round feeding a no-op.
	trackPhases bool

	// pushShape marks configurations whose rounds may take the
	// sender-major pushRound (push.go): no Byzantine node, no link cap or
	// bandwidth accounting, identity ports everywhere, no shuffle, no
	// Observer/Recorder and no receiver pool. Crashes are allowed. Each
	// round then also needs an ordered sparse log and enough in-degree
	// (pushWorth); pushCursor is the per-sender cursor scratch, sized at
	// Reset for push-shaped runs on a sparse scratch (a round without it,
	// such as one on an adversary's own sparse set, stays on the pull
	// paths), and pushPairs the round's log while pushRound reads it.
	pushShape  bool
	pushCursor []int32
	pushPairs  []uint64
	pushRounds int // rounds pushRound ran since Reset; read by the path-selection tests

	scatterRounds int // rounds scatterRound ran since Reset; read by the path-selection tests

	// pushForce, when > 0, is a test seam: push-shaped rounds on an
	// ordered sparse log take pushRound regardless of the in-degree gate,
	// with this receiver block width. The gate never opens at the sizes
	// the equivalence properties run, so they set it to cover the push
	// path and its block boundaries. Never set outside tests; survives
	// Reset like referenceRound.
	pushForce int

	// referenceRound switches the round loop to the retained reference
	// implementations: the original O(n)-per-receiver port-loop gather,
	// the eager full view refresh, and the word-wise lost count. Every
	// fast path must be bit-for-bit equivalent to the reference —
	// TestDeliveryEquivalenceProperty flips this flag to prove it. Never
	// set outside tests.
	referenceRound bool

	result Result // counters accumulate here; finish() materializes maps
}

// NewEngine validates the configuration and prepares an execution.
func NewEngine(cfg Config) (*Engine, error) {
	e := &Engine{}
	if err := e.Reset(cfg); err != nil {
		return nil, err
	}
	return e, nil
}

// Reset reconfigures the engine to execute cfg from round zero,
// recycling the previous execution's allocations whenever the network
// size matches. A Reset engine is indistinguishable from a fresh
// NewEngine(cfg) one — the recycle tests assert byte-identical Results —
// so a batch worker can run thousands of seeds on one instance.
func (e *Engine) Reset(cfg Config) error {
	maxRounds, err := cfg.validate()
	if err != nil {
		return err
	}
	n := cfg.N
	sameN := e.broadcasts != nil && len(e.broadcasts) == n
	e.cfg = cfg
	e.maxRounds = maxRounds
	e.round = 0

	switch {
	case cfg.Ports != nil:
		e.ports = cfg.Ports
		e.ownPorts = false
	case sameN && e.ownPorts:
		// keep the identity numberings built for the previous run
	default:
		e.ports = network.IdentityPorts(n)
		e.ownPorts = true
	}

	if sameN {
		for i := 0; i < n; i++ {
			e.isByz[i] = false
			e.byzStrats[i] = nil
			e.decided[i] = false
			e.outputs[i] = 0
			e.decideRound[i] = 0
			e.inputs[i] = 0
			e.hasBcast[i] = false
			e.bcastSize[i] = 0
			e.byzMsgs[i] = nil // drop last run's slices: nothing stale survives
		}
		e.crashSched = e.crashSched[:0]
	} else {
		e.isByz = make([]bool, n)
		e.byzStrats = make([]fault.Strategy, n)
		e.decided = make([]bool, n)
		e.outputs = make([]float64, n)
		e.decideRound = make([]int, n)
		e.inputs = make([]float64, n)
		e.broadcasts = make([]core.Message, n)
		e.hasBcast = make([]bool, n)
		e.bcastSize = make([]int, n)
		e.byzMsgs = make([][]*core.Message, n)
		e.crashRound = make([]int, n)
		e.crashInfo = make([]fault.Crash, n)
		// Max in-degree is n−1: buffers sized up front so a later
		// record-degree round can never regrow them (steady rounds stay
		// at 0 allocs). scratch[0] serves the sequential loop; ensurePool
		// extends the slice for parallel rounds.
		e.seq[0] = recvScratch{
			deliveries: make([]core.Delivery, 0, n),
			inbuf:      make([]int, 0, n),
		}
		e.scratch = e.seq[:]
		e.flat = nil
		e.cursor = nil
		e.bulk = make([]core.BulkDeliverer, n)
		e.crashSched = nil
		e.recvMask = make([]uint64, network.MaskWords(n))
		e.rvValues = make([]float64, n)
		e.rvRunning = make([]bool, n)
		e.edges = nil
		e.view = nil
	}
	for i, strat := range cfg.Byzantine {
		e.isByz[i] = true
		e.byzStrats[i] = strat
	}
	fillCrashState(e.crashRound, e.crashInfo, cfg.Crashes)
	for i := 0; i < n; i++ {
		if e.crashRound[i] != neverCrashes {
			e.crashSched = append(e.crashSched, i)
		}
	}
	e.viewSkip = adversary.IsOblivious(cfg.Adversary) && len(cfg.Byzantine) == 0
	e.viewInit = false
	e.lostFast = len(cfg.Byzantine) == 0 && len(cfg.Crashes) == 0 &&
		cfg.MaxMessageBytes == 0 && cfg.LinkBandwidth == nil
	e.fastGather = e.lostFast && !cfg.AccountBandwidth
	// The Metrics sink deliberately does not join this gate: metrics tap
	// the round from outside and must never change path selection, so a
	// metrics-enabled run takes bit-for-bit the same route as a disabled
	// one (pinned by the parity property tests).
	e.hooks = cfg.Hooks
	e.trackPhases = e.hooks.Observer != nil || e.hooks.Recorder != nil
	e.allIdentity = true
	for _, numbering := range e.ports {
		if !numbering.IsIdentity() {
			e.allIdentity = false
			break
		}
	}
	e.directDeliver = e.fastGather && e.allIdentity &&
		!cfg.ShuffleDelivery && !e.trackPhases
	// Probe each Process for the DeliverAll seam once per run, never per
	// round: the delivery loops hand a receiver its whole in-edge batch
	// in one dynamic call when its algorithm supports it.
	for i, p := range cfg.Procs {
		if p != nil {
			e.bulk[i], _ = p.(core.BulkDeliverer)
		} else {
			e.bulk[i] = nil
		}
	}
	workers := cfg.RoundWorkers
	if workers < 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	e.workers = workers
	// Observer/Recorder callbacks are ordered streams; those
	// configurations keep the sequential loop regardless of the knob.
	e.parRounds = workers > 1 && !e.trackPhases
	e.needSize = cfg.AccountBandwidth || cfg.MaxMessageBytes > 0 || cfg.LinkBandwidth != nil
	e.hasCap = cfg.MaxMessageBytes > 0 || cfg.LinkBandwidth != nil
	e.pushRounds, e.scatterRounds = 0, 0
	e.pushShape = len(cfg.Byzantine) == 0 && !e.hasCap && !cfg.AccountBandwidth &&
		e.allIdentity && !cfg.ShuffleDelivery && !e.trackPhases && !e.parRounds

	if ip, ok := cfg.Adversary.(adversary.InPlace); ok {
		e.inPlace = ip
		// The engine-owned scratch follows the density regime: CSR past
		// the size threshold (or when forced), the bit-matrix below it. A
		// recycled scratch in the wrong representation — including one a
		// FillComplete converted to dense mid-run — is rebuilt.
		wantSparse := cfg.ForceCSR || n >= network.SparseThreshold
		if e.edges == nil || e.edges.IsSparse() != wantSparse {
			if wantSparse {
				e.edges = network.NewEdgeSetSparse(n)
			} else {
				e.edges = network.NewEdgeSet(n)
			}
		}
	} else {
		e.inPlace = nil
	}
	// Only a push-shaped run on a sparse scratch can push; others never
	// pay for the cursor.
	if e.pushShape && e.inPlace != nil && e.edges.IsSparse() && len(e.pushCursor) < n {
		e.pushCursor = make([]int32, n)
	}
	// Only a direct-delivery run can scatter; others never pay for the
	// in-degree starts.
	if e.directDeliver && len(e.cursor) < n {
		e.cursor = make([]int32, n)
	}
	e.roundObs, _ = e.hooks.Observer.(RoundObserver)

	if e.view == nil {
		e.view = newExecView(&e.cfg, e.isByz)
	} else {
		e.view.reset(&e.cfg, e.isByz)
	}

	e.faultFree = cfg.FaultFree()
	e.result = Result{}
	for i, p := range cfg.Procs {
		if p != nil {
			e.inputs[i] = p.Value()
		}
	}
	// A degenerate network (or pEnd = 0) can decide at construction.
	for i, p := range cfg.Procs {
		if p != nil {
			e.noteDecision(i, p, 0)
		}
	}
	return nil
}

// Run executes rounds until every fault-free node has decided or the
// round budget is exhausted, and returns the result. The Result is
// detached from the engine: a later Reset or further rounds never
// mutate it, so batch sinks may retain it while the engine is recycled.
func (e *Engine) Run() *Result {
	for e.round < e.maxRounds && !e.allDecided() {
		e.Step()
	}
	return e.finish()
}

// RunRounds executes exactly k further rounds (regardless of decisions)
// and returns the running result. Useful for convergence measurements
// that outlive the first decision. Each call returns a fresh snapshot;
// earlier snapshots are not updated by later rounds.
func (e *Engine) RunRounds(k int) *Result {
	for i := 0; i < k; i++ {
		e.Step()
	}
	return e.finish()
}

// finish materializes the exported Result from the dense execution
// state: one map build per run, none per round.
func (e *Engine) finish() *Result {
	n := e.cfg.N
	res := e.result // counters and trace by value
	res.Rounds = e.round
	res.Decided = e.allDecided()
	res.FaultFree = e.faultFree
	res.Outputs = make(map[int]float64, n)
	res.DecideRound = make(map[int]int, n)
	res.Inputs = make(map[int]float64, n)
	for i := 0; i < n; i++ {
		if e.decided[i] {
			res.Outputs[i] = e.outputs[i]
			res.DecideRound[i] = e.decideRound[i]
		}
		if e.cfg.Procs[i] != nil {
			res.Inputs[i] = e.inputs[i]
		}
	}
	return &res
}

// Round returns the number of rounds executed so far.
func (e *Engine) Round() int { return e.round }

// Proc exposes a node's Process for inspection (nil for Byzantine IDs).
func (e *Engine) Proc(i int) core.Process { return e.cfg.Procs[i] }

// roundEdges resolves E(t): the engine-owned scratch set for InPlace
// adversaries, the adversary's own allocation otherwise.
func (e *Engine) roundEdges(t int) *network.EdgeSet {
	if e.inPlace != nil {
		e.inPlace.EdgesInto(t, e.view, e.edges)
		return e.edges
	}
	return e.cfg.Adversary.Edges(t, e.view)
}

// refreshView brings the state window up to date for round t. The eager
// full refresh is the reference semantics; the lazy modes below are
// equivalent because every Process.Broadcast implementation is a pure
// read — a node's public state at the start of round t is exactly its
// state after EndRound of the last round it was processed in, which the
// delivery loop captures as it goes. The delivery-equivalence property
// pins the lazy modes against the eager reference.
func (e *Engine) refreshView(t int) {
	switch {
	case e.referenceRound:
		e.view.refresh(t)
	case e.viewSkip:
		// Oblivious adversary, no Byzantine strategies: no snapshot is
		// ever read, so none is taken.
	case !e.viewInit:
		e.view.refresh(t)
		e.viewInit = true
	default:
		// Processed nodes were re-snapped at the end of the previous
		// round; byz markers are constant; crashed nodes keep their
		// frozen state. Only crash flags can still flip.
		e.view.round = t
		for _, i := range e.crashSched {
			if t > e.crashRound[i] {
				e.view.snaps[i].Crashed = true
			}
		}
	}
}

// Step executes one synchronous round.
func (e *Engine) Step() {
	t := e.round
	e.refreshView(t)

	// (1) The adversary chooses E(t) (it may read start-of-round state).
	edges := e.roundEdges(t)
	if e.hooks.Recorder != nil {
		e.hooks.Recorder.Record(trace.Event{Kind: trace.KindRound, Round: t, Edges: edges.Edges()})
	}
	if e.cfg.KeepTrace {
		e.result.Trace = append(e.result.Trace, edges.Clone())
	}

	// (2) Broadcasts. Crash-scheduled nodes still broadcast in their
	// crash round (possibly reaching only a subset); Byzantine nodes
	// produce per-receiver messages, overwriting last round's slices so
	// nothing stale is ever consulted.
	for i := 0; i < e.cfg.N; i++ {
		e.hasBcast[i] = false
		if e.isByz[i] {
			e.byzMsgs[i] = e.byzStrats[i].Messages(t, i, e.view)
			continue
		}
		if t > e.crashRound[i] {
			continue
		}
		m := e.cfg.Procs[i].Broadcast()
		e.broadcasts[i] = m
		e.hasBcast[i] = true
		if e.needSize {
			// One Size per broadcast per round; deliveries reuse it.
			e.bcastSize[i] = wire.Size(m)
		}
		if e.hooks.Recorder != nil {
			e.hooks.Recorder.Record(trace.Event{
				Kind: trace.KindBroadcast, Round: t, Node: i, Value: m.Value, Phase: m.Phase,
			})
		}
		if e.hooks.Recorder != nil && e.crashRound[i] == t {
			e.hooks.Recorder.Record(trace.Event{Kind: trace.KindCrash, Round: t, Node: i})
		}
	}

	// (3) Deliveries, per receiver in node order, per sender in the
	// receiver's port order — fully deterministic. The gather walks the
	// edge set's in-neighbor structure (bitmap or CSR row), so its cost
	// scales with the receiver's actual in-degree, not n. Four
	// executions of the same per-receiver semantics (the package doc
	// tabulates what selects each): the parallel round shards contiguous
	// receiver ranges over the pool, the push round walks the ordered
	// edge log sender-major in cache-sized receiver blocks, the
	// sequential sparse direct round scatters the ordered edge log into
	// per-receiver slices, and everything else runs deliverRange over the
	// full range.
	liveView := !e.viewSkip && !e.referenceRound
	sparse := edges.IsSparse()
	var roundDelivered int
	roundLost := -1 // set by rounds that count losses in their own sweep
	switch {
	case e.parRounds && !e.referenceRound:
		var bytes, oversized int
		roundDelivered, bytes, oversized = e.parallelRound(t, edges, liveView, sparse)
		e.result.BytesDelivered += bytes
		e.result.MessagesOversized += oversized
	case e.pushShape && sparse && !e.referenceRound && e.pushWorth(edges):
		roundDelivered, roundLost = e.pushRound(t, liveView)
	case sparse && e.directDeliver && !e.referenceRound && edges.Len() <= scatterMaxEdges:
		roundDelivered = e.scatterRound(t, edges, liveView)
	default:
		s := &e.scratch[0]
		s.delivered, s.bytes, s.oversized = 0, 0, 0
		e.deliverRange(t, 0, e.cfg.N, edges, s, liveView, sparse)
		roundDelivered = s.delivered
		e.result.BytesDelivered += s.bytes
		e.result.MessagesOversized += s.oversized
	}
	e.result.MessagesDelivered += roundDelivered

	// Count adversary-suppressed messages: alive sender, receiver able
	// to receive in round t, no link. Receivers that cannot receive —
	// Byzantine nodes, or nodes not fully alive through the round — are
	// excluded: a missing link toward them suppresses nothing. With no
	// Byzantine nodes, no crashes and no link caps, every one of the
	// n(n−1) potential messages either delivered or was suppressed, so
	// the count is a subtraction; otherwise one word-wise mask of the
	// eligible receivers replaces the former O(n²) faulted fallback. A
	// push round has already counted its losses during the sweep.
	switch {
	case roundLost >= 0:
	case e.lostFast && !e.referenceRound:
		roundLost = e.cfg.N*(e.cfg.N-1) - roundDelivered
	default:
		roundLost = countLost(t, e.cfg.N, e.isByz, e.crashRound, edges, e.recvMask)
	}
	e.result.MessagesLost += roundLost

	e.notifyRoundEnd(t)
	if e.hooks.Metrics != nil {
		e.emitRound(t, roundDelivered, roundLost)
	}
	e.round++
}

// emitRound feeds the metrics sink one RoundSample: counters from the
// round just executed plus an O(n) convergence scan (running nodes,
// decided count, value range). The scan runs only when a sink is
// attached, and the sample is a stack value handed to the interface by
// value — a metrics-enabled round still allocates nothing (asserted by
// TestSteadyRoundAllocBudgetMetrics).
func (e *Engine) emitRound(t, delivered, lost int) {
	s := metrics.RoundSample{Round: t, Delivered: delivered, Lost: lost}
	var lo, hi float64
	for i, p := range e.cfg.Procs {
		if p == nil {
			continue
		}
		if e.decided[i] {
			s.Decided++
		}
		if t+1 > e.crashRound[i] {
			continue
		}
		v := p.Value()
		if s.Running == 0 {
			lo, hi = v, v
		} else {
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
		s.Running++
	}
	if s.Running > 0 {
		s.Range = hi - lo
	}
	e.hooks.Metrics.RoundDone(s)
}

// deliverRange processes receivers [lo, hi): gather (or fused direct
// delivery), algorithm calls, end-of-round bookkeeping. It is the
// shared round core of the sequential loop (the full range) and the
// parallel round (contiguous sub-ranges on pool workers): receivers
// are independent within a round — everything cross-receiver it
// touches is either frozen for the round (edges, broadcasts, byzMsgs,
// crash state) or indexed by the receiver (decided/outputs/
// decideRound, view snapshots) — so disjoint ranges compose to exactly
// the sequential result, in the same per-receiver delivery order.
// Counters accumulate into the range's own scratch; the caller folds
// them into the Result.
func (e *Engine) deliverRange(t, lo, hi int, edges *network.EdgeSet, s *recvScratch, liveView, sparse bool) {
	direct := e.directDeliver && !e.referenceRound
	delivered := 0
	for v := lo; v < hi; v++ {
		if e.isByz[v] {
			continue
		}
		// A node receives in round t only if it survives the whole
		// round: its crash round delivers nothing to it.
		if t >= e.crashRound[v] {
			continue
		}
		proc := e.cfg.Procs[v]
		switch {
		case direct && e.bulk[v] != nil:
			// Fused core with the DeliverAll seam: batch the receiver's
			// whole in-edge slice and hand it over in ONE dynamic call —
			// the fold inside dispatches statically. Same senders, same
			// ascending order as the per-edge path.
			ds := s.deliveries[:0]
			if sparse {
				for _, u := range edges.InList(v) {
					ds = append(ds, core.Delivery{Port: int(u), Msg: e.broadcasts[u]})
				}
			} else {
				base := 0
				for _, w := range edges.InRow(v) {
					for w != 0 {
						u := base + bits.TrailingZeros64(w)
						w &= w - 1
						ds = append(ds, core.Delivery{Port: u, Msg: e.broadcasts[u]})
					}
					base += 64
				}
			}
			s.deliveries = ds
			delivered += len(ds)
			e.bulk[v].DeliverAll(ds)
		case direct:
			// Fused per-edge core for algorithms without the seam: each
			// in-edge becomes a Deliver call on the spot, with no
			// intermediate Delivery written.
			if sparse {
				for _, u := range edges.InList(v) {
					proc.Deliver(core.Delivery{Port: int(u), Msg: e.broadcasts[u]})
					delivered++
				}
			} else {
				base := 0
				for _, w := range edges.InRow(v) {
					for w != 0 {
						u := base + bits.TrailingZeros64(w)
						w &= w - 1
						proc.Deliver(core.Delivery{Port: u, Msg: e.broadcasts[u]})
						delivered++
					}
					base += 64
				}
			}
		default:
			s.deliveries = s.deliveries[:0]
			if e.referenceRound {
				e.gatherPortLoop(t, v, edges, s)
			} else {
				e.gatherInNeighbors(t, v, edges, s, sparse)
			}
			if e.cfg.ShuffleDelivery {
				shuffleDeliveries(s.deliveries, e.cfg.ShuffleSeed, t, v)
			}
			delivered += len(s.deliveries)
			if e.trackPhases {
				// Observer/Recorder configured: sequential-only (parRounds
				// excludes it), per-delivery probes interleaved.
				for _, d := range s.deliveries {
					if e.hooks.Recorder != nil {
						e.hooks.Recorder.Record(trace.Event{
							Kind: trace.KindDeliver, Round: t, Node: v, Port: d.Port,
							Value: d.Msg.Value, Phase: d.Msg.Phase,
						})
					}
					before := proc.Phase()
					proc.Deliver(d)
					if after := proc.Phase(); after != before {
						e.notePhase(v, before, after, proc.Value(), t)
					}
				}
			} else if b := e.bulk[v]; b != nil {
				b.DeliverAll(s.deliveries)
			} else {
				for _, d := range s.deliveries {
					proc.Deliver(d)
				}
			}
		}
		proc.EndRound()
		e.noteDecision(v, proc, t)
		if liveView {
			// End-of-round state IS the start-of-next-round snapshot:
			// nothing mutates the process until its next Deliver.
			e.view.snaps[v] = core.Snap(proc)
		}
	}
	s.delivered += delivered
}

// scatterMaxEdges bounds the rounds that take the sender-major scatter:
// the flat buffer holds one Delivery (48 B) per edge, and past roughly
// a quarter-million edges it outgrows the last-level cache — the
// scatter's random writes then cost more than the per-receiver gather's
// random broadcast reads (measured: the crossover sits between the
// n=16385 and n=65537 er2 rows of BenchmarkEngineRound). Above the
// bound the sparse direct round falls back to deliverRange's
// per-receiver InList gather, which touches only a receiver-sized
// buffer.
const scatterMaxEdges = 1 << 18

// scatterRound is the sequential sparse direct round: instead of
// gathering per receiver (one random broadcast read per edge), it reads
// the round's ordered edge log — already sender-major — in three
// passes: count each receiver's in-degree, prefix-sum the counts into
// slice starts, then scatter each link's delivery into a flat buffer at
// its receiver's cursor. Every receiver then gets its contiguous slice
// in one DeliverAll (or a per-edge fold for algorithms without the
// seam). An unordered log is canonicalized in place first (by the
// gate's Len, in fact); no CSR view is built. Reachable only under directDeliver (no
// faults, identity ports, no shuffle, no observers), so every node is
// alive and Port == sender ID; each receiver's slice comes out in
// ascending sender order because the log ascends, matching the gather
// paths bit-for-bit.
func (e *Engine) scatterRound(t int, edges *network.EdgeSet, liveView bool) int {
	n := e.cfg.N
	edges.Canonicalize() // a no-op here: the gate's Len already did it
	pairs, _ := edges.OrderedLog(nil)
	total := len(pairs)
	if cap(e.flat) < total {
		// Same headroom discipline as the sparse edge log: a later
		// record-edge round within 25% of the high-water mark keeps
		// steady rounds allocation-free.
		e.flat = make([]core.Delivery, 0, total+total/4)
	}
	flat := e.flat[:total]
	cursor := e.cursor[:n]
	clear(cursor)
	for _, p := range pairs {
		cursor[uint32(p)]++
	}
	start := int32(0)
	for v, d := range cursor {
		cursor[v] = start
		start += d
	}
	for i := 0; i < len(pairs); {
		// One sender's run: its links share the delivery.
		u := pairs[i] >> 32
		d := core.Delivery{Port: int(u), Msg: e.broadcasts[u]}
		for ; i < len(pairs) && pairs[i]>>32 == u; i++ {
			v := uint32(pairs[i])
			c := cursor[v]
			flat[c] = d
			cursor[v] = c + 1
		}
	}
	// cursor[v] now ends v's slice, which starts where v-1's ended.
	lo := int32(0)
	for v := 0; v < n; v++ {
		proc := e.cfg.Procs[v]
		hi := cursor[v]
		ds := flat[lo:hi]
		lo = hi
		if b := e.bulk[v]; b != nil {
			b.DeliverAll(ds)
		} else {
			for i := range ds {
				proc.Deliver(ds[i])
			}
		}
		proc.EndRound()
		e.noteDecision(v, proc, t)
		if liveView {
			e.view.snaps[v] = core.Snap(proc)
		}
	}
	e.flat = flat
	e.scatterRounds++
	return total
}

// gatherInNeighbors is the delivery core: it iterates only v's actual
// in-neighbors off the edge set's transposed structure — the bitmap
// in-row dense, the CSR in-list sparse, both O(in-degree) — maps each
// sender to v's local port in O(1), and restores the documented
// ascending-port delivery order — bit-for-bit the order the reference
// port loop produces, because ports are a bijection. Under the default
// identity numbering ascending node order already IS ascending port
// order and the sort is skipped entirely.
func (e *Engine) gatherInNeighbors(t, v int, edges *network.EdgeSet, s *recvScratch, sparse bool) {
	if e.fastGather && e.allIdentity {
		// No Byzantine senders, no crashes, no caps, no bandwidth
		// accounting, identity ports: every in-neighbor delivers its
		// broadcast at port == node ID, already in ascending order —
		// outgoing()'s per-sender checks are all statically true.
		if sparse {
			for _, u := range edges.InList(v) {
				s.deliveries = append(s.deliveries, core.Delivery{Port: int(u), Msg: e.broadcasts[u]})
			}
			return
		}
		base := 0
		for _, w := range edges.InRow(v) {
			for w != 0 {
				u := base + bits.TrailingZeros64(w)
				w &= w - 1
				s.deliveries = append(s.deliveries, core.Delivery{Port: u, Msg: e.broadcasts[u]})
			}
			base += 64
		}
		return
	}
	numbering := e.ports[v]
	s.inbuf = edges.InNeighborsInto(v, s.inbuf[:0])
	for _, u := range s.inbuf {
		m, size, ok := e.outgoing(t, u, v)
		if !ok {
			continue // sender silent towards v (crashed, partial, or Byzantine nil)
		}
		if e.hasCap {
			if limit := e.cfg.linkCap(u, v); limit > 0 && size > limit {
				s.oversized++
				continue // the link cannot carry a message this large
			}
		}
		s.deliveries = append(s.deliveries, core.Delivery{Port: numbering.PortOf(u), Msg: *m})
		if e.cfg.AccountBandwidth {
			s.bytes += size
		}
	}
	if !numbering.IsIdentity() {
		sortDeliveriesByPort(s.deliveries)
	}
}

// gatherPortLoop is the retained reference implementation: walk all n
// ports in ascending order and probe the edge set per sender. Kept
// solely as the equivalence oracle for the word-wise path (see
// referenceRound); it is not reachable in production configurations.
func (e *Engine) gatherPortLoop(t, v int, edges *network.EdgeSet, s *recvScratch) {
	numbering := e.ports[v]
	for port := 0; port < e.cfg.N; port++ {
		u := numbering.Node(port)
		if u == v || !edges.Has(u, v) {
			continue
		}
		m, size, ok := e.outgoing(t, u, v)
		if !ok {
			continue
		}
		if limit := e.cfg.linkCap(u, v); limit > 0 && size > limit {
			s.oversized++
			continue
		}
		s.deliveries = append(s.deliveries, core.Delivery{Port: port, Msg: *m})
		if e.cfg.AccountBandwidth {
			s.bytes += size
		}
	}
}

// notifyRoundEnd feeds the optional RoundObserver extension through a
// dense, engine-owned RoundValues view: no map rebuild, no hashing, no
// allocation — the observer path is as allocation-stable as the rest of
// the round loop.
func (e *Engine) notifyRoundEnd(t int) {
	if e.roundObs == nil {
		return
	}
	for i, p := range e.cfg.Procs {
		running := p != nil && t+1 <= e.crashRound[i]
		e.rvRunning[i] = running
		if running {
			e.rvValues[i] = p.Value()
		} else {
			e.rvValues[i] = 0
		}
	}
	e.roundObs.OnRoundEnd(t, RoundValues{values: e.rvValues, running: e.rvRunning})
}

// outgoing resolves the message sender u directs at receiver v in round
// t, honoring Byzantine per-receiver choice and crash partial delivery.
// The message comes back as a pointer into the engine's round scratch
// (one copy into the Delivery, not two); size is the wire-format
// length, valid only when the configuration needs sizes (bandwidth
// accounting or link caps) — broadcast sizes come from the
// once-per-round pass, Byzantine per-receiver messages are sized here
// (each is delivered at most once per round).
func (e *Engine) outgoing(t, u, v int) (m *core.Message, size int, ok bool) {
	if e.isByz[u] {
		mp := e.byzMsgs[u][v]
		if mp == nil {
			return nil, 0, false
		}
		if e.needSize {
			size = wire.Size(*mp)
		}
		return mp, size, true
	}
	if !e.hasBcast[u] {
		return nil, 0, false
	}
	if e.crashRound[u] == t && !e.crashInfo[u].AllowsFinalDelivery(v) {
		return nil, 0, false
	}
	return &e.broadcasts[u], e.bcastSize[u], true
}

func (e *Engine) notePhase(node, from, to int, value float64, round int) {
	if e.hooks.Observer != nil {
		e.hooks.Observer.OnPhaseEnter(node, from, to, value, round)
	}
	if e.hooks.Recorder != nil {
		e.hooks.Recorder.Record(trace.Event{
			Kind: trace.KindPhase, Round: round, Node: node,
			FromPhase: from, Phase: to, Value: value,
		})
	}
}

func (e *Engine) noteDecision(node int, proc core.Process, round int) {
	if e.decided[node] {
		return
	}
	v, ok := proc.Output()
	if !ok {
		return
	}
	e.decided[node] = true
	e.outputs[node] = v
	e.decideRound[node] = round
	if e.hooks.Observer != nil {
		e.hooks.Observer.OnDecide(node, v, round)
	}
	if e.hooks.Recorder != nil {
		e.hooks.Recorder.Record(trace.Event{Kind: trace.KindDecide, Round: round, Node: node, Value: v})
	}
}

func (e *Engine) allDecided() bool {
	for _, i := range e.faultFree {
		if !e.decided[i] {
			return false
		}
	}
	return true
}
