package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"anondyn"
	"anondyn/internal/adversary"
	"anondyn/internal/metrics"
	"anondyn/internal/network"
	"anondyn/internal/shard"
)

// spanName indexes spanNames.
type spanName uint8

const (
	spPass      spanName = iota // one spec-bytes → report pass
	spSetup                     // everything before the first run is dispatched
	spCompile                   // spec.Compile + grid expansion + adversary checks
	spJoin                      // control-plane listen + both workers joined
	spRunPhase                  // first dispatch → last result
	spSimRun                    // one simulated run, from its Mutate hook to its last round
	spMutate                    // the spec's own Grid.Mutate hook (the storm compile on stress specs)
	spRunSetup                  // scenario assembled → first round ended
	spRound                     // one round after the first, RoundDone to RoundDone
	spAdversary                 // EdgesInto/Edges
	spMetrics                   // metrics.Collector.RoundDone behind the sink
	spReport                    // report rendering and writing
	spReplay                    // the core/sim split replay's Engine.Run
	spFold                      // DeliverAll/Deliver/EndRound in the replay
)

var spanNames = [...]string{
	spPass: "bench.pass", spSetup: "bench.setup", spCompile: "spec.compile", spJoin: "shard.join",
	spRunPhase: "bench.run", spSimRun: "sim.run", spMutate: "grid.mutate", spRunSetup: "sim.setup",
	spRound: "sim.round", spAdversary: "adversary.edges", spMetrics: "metrics.round_done",
	spReport: "report.render", spReplay: "replay.run", spFold: "core.fold",
}

// MarshalJSON writes the span's name rather than its index.
func (n spanName) MarshalJSON() ([]byte, error) { return json.Marshal(spanNames[n]) }

// span is one timed interval. Times are nanoseconds since the tracer's
// epoch; Parent indexes the pass's span list (-1: root); Run is the
// global run index of the simulated run it belongs to (-1: none).
// Count carries the work done inside: deliveries for rounds, edges for
// adversary calls.
type span struct {
	Name   spanName `json:"name"`
	Run    int32    `json:"run"`
	Parent int32    `json:"parent"`
	Start  int64    `json:"start_ns"`
	End    int64    `json:"end_ns"`
	Count  int64    `json:"count,omitempty"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer records one traced pass. Spans stay in memory; the bench
// writes the last pass's spans out when the run ends. Bench-level spans
// and folded run spans are appended only from the bench goroutine (the
// grid delivers results on its caller's goroutine); each simulated run
// buffers its own spans on the worker that executes it.
type tracer struct {
	epoch time.Time
	spans []span
	stack []int32 // open bench-level spans

	runs     []*runTrace        // in-flight runs by global run index
	runPhase int32              // index of the open bench.run span
	coll     *metrics.Collector // the collector the round sink forwards to
	pool     *busyClock

	workers []*workerObs // sharded path: one observer per joined worker
	shard   shardStats

	simRounds, simDeliveries int64

	replayRun int             // global run index the replay re-executes
	replayRef *anondyn.Result // that run's Result from the traced pass
}

func newTracer() *tracer {
	tr := &tracer{epoch: time.Now(), coll: metrics.NewCollector(), replayRun: -1}
	tr.pool = &busyClock{tr: tr}
	return tr
}

func (tr *tracer) now() int64 { return int64(time.Since(tr.epoch)) }

// begin opens a bench-level span under the innermost open one and
// returns its closer. Safe on a nil tracer (a no-op), so untraced
// passes run the same code.
func (tr *tracer) begin(name spanName) func() {
	if tr == nil {
		return func() {}
	}
	parent := int32(-1)
	if len(tr.stack) > 0 {
		parent = tr.stack[len(tr.stack)-1]
	}
	idx := int32(len(tr.spans))
	tr.spans = append(tr.spans, span{Name: name, Run: -1, Parent: parent, Start: tr.now()})
	tr.stack = append(tr.stack, idx)
	if name == spRunPhase {
		tr.runPhase = idx // the parent of every simulated run's spans
	}
	return func() {
		tr.spans[idx].End = tr.now()
		tr.stack = tr.stack[:len(tr.stack)-1]
	}
}

// install sets Grid.Mutate to the spec's own hook followed by the two
// per-run installs — the timing adversary wrapper and the round sink —
// and gives the batch a pool observer.
func (tr *tracer) install(g *anondyn.Grid, opts *anondyn.BatchOptions) {
	if tr == nil {
		return
	}
	tr.runs = make([]*runTrace, g.Runs())
	opts.Metrics = tr.pool
	inner, base := g.Mutate, g.BaseSeed
	g.Mutate = func(s *anondyn.Scenario, c anondyn.Cell, seed int64) {
		start := tr.now()
		if inner != nil {
			inner(s, c, seed)
		}
		end := tr.now()
		run := int32(seed - base)
		rt := &runTrace{tr: tr, run: run, last: end, spans: make([]span, 0, 64)}
		rt.spans = append(rt.spans,
			span{Name: spSimRun, Run: run, Parent: -1, Start: start, End: end},
			span{Name: spMutate, Run: run, Parent: 0, Start: start, End: end})
		s.Adversary = wrapAdversary(s.Adversary, rt.adversary)
		s.Metrics = rt
		tr.runs[run] = rt
	}
}

// runDone folds one completed run's spans into the pass, in run order.
func (tr *tracer) runDone(run int, res *anondyn.Result) {
	if tr == nil {
		return
	}
	rt := tr.runs[run]
	tr.runs[run] = nil
	base := int32(len(tr.spans))
	for _, s := range rt.spans {
		if s.Parent < 0 {
			s.Parent = tr.runPhase
		} else {
			s.Parent += base
		}
		tr.spans = append(tr.spans, s)
	}
	tr.simRounds += int64(res.Rounds)
	tr.simDeliveries += int64(res.MessagesDelivered)
	if run == tr.replayRun {
		tr.replayRef = res
	}
}

// runTrace is one simulated run's span buffer and its round sink. The
// engine calls RoundDone and the adversary wrapper from the one worker
// goroutine executing the run.
type runTrace struct {
	tr    *tracer
	run   int32
	spans []span
	last  int64 // end of the previous RoundDone, or of the Mutate hook

	adv      [2]int64 // this round's adversary call
	advEdges int64
}

func (rt *runTrace) adversary(start, end time.Time, edges int) {
	rt.adv = [2]int64{int64(start.Sub(rt.tr.epoch)), int64(end.Sub(rt.tr.epoch))}
	rt.advEdges = int64(edges)
}

// RoundDone implements metrics.Sink: it closes the round's span (the
// first round's closes sim.setup) and forwards the sample to a real
// collector, timed.
func (rt *runTrace) RoundDone(s metrics.RoundSample) {
	t0 := rt.tr.now()
	rt.tr.coll.RoundDone(s)
	t1 := rt.tr.now()
	name := spRound
	if s.Round == 0 {
		name = spRunSetup
	}
	idx := int32(len(rt.spans))
	rt.spans = append(rt.spans, span{Name: name, Run: rt.run, Parent: 0, Start: rt.last, End: t1, Count: int64(s.Delivered)})
	if rt.adv[1] != 0 {
		rt.spans = append(rt.spans, span{Name: spAdversary, Run: rt.run, Parent: idx, Start: rt.adv[0], End: rt.adv[1], Count: rt.advEdges})
		rt.adv = [2]int64{}
	}
	rt.spans = append(rt.spans, span{Name: spMetrics, Run: rt.run, Parent: idx, Start: t0, End: t1})
	rt.last = t1
	rt.spans[0].End = t1
}

// RunDone implements metrics.Sink; the engine never calls it.
func (rt *runTrace) RunDone(metrics.RunSample) {}

// wrapAdversary returns a forwarding adversary that times every
// EdgesInto/Edges call and reports it with the round's edge count. It
// keeps the inner adversary's InPlace and Oblivious answers and
// forwards Reseed, so the engine selects the same paths.
func wrapAdversary(inner adversary.Adversary, report func(start, end time.Time, edges int)) adversary.Adversary {
	t := timedAdversary{inner: inner, report: report}
	if ip, ok := inner.(adversary.InPlace); ok {
		return &timedInPlace{timedAdversary: t, ip: ip}
	}
	return &t
}

type timedAdversary struct {
	inner  adversary.Adversary
	report func(start, end time.Time, edges int)
}

func (a *timedAdversary) Name() string { return a.inner.Name() }

func (a *timedAdversary) Edges(t int, view adversary.View) *network.EdgeSet {
	start := time.Now()
	e := a.inner.Edges(t, view)
	end := time.Now()
	a.report(start, end, e.Len())
	return e
}

// Oblivious answers for the inner adversary (false when it has no seam).
func (a *timedAdversary) Oblivious() bool { return adversary.IsOblivious(a.inner) }

// Reseed forwards to the inner adversary when it is reseedable.
func (a *timedAdversary) Reseed(seed int64) {
	if r, ok := a.inner.(adversary.Reseeder); ok {
		r.Reseed(seed)
	}
}

type timedInPlace struct {
	timedAdversary
	ip adversary.InPlace
}

func (a *timedInPlace) EdgesInto(t int, view adversary.View, dst *network.EdgeSet) {
	start := time.Now()
	a.ip.EdgesInto(t, view, dst)
	end := time.Now()
	a.report(start, end, dst.Len())
}

// busyClock is the harness pool observer: it integrates the number of
// busy workers over time. The same value serves as the batch's metrics
// sink, which the grid only uses for RunDone (each traced run carries
// its own round sink).
type busyClock struct {
	tr       *tracer
	mu       sync.Mutex
	busy     int
	last     int64
	integral int64 // busy-worker nanoseconds
}

func (c *busyClock) PoolStart(int) {}

func (c *busyClock) WorkerBusy(delta int) {
	now := c.tr.now()
	c.mu.Lock()
	c.integral += int64(c.busy) * (now - c.last)
	c.busy += delta
	c.last = now
	c.mu.Unlock()
}

func (c *busyClock) busyNS() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.integral
}

func (c *busyClock) RoundDone(metrics.RoundSample) {}
func (c *busyClock) RunDone(metrics.RunSample)     {}

// workerObs is one joined worker's metrics sink on the sharded path:
// the program's per-task collector is teed with it, so it sees every
// round (from the worker's single harness goroutine), every run in
// order, and the pool's busy transitions.
type workerObs struct {
	busyClock
	spans     []span // guarded by busyClock.mu
	last      int64
	lastRound int
	runs      int64
	rounds    int64
	delivered int64
	lastRun   int64
}

func (w *workerObs) RoundDone(s metrics.RoundSample) {
	t0 := w.tr.now()
	w.tr.coll.RoundDone(s)
	t1 := w.tr.now()
	w.mu.Lock()
	defer w.mu.Unlock()
	// Runs on one harness worker are sequential, so consecutive round
	// indices bound one round; Round 0 starts a run.
	if s.Round > 0 && s.Round == w.lastRound+1 {
		idx := int32(len(w.spans))
		w.spans = append(w.spans,
			span{Name: spRound, Run: -1, Parent: -1, Start: w.last, End: t1, Count: int64(s.Delivered)},
			span{Name: spMetrics, Run: -1, Parent: idx, Start: t0, End: t1})
	}
	w.last, w.lastRound = t1, s.Round
}

func (w *workerObs) RunDone(s metrics.RunSample) {
	now := w.tr.now()
	w.mu.Lock()
	defer w.mu.Unlock()
	w.runs++
	w.rounds += int64(s.Rounds)
	w.delivered += int64(s.Delivered)
	w.lastRun = now
}

// workerSinks creates the per-worker observers of a sharded traced
// pass; nil when untraced.
func (tr *tracer) workerSinks() []metrics.Sink {
	if tr == nil {
		return nil
	}
	var sinks []metrics.Sink
	for i := 0; i < harnessWorkers(); i++ {
		w := &workerObs{busyClock: busyClock{tr: tr}}
		tr.workers = append(tr.workers, w)
		sinks = append(sinks, w)
	}
	return sinks
}

type shardStats struct {
	shards, requeuedRuns     int
	imbalance, tailS, joinMS float64
}

// shardResult folds the sharded pass's plan and worker streams in. It
// runs after Wait, when no worker is executing.
func (tr *tracer) shardResult(res *shard.Result, total int) {
	if tr == nil {
		return
	}
	st := shardStats{shards: len(res.Shards)}
	var executed int64
	first, last := int64(-1), int64(-1)
	for _, w := range tr.workers {
		w.mu.Lock()
		executed += w.runs
		tr.simRounds += w.rounds
		tr.simDeliveries += w.delivered
		if w.runs > 0 {
			if first < 0 || w.lastRun < first {
				first = w.lastRun
			}
			last = max(last, w.lastRun)
		}
		base := int32(len(tr.spans))
		for _, s := range w.spans {
			if s.Parent < 0 {
				s.Parent = tr.runPhase
			} else {
				s.Parent += base
			}
			tr.spans = append(tr.spans, s)
		}
		w.mu.Unlock()
	}
	st.requeuedRuns = int(executed) - total
	st.tailS = float64(last-first) / 1e9
	var sum, top int
	for _, n := range res.RunsByWorker {
		sum += n
		top = max(top, n)
	}
	if sum > 0 {
		st.imbalance = float64(top) / (float64(sum) / float64(len(res.RunsByWorker)))
	}
	for _, s := range tr.spans {
		if s.Name == spJoin {
			st.joinMS = float64(s.dur()) / 1e6
		}
	}
	tr.shard = st
}

// layerMetrics derives the per-layer metrics of one traced pass from
// its spans. Self time is a span's duration minus its children's.
func (tr *tracer) layerMetrics(busyWorkers int, runPhaseNS int64) metricSet {
	children := make([]int64, len(tr.spans))
	for _, s := range tr.spans {
		if s.Parent >= 0 {
			children[s.Parent] += s.dur()
		}
	}
	var (
		roundDur, roundSelf, roundDeliv, roundAdv int64
		advAll, edges, advCalls                   int64
		mutateNS, mutates, metricsNS, metricsN    int64
		compileNS, reportNS                       int64
		rounds, setups                            []float64
	)
	for i, s := range tr.spans {
		switch s.Name {
		case spRound:
			roundDur += s.dur()
			roundSelf += s.dur() - children[i]
			roundDeliv += s.Count
			rounds = append(rounds, float64(s.dur())/1e3)
		case spRunSetup:
			setups = append(setups, float64(s.dur())/1e3)
		case spAdversary:
			advAll += s.dur()
			edges += s.Count
			advCalls++
			if tr.spans[s.Parent].Name == spRound {
				roundAdv += s.dur()
			}
		case spMutate:
			mutateNS += s.dur()
			mutates++
		case spMetrics:
			metricsNS += s.dur()
			metricsN++
		case spCompile:
			compileNS += s.dur()
		case spReport:
			reportNS += s.dur()
		}
	}
	m := metricSet{}
	m.set("spec.compile_ms", float64(compileNS)/1e6, "ms")
	m.set("chaos.mutate_us_per_run", ratio(float64(mutateNS)/1e3, float64(mutates)), "us")
	m.set("adversary.share", ratio(float64(roundAdv), float64(roundDur)), "ratio")
	m.set("adversary.ns_per_edge", ratio(float64(advAll), float64(edges)), "ns")
	m.set("adversary.edges_per_round", ratio(float64(edges), float64(advCalls)), "count")
	m.set("sim.round_us_p50", percentile(rounds, 0.50), "us")
	m.set("sim.round_us_p99", percentile(rounds, 0.99), "us")
	// Without adversary spans (the sharded path, whose runs execute
	// inside the workers) a round's self time would silently include
	// E(t) generation, so the split is not reported there.
	if advCalls == 0 {
		roundSelf = 0
	}
	m.set("sim.self_ns_per_delivery", ratio(float64(roundSelf), float64(roundDeliv)), "ns")
	m.set("sim.run_setup_us_p50", percentile(setups, 0.50), "us")
	m.set("sim.rounds", float64(tr.simRounds), "count")
	m.set("sim.deliveries", float64(tr.simDeliveries), "count")
	m.set("metrics.round_done_ns", ratio(float64(metricsNS), float64(metricsN)), "ns")
	busy := tr.pool.busyNS()
	for _, w := range tr.workers {
		busy += w.busyNS()
	}
	capacity := float64(busyWorkers) * float64(runPhaseNS)
	m.set("harness.busy_frac", ratio(float64(busy), capacity), "ratio")
	m.set("harness.idle_ms", (capacity-float64(busy))/1e6, "ms")
	m.set("shard.shards", float64(tr.shard.shards), "count")
	m.set("shard.requeued_runs", float64(tr.shard.requeuedRuns), "count")
	m.set("shard.runs_imbalance", tr.shard.imbalance, "ratio")
	m.set("shard.tail_s", tr.shard.tailS, "s")
	m.set("shard.join_ms", tr.shard.joinMS, "ms")
	m.set("report.render_ms", float64(reportNS)/1e6, "ms")
	return m
}

// writeSpans writes the pass's spans as JSON lines.
func (tr *tracer) writeSpans(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range tr.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// percentile is the nearest-rank percentile (0 for no samples).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(p*float64(len(s))+0.5) - 1
	return s[min(max(i, 0), len(s)-1)]
}

// median is the middle sample, or the mean of the two middle ones.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	h := len(s) / 2
	if len(s)%2 == 1 {
		return s[h]
	}
	return (s[h-1] + s[h]) / 2
}
