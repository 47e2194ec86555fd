package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"anondyn"
	"anondyn/internal/metrics"
	"anondyn/internal/report"
	"anondyn/internal/shard"
	"anondyn/internal/spec"
)

// digests holds each workload's .cells SHA-256 at defaultSeed and the
// full size: a change that alters simulated results fails the gate
// instead of reading as a speed-up.
//
//go:embed digests.json
var digestsJSON []byte

// Set-up is also timed on its own: setupReps set-ups after each pass
// (and setupWarmup untimed ones at the start), so setup_s is a median
// over many warm samples spread across the whole run.
const (
	setupWarmup = 5
	setupReps   = 10
)

// harnessWorkers is the pool size of the local path (and the total of
// the two sharded workers): two, or fewer on a one-CPU machine.
func harnessWorkers() int { return min(2, runtime.NumCPU()) }

// bench is one invocation: a workload at one seed.
type bench struct {
	w      workload
	seed   int64
	budget time.Duration
	sz     size
	spec   []byte

	setups    []float64 // seconds, from timeSetups
	digest    string    // .cells SHA-256 of the first pass; every later pass must match
	attempted int
	failed    int
	iters     []iteration
}

// iteration is one spec-bytes → written-report pass.
type iteration struct {
	Traced     bool    `json:"traced"`
	SetupS     float64 `json:"setup_s"`
	RunS       float64 `json:"run_s"`
	WallS      float64 `json:"wall_s"`
	Runs       int     `json:"runs"`
	Deliveries int64   `json:"deliveries"`
	PeakRSSMB  float64 `json:"peak_rss_mb"`
	AllocMB    float64 `json:"alloc_mb"`
	GCCycles   uint32  `json:"gc_cycles"`
	GCPauseMS  float64 `json:"gc_pause_ms"`
}

// pass runs the workload once on its path; tr is nil for an untraced
// pass. Setup ends when the first run can be dispatched. Each pass
// starts from a collected heap with its memory returned to the
// operating system, as a fresh process would, and its peak resident set
// is sampled while it runs.
func (b *bench) pass(tr *tracer) (iteration, error) {
	runtime.GC()
	debug.FreeOSMemory()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	rss := startRSS()
	var (
		it  iteration
		err error
	)
	if b.w.sharded {
		it, err = b.shardedPass(tr)
	} else {
		it, err = b.localPass(tr)
	}
	it.PeakRSSMB = rss.stop()
	runtime.ReadMemStats(&after)
	it.AllocMB = float64(after.TotalAlloc-before.TotalAlloc) / 1e6
	it.GCCycles = after.NumGC - before.NumGC
	it.GCPauseMS = float64(after.PauseTotalNs-before.PauseTotalNs) / 1e6
	return it, err
}

// compile is the set-up shared by both paths: spec.Compile, grid
// expansion and the adversary checks a sweep runs before any run.
func (b *bench) compile(tr *tracer) (*spec.Sweep, anondyn.Grid, []anondyn.Cell, error) {
	end := tr.begin(spCompile)
	defer end()
	sw, grid, err := spec.Compile(b.spec, 0)
	if err != nil {
		return nil, anondyn.Grid{}, nil, fmt.Errorf("spec.Compile: %w", err)
	}
	cells := grid.Cells()
	for _, c := range cells {
		if c.Adversary.Check != nil {
			if err := c.Adversary.Check(c); err != nil {
				return nil, anondyn.Grid{}, nil, fmt.Errorf("cell n=%d f=%d adversary %s: %w", c.N, c.F, c.Adversary.Name, err)
			}
		}
	}
	return sw, grid, cells, nil
}

func (b *bench) localPass(tr *tracer) (iteration, error) {
	start := time.Now()
	endPass := tr.begin(spPass)
	endSetup := tr.begin(spSetup)
	sw, grid, cells, err := b.compile(tr)
	if err != nil {
		return iteration{}, err
	}
	endSetup()
	runStart := time.Now()
	endRun := tr.begin(spRunPhase)
	opts := anondyn.BatchOptions{Workers: harnessWorkers()}
	tr.install(&grid, &opts)
	stats := make([]*anondyn.BatchStats, len(cells))
	for i, c := range cells {
		stats[i] = &anondyn.BatchStats{Eps: c.Eps}
	}
	var deliveries int64
	err = grid.RunEach(opts, func(_ anondyn.Cell, cell, run int, seed int64, res *anondyn.Result) error {
		deliveries += int64(res.MessagesDelivered)
		tr.runDone(run, res)
		return stats[cell].Consume(run, seed, res)
	})
	if err != nil {
		b.attempted += grid.Runs()
		b.failed += grid.Runs()
		return iteration{}, err
	}
	rows := make([]anondyn.CellResult, len(cells))
	for i, c := range cells {
		rows[i] = anondyn.CellResult{
			N: c.N, F: c.F, Eps: c.Eps,
			Algorithm:   c.Algorithm.String(),
			Adversary:   c.Adversary.Name,
			Variant:     c.Variant.Name,
			BatchReport: stats[i].Report(),
		}
	}
	endRun()
	runEnd := time.Now()
	if err := b.writeReport(tr, sw, rows); err != nil {
		return iteration{}, err
	}
	endPass()
	end := time.Now()
	it := iteration{
		Traced:     tr != nil,
		SetupS:     runStart.Sub(start).Seconds(),
		RunS:       runEnd.Sub(runStart).Seconds(),
		WallS:      end.Sub(start).Seconds(),
		Runs:       grid.Runs(),
		Deliveries: deliveries,
	}
	return it, b.gate(sw, rows, tr)
}

func (b *bench) shardedPass(tr *tracer) (iteration, error) {
	start := time.Now()
	endPass := tr.begin(spPass)
	endSetup := tr.begin(spSetup)
	sw, grid, cells, err := b.compile(tr)
	if err != nil {
		return iteration{}, err
	}
	endJoin := tr.begin(spJoin)
	fl, err := startFleet(tr.workerSinks())
	if err != nil {
		return iteration{}, err
	}
	defer fl.stop()
	endJoin()
	endSetup()
	runStart := time.Now()
	endRun := tr.begin(spRunPhase)
	// One shard per cell. The default plan (twice the fleet's capacity
	// shares: four contiguous shards here) puts the costliest n=51 cells
	// in one shard, so one worker runs alone for about two thirds of the
	// pass and the shard each worker draws decides the pass time.
	h, err := fl.cp.Submit(b.spec, shard.SubmitOptions{Name: b.w.name, Shards: len(cells)})
	if err != nil {
		return iteration{}, fmt.Errorf("submit: %w", err)
	}
	res, err := h.Wait()
	if err != nil {
		b.attempted += grid.Runs()
		b.failed += grid.Runs()
		return iteration{}, fmt.Errorf("sharded sweep: %w", err)
	}
	// Every worker task streams a final telemetry frame before its done
	// frame, and a rerun shard replaces its absolute counters, so the
	// per-shard sums are the exact delivered-message total.
	var deliveries int64
	for _, st := range h.Metrics().Snapshot().Shards {
		deliveries += int64(st.Delivered)
	}
	endRun()
	runEnd := time.Now()
	if err := b.writeReport(tr, sw, res.Rows); err != nil {
		return iteration{}, err
	}
	endPass()
	end := time.Now()
	tr.shardResult(res, grid.Runs())
	it := iteration{
		Traced:     tr != nil,
		SetupS:     runStart.Sub(start).Seconds(),
		RunS:       runEnd.Sub(runStart).Seconds(),
		WallS:      end.Sub(start).Seconds(),
		Runs:       grid.Runs(),
		Deliveries: deliveries,
	}
	return it, b.gate(sw, res.Rows, tr)
}

// writeReport renders the sweep's JSON envelope, as dynabench -spec
// does, to a file in the output directory. The traced pass also
// renders the HTML page, so report.render_ms covers both formats.
func (b *bench) writeReport(tr *tracer, sw *spec.Sweep, rows []anondyn.CellResult) error {
	end := tr.begin(spReport)
	defer end()
	doc := &report.Sweep{
		Spec:         sw.Name,
		SeedsPerCell: max(sw.SeedsPerCell, 1),
		BaseSeed:     sw.BaseSeed,
		Workers:      harnessWorkers(),
		Cells:        rows,
		Verdicts:     sw.Verdicts(rows),
		Storm:        sw.StormTimeline(),
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	if err := writeFile(filepath.Join(outDir, b.w.name+".json"), doc.WriteJSON); err != nil {
		return err
	}
	if tr != nil {
		return writeFile(filepath.Join(outDir, b.w.name+".html"), doc.WriteHTML)
	}
	return nil
}

func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	return f.Close()
}

// gate is the per-pass correctness check: every cell decided every run
// with no validity or ε-agreement violation (every workload sits inside
// the paper's bounds), every storm verdict passed, and the rows are
// byte-identical to the first pass's — which also pins a traced pass to
// the untraced one.
func (b *bench) gate(sw *spec.Sweep, rows []anondyn.CellResult, tr *tracer) error {
	var errs []error
	for i, r := range rows {
		b.attempted += r.Runs
		bad := r.Runs - r.Decided + r.Violations
		b.failed += bad
		if bad > 0 {
			errs = append(errs, fmt.Errorf("cell %d (n=%d f=%d %s %s): %d/%d decided, %d violations",
				i, r.N, r.F, r.Algorithm, r.Adversary, r.Decided, r.Runs, r.Violations))
		}
	}
	for _, v := range sw.Verdicts(rows) {
		if !v.Pass {
			errs = append(errs, fmt.Errorf("storm verdict FAIL: %s (%s)", v.Assertion, v.Detail))
		}
	}
	d, err := cellsDigest(rows)
	if err != nil {
		return err
	}
	switch {
	case b.digest == "":
		b.digest = d
	case d != b.digest:
		what := "a repeated pass"
		if tr != nil {
			what = "the traced pass"
		}
		errs = append(errs, fmt.Errorf("%s produced .cells sha256 %s, the first pass %s", what, d, b.digest))
	}
	return errors.Join(errs...)
}

// cellsDigest is the SHA-256 of the report's compact .cells JSON.
func cellsDigest(rows []anondyn.CellResult) (string, error) {
	data, err := json.Marshal(rows)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:]), nil
}

// finalGate runs the checks that need the whole run: the recorded
// digest at the default seed, and for the sharded workload a local
// Grid run of the same spec whose .cells must be byte-identical.
func (b *bench) finalGate() error {
	if b.w.sharded {
		ref := &bench{w: workload{name: b.w.name}, seed: b.seed, sz: b.sz, spec: b.spec}
		if _, err := ref.localPass(nil); err != nil {
			return fmt.Errorf("local reference run: %w", err)
		}
		if ref.digest != b.digest {
			return fmt.Errorf("sharded .cells sha256 %s differs from the local Grid run's %s", b.digest, ref.digest)
		}
	}
	if b.seed != defaultSeed || b.sz != fullSize {
		return nil
	}
	var want map[string]string
	if err := json.Unmarshal(digestsJSON, &want); err != nil {
		return fmt.Errorf("digests.json: %w", err)
	}
	if want[b.w.name] != b.digest {
		return fmt.Errorf(".cells sha256 %s at the default seed, digests.json records %q", b.digest, want[b.w.name])
	}
	return nil
}

// fleet is the sharded path's in-process deployment: a resident
// control plane listening on loopback and two workers joined to it,
// one harness worker each.
type fleet struct {
	cp      *shard.ControlPlane
	workers []*shard.Worker
	wg      sync.WaitGroup
}

// startFleet returns once both workers have joined. sinks, when
// non-nil, are the workers' metrics sinks.
func startFleet(sinks []metrics.Sink) (*fleet, error) {
	cp, err := shard.NewControlPlane(shard.PlaneOptions{Addr: "127.0.0.1:0"})
	if err != nil {
		return nil, err
	}
	fl := &fleet{cp: cp}
	fl.wg.Add(1)
	go func() {
		defer fl.wg.Done()
		if err := cp.Serve(); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: control plane: %v\n", err)
		}
	}()
	for i := 0; i < harnessWorkers(); i++ {
		opts := shard.WorkerOptions{Workers: 1, RejoinDelay: 10 * time.Millisecond}
		if sinks != nil {
			opts.Metrics = sinks[i]
		}
		w, err := shard.NewWorker("", opts)
		if err != nil {
			fl.stop()
			return nil, err
		}
		fl.workers = append(fl.workers, w)
		fl.wg.Add(1)
		go func() {
			defer fl.wg.Done()
			w.JoinLoop(cp.Addr())
		}()
	}
	// Poll with a short sleep: spinning would take a CPU from the
	// goroutines doing the join and stretch its tail.
	deadline := time.Now().Add(30 * time.Second)
	for cp.Workers() < len(fl.workers) {
		if time.Now().After(deadline) {
			fl.stop()
			return nil, fmt.Errorf("workers did not join the control plane within 30s")
		}
		time.Sleep(20 * time.Microsecond)
	}
	return fl, nil
}

// stop drains the plane, closes the workers and waits for every
// goroutine the fleet started.
func (fl *fleet) stop() {
	fl.cp.Shutdown()
	for _, w := range fl.workers {
		w.Close()
	}
	fl.wg.Wait()
}

// timeSetups times n set-ups alone (for the sharded path including a
// fleet join, whose teardown is not timed) after skip untimed ones,
// starting from a collected heap so no background GC overlaps them.
func (b *bench) timeSetups(skip, n int) error {
	runtime.GC()
	for i := 0; i < skip+n; i++ {
		start := time.Now()
		if _, _, _, err := b.compile(nil); err != nil {
			return err
		}
		var fl *fleet
		if b.w.sharded {
			var err error
			if fl, err = startFleet(nil); err != nil {
				return err
			}
		}
		if i >= skip {
			b.setups = append(b.setups, time.Since(start).Seconds())
		}
		if fl != nil {
			fl.stop()
		}
	}
	return nil
}

// measure runs untraced passes until the budget is spent (at least
// one), timing setupReps set-ups after each.
func (b *bench) measure(budget time.Duration) ([]iteration, error) {
	var its []iteration
	deadline := time.Now().Add(budget)
	for len(its) == 0 || time.Now().Before(deadline) {
		it, err := b.pass(nil)
		if err != nil {
			return nil, err
		}
		its = append(its, it)
		if err := b.timeSetups(0, setupReps); err != nil {
			return nil, err
		}
	}
	b.iters = append(b.iters, its...)
	return its, nil
}

// untraced measures the end-to-end metrics.
func (b *bench) untraced() (metricSet, error) {
	b.spec = b.w.gen(b.seed, b.sz)
	if err := b.timeSetups(setupWarmup, setupReps); err != nil {
		return nil, err
	}
	its, err := b.measure(b.budget)
	if err != nil {
		return nil, err
	}
	if err := b.finalGate(); err != nil {
		return nil, err
	}
	var wall, rps, dps, rss []float64
	for _, it := range its {
		wall = append(wall, it.WallS)
		rss = append(rss, it.PeakRSSMB)
		rps = append(rps, float64(it.Runs)/it.RunS)
		dps = append(dps, float64(it.Deliveries)/it.RunS)
	}
	m := metricSet{}
	m.set("setup_s", median(b.setups), "s")
	m.set("wall_s", median(wall), "s")
	m.set("runs_per_s", median(rps), "1/s")
	m.set("deliveries_per_s", median(dps), "1/s")
	m.set("peak_rss_mb", median(rss), "MB")
	m.set("ok_frac", float64(b.attempted-b.failed)/float64(b.attempted), "ratio")
	return m, nil
}

// traced alternates untraced and traced passes until the budget is
// spent, then replays one run with the fold timed. The per-layer
// metrics come from the traced passes only (medians across them); the
// interleaved untraced passes give trace.overhead_frac its base without
// a warm-up or drift bias.
func (b *bench) traced() (metricSet, error) {
	b.spec = b.w.gen(b.seed, b.sz)
	_, grid, cells, err := b.compile(nil)
	if err != nil {
		return nil, err
	}
	repCell, repRun := representative(cells, grid.SeedsPerCell)

	var (
		layers     []metricSet
		plainWall  []float64
		tracedWall []float64
		last       *tracer
	)
	deadline := time.Now().Add(b.budget)
	for len(layers) == 0 || time.Now().Before(deadline) {
		plain, err := b.measure(0)
		if err != nil {
			return nil, err
		}
		plainWall = append(plainWall, plain[0].WallS)
		tr := newTracer()
		tr.replayRun = repRun
		it, err := b.pass(tr)
		if err != nil {
			return nil, err
		}
		b.iters = append(b.iters, it)
		tracedWall = append(tracedWall, it.WallS)
		m := tr.layerMetrics(harnessWorkers(), int64(it.RunS*1e9))
		m.set("runtime.alloc_mb", it.AllocMB, "MB")
		m.set("runtime.gc_cycles", float64(it.GCCycles), "count")
		m.set("runtime.gc_pause_ms", it.GCPauseMS, "ms")
		layers = append(layers, m)
		last = tr
	}

	ref := last.replayRef
	if ref == nil {
		// The sharded path's runs execute inside the workers: take the
		// grid's own Result for that seed from a one-run slice.
		err := grid.RunSlice(repRun, repRun+1, anondyn.BatchOptions{Workers: 1},
			func(_ anondyn.Cell, _, _ int, _ int64, res *anondyn.Result) error {
				ref = res
				return nil
			})
		if err != nil {
			return nil, fmt.Errorf("replay reference run: %w", err)
		}
	}
	split, err := replay(grid, cells[repCell], grid.BaseSeed+int64(repRun), ref)
	if err != nil {
		return nil, err
	}
	if err := b.finalGate(); err != nil {
		return nil, err
	}
	if err := last.writeSpans(filepath.Join(outDir, "trace", b.w.name+".spans.jsonl")); err != nil {
		return nil, err
	}

	out := metricSet{}
	for name, mt := range layers[0] {
		var xs []float64
		for _, l := range layers {
			xs = append(xs, l[name].Value)
		}
		out.set(name, median(xs), mt.Unit)
	}
	out.set("core.fold_ns_per_delivery", split.foldNSPerDelivery(), "ns")
	out.set("sim.gather_ns_per_delivery", split.gatherNSPerDelivery(), "ns")
	out.set("trace.overhead_frac", median(tracedWall)/median(plainWall)-1, "ratio")
	return out, nil
}
