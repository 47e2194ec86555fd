// Command dynasim runs one consensus scenario on the simulated
// anonymous dynamic network and reports outputs, rounds, the property
// checks of Definition 3, and the dynaDegree the adversary actually
// provided. With -seeds > 1 it runs a seeded Monte-Carlo batch of the
// same scenario on a worker pool and reports streaming aggregates
// instead; -report writes the batch report ("csv"/"json"/"html" stream
// to stdout, a path picks the format from its extension — .csv, .html
// for a self-contained HTML page, anything else JSON). -metrics streams
// live telemetry snapshots as NDJSON to a file or TCP address.
//
// -save-spec writes the flag configuration out as a declarative sweep
// file (a 1-cell matrix), and -spec runs such a file — the same format
// dynabench sweeps and the committed examples/specs artifacts use.
// -cpuprofile and -memprofile write runtime/pprof CPU and heap profiles
// of the run.
//
// Examples:
//
//	dynasim -algo dac  -n 7  -f 2 -adversary rotating:3 -crash 1@3,4@6
//	dynasim -algo dbac -n 11 -f 2 -adversary complete -byz 4:equivocate,9:extremist:1
//	dynasim -algo dac  -n 3  -adversary fig1 -eps 0.01 -trace run.jsonl
//	dynasim -algo dac  -n 6  -adversary halves -rounds 100   # stalls: below threshold
//	dynasim -algo dac  -n 9  -adversary er:0.3 -inputs random -seeds 200 -workers 8 -report batch.json
//	dynasim -algo dac  -n 9  -adversary er:0.3 -save-spec er.yaml   # flags → artifact
//	dynasim -spec er.yaml -seeds 50                                 # artifact → sweep
package main

import (
	"encoding/csv"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"anondyn"
	"anondyn/internal/metrics"
	"anondyn/internal/profile"
	"anondyn/internal/report"
	"anondyn/internal/spec"
	"anondyn/internal/trace"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "dynasim:", err)
		os.Exit(1)
	}
}

func run(args []string) (err error) {
	fs := flag.NewFlagSet("dynasim", flag.ContinueOnError)
	var (
		algoName   = fs.String("algo", "dac", "algorithm: dac, dbac, dbac-pb, megaround, fullinfo, reliter, bacrel, floodmin")
		n          = fs.Int("n", 7, "network size")
		f          = fs.Int("f", 0, "fault bound")
		eps        = fs.Float64("eps", 1e-3, "ε of ε-agreement")
		advSpec    = fs.String("adversary", "complete", "complete | fig1 | halves | chasemin | isolate:<node> | er:<p> | rotating:<d> | clustered:<T> | random:<B>,<D> | starve:<d>")
		crashSpec  = fs.String("crash", "", "crash schedule: node@round[,node@round...]")
		byzSpec    = fs.String("byz", "", "byzantine nodes: node:strategy[:<arg>][,...]; strategies: silent, extremist:<v>, equivocate, noise, laggard:<v>, mimic:<t>")
		window     = fs.Int("window", 0, "piggyback window K (dbac-pb)")
		megaT      = fs.Int("megat", 2, "block length T (megaround)")
		pEnd       = fs.Int("pend", 0, "explicit phase budget (overrides ε-derived p_end)")
		maxRounds  = fs.Int("rounds", 0, "round budget (0 = engine default)")
		seed       = fs.Int64("seed", 1, "seed for random ports / adversaries")
		randPorts  = fs.Bool("randports", false, "use random per-node port numberings")
		inputSpec  = fs.String("inputs", "spread", "spread | split:<k> | random")
		traceOut   = fs.String("trace", "", "write the execution event log (JSONL) to this file")
		showSeries = fs.Bool("series", false, "print the per-round convergence curve (log-scale sparkline)")
		maxBytes   = fs.Int("maxbytes", 0, "per-link bandwidth budget in bytes (0 = unlimited)")
		shuffle    = fs.Bool("shuffle", false, "randomize intra-round delivery order (seeded)")
		seedsN     = fs.Int("seeds", 1, "number of seeded runs; > 1 switches to Monte-Carlo batch mode (with -spec: override the file's seeds_per_cell)")
		workers    = fs.Int("workers", 0, "batch worker-pool size (0 = GOMAXPROCS)")
		reportOut  = fs.String("report", "", `batch report (implies batch mode): "csv"/"json"/"html" for stdout, or a path (.csv/.html → that format, else JSON)`)
		metricsOut = fs.String("metrics", "", "stream live metrics snapshots as NDJSON to this file or host:port address")
		specFile   = fs.String("spec", "", "run the sweep defined in this YAML/JSON scenario file instead of the flag scenario")
		saveSpec   = fs.String("save-spec", "", "write the flag scenario as a declarative spec file before running")
		validate   = fs.Bool("validate", false, "with -spec: parse, validate and compile the spec, then exit without running")
	)
	var prof profile.Flags
	prof.Register(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	stopProfiles, err := prof.Start()
	if err != nil {
		return err
	}
	defer func() { err = errors.Join(err, stopProfiles()) }()

	coll, closeMetrics, err := metrics.Start(*metricsOut, 0)
	if err != nil {
		return err
	}
	defer closeMetrics() //nolint:errcheck // final snapshot write; fate shared with stdout

	if *specFile != "" {
		if *traceOut != "" || *showSeries || *reportOut != "" {
			return fmt.Errorf("-spec runs a sweep; -trace, -series and -report do not apply")
		}
		if *saveSpec != "" {
			return fmt.Errorf("-save-spec captures the scenario flags; it does not combine with -spec")
		}
		seedsOverride := 0
		fs.Visit(func(f *flag.Flag) {
			if f.Name == "seeds" {
				seedsOverride = *seedsN
			}
		})
		if *validate {
			sw, grid, err := spec.Load(*specFile, 0)
			if err != nil {
				return err
			}
			fmt.Printf("%s: ok (%s)\n", *specFile, sw.RunTitle(*specFile, len(grid.Cells())))
			return nil
		}
		return runSpec(*specFile, seedsOverride, *workers, coll)
	}
	if *validate {
		return fmt.Errorf("-validate wants -spec (it dry-runs spec files)")
	}

	adv, err := parseAdversary(*advSpec, *n, *f, *seed)
	if err != nil {
		return err
	}
	crashes, err := parseCrashes(*crashSpec)
	if err != nil {
		return err
	}
	byz, err := parseByz(*byzSpec, *seed)
	if err != nil {
		return err
	}
	inputs, err := parseInputs(*inputSpec, *n, *seed)
	if err != nil {
		return err
	}
	algo, err := parseAlgo(*algoName)
	if err != nil {
		return err
	}

	if *saveSpec != "" {
		if *randPorts || *shuffle {
			return fmt.Errorf("-save-spec cannot capture -randports or -shuffle (not spec-expressible)")
		}
		sw, err := flagSweep(flagScenario{
			algo: strings.ToLower(*algoName), n: *n, f: *f, eps: *eps,
			adv: *advSpec, inputs: *inputSpec, crashes: crashes, byz: *byzSpec,
			window: *window, megaT: *megaT, pEnd: *pEnd,
			maxRounds: *maxRounds, maxBytes: *maxBytes,
			seeds: *seedsN, baseSeed: *seed,
			name: strings.TrimSuffix(filepath.Base(*saveSpec), filepath.Ext(*saveSpec)),
		})
		if err != nil {
			return err
		}
		if err := os.WriteFile(*saveSpec, sw.Encode(), 0o644); err != nil {
			return err
		}
		fmt.Printf("(spec written to %s)\n", *saveSpec)
	}

	if *seedsN < 1 {
		return fmt.Errorf("-seeds wants a positive count (got %d)", *seedsN)
	}
	if *seedsN > 1 || *reportOut != "" {
		if *traceOut != "" || *showSeries {
			return fmt.Errorf("-trace and -series are per-run views; they do not combine with batch mode (-seeds/-report)")
		}
		cfg := batchConfig{
			algoName: *algoName, algo: algo,
			n: *n, f: *f, eps: *eps,
			advSpec: *advSpec, byzSpec: *byzSpec, inputSpec: *inputSpec,
			crashes: crashes,
			window:  *window, megaT: *megaT, pEnd: *pEnd,
			maxRounds: *maxRounds, maxBytes: *maxBytes,
			randPorts: *randPorts, shuffle: *shuffle,
			seeds:   anondyn.Seeds(*seedsN, *seed),
			workers: *workers,
			target:  report.ParseTarget(*reportOut),
			coll:    coll,
		}
		return runBatch(cfg)
	}

	tracker := anondyn.NewPhaseTracker()
	var series *anondyn.RangeSeries
	if *showSeries {
		series = anondyn.NewRangeSeries()
	}
	var rec *anondyn.Recorder
	if *traceOut != "" {
		rec = anondyn.NewRecorder()
	}
	var sink anondyn.MetricsSink
	if coll != nil {
		sink = coll
	}
	s := anondyn.Scenario{
		Metrics: sink,
		N:       *n, F: *f, Eps: *eps,
		Algorithm:       algo,
		PiggybackWindow: *window,
		MegaT:           *megaT,
		PEndOverride:    *pEnd,
		Inputs:          inputs,
		Adversary:       adv,
		Crashes:         crashes,
		Byzantine:       byz,
		MaxRounds:       *maxRounds,
		RandomPorts:     *randPorts,
		Seed:            *seed,
		Tracker:         tracker,
		Series:          series,
		Recorder:        rec,
		KeepTrace:       true,
		MaxMessageBytes: *maxBytes,
		ShuffleDelivery: *shuffle,
	}
	res, err := s.Run()
	if err != nil {
		return err
	}

	fmt.Printf("%s  n=%d f=%d ε=%g  adversary=%s\n", algo, *n, *f, *eps, adv.Name())
	fmt.Printf("rounds: %d   all fault-free decided: %v\n", res.Rounds, res.Decided)
	fmt.Printf("messages: %d delivered, %d suppressed by the adversary\n",
		res.MessagesDelivered, res.MessagesLost)
	if res.MessagesOversized > 0 {
		fmt.Printf("bandwidth: %d messages exceeded the %d-byte link budget\n",
			res.MessagesOversized, *maxBytes)
	}

	nodes := make([]int, 0, len(res.Outputs))
	for node := range res.Outputs {
		nodes = append(nodes, node)
	}
	sort.Ints(nodes)
	for _, node := range nodes {
		fmt.Printf("  node %2d → %.8f (round %d)\n", node, res.Outputs[node], res.DecideRound[node])
	}
	if res.Decided {
		fmt.Printf("output range: %.3g   ε-agreement: %v   validity: %v\n",
			res.OutputRange(), res.EpsAgreement(*eps), res.Valid())
	}

	if len(res.Trace) > 0 {
		for _, T := range []int{1, 2, 4} {
			if T <= len(res.Trace) {
				fmt.Printf("trace satisfies (T=%d, D=%d)-dynaDegree\n",
					T, anondyn.MaxDynaDegree(res.Trace, res.FaultFree, T))
			}
		}
	}
	if p := tracker.MaxPhase(); p > 0 {
		fmt.Println("phase  |V(p)|  range(V(p))")
		for q := 0; q <= p && q <= 12; q++ {
			fmt.Printf("  %3d   %3d    %.8f\n", q, tracker.Count(q), tracker.Range(q))
		}
	}

	if series != nil && series.Len() > 0 {
		fmt.Printf("\nconvergence curve (range per round, log scale ▁=≤1e-6 … █=1):\n  %s\n",
			series.Sparkline(60, 1e-6))
		fmt.Printf("  rounds to range ≤ ε: %d\n", series.RoundsToRange(*eps))
	}

	if rec != nil {
		out, err := os.Create(*traceOut)
		if err != nil {
			return err
		}
		if err := trace.WriteJSONL(out, rec.Events()); err != nil {
			out.Close()
			return err
		}
		if err := out.Close(); err != nil {
			return err
		}
		fmt.Printf("event log (%d events) written to %s\n", rec.Len(), *traceOut)
	}
	return nil
}

// batchConfig carries one scenario family into Monte-Carlo batch mode:
// the specs are re-instantiated per seed so seeded adversaries, inputs
// and noise strategies vary across the batch.
type batchConfig struct {
	algoName  string
	algo      anondyn.Algo
	n, f      int
	eps       float64
	advSpec   string
	byzSpec   string
	inputSpec string
	crashes   map[int]anondyn.Crash
	window    int
	megaT     int
	pEnd      int
	maxRounds int
	maxBytes  int

	randPorts bool
	shuffle   bool

	seeds   []int64
	workers int
	target  report.Target
	coll    *metrics.Collector
}

// scenario builds one seeded run of the family. The specs were
// validated before the batch started, so per-seed re-parsing cannot
// fail.
func (c batchConfig) scenario(seed int64) anondyn.Scenario {
	adv, _ := parseAdversary(c.advSpec, c.n, c.f, seed)
	byz, _ := parseByz(c.byzSpec, seed)
	inputs, _ := parseInputs(c.inputSpec, c.n, seed)
	return anondyn.Scenario{
		N: c.n, F: c.f, Eps: c.eps,
		Algorithm:        c.algo,
		PiggybackWindow:  c.window,
		MegaT:            c.megaT,
		PEndOverride:     c.pEnd,
		Inputs:           inputs,
		Adversary:        adv,
		Crashes:          c.crashes,
		Byzantine:        byz,
		MaxRounds:        c.maxRounds,
		RandomPorts:      c.randPorts,
		Seed:             seed,
		MaxMessageBytes:  c.maxBytes,
		ShuffleDelivery:  c.shuffle,
		AccountBandwidth: true,
	}
}

// seedRow is the compact per-run record of the JSON report.
type seedRow struct {
	Seed    int64   `json:"seed"`
	Decided bool    `json:"decided"`
	Rounds  int     `json:"rounds"`
	Range   float64 `json:"output_range"`
}

// batchReport is the report document of one Monte-Carlo batch. It
// implements report.Document, keeping the historical JSON shape.
type batchReport struct {
	Algorithm string              `json:"algorithm"`
	N         int                 `json:"n"`
	F         int                 `json:"f"`
	Eps       float64             `json:"eps"`
	Adversary string              `json:"adversary"`
	Inputs    string              `json:"inputs"`
	Workers   int                 `json:"workers"`
	BaseSeed  int64               `json:"base_seed"`
	Aggregate anondyn.BatchReport `json:"aggregate"`
	Runs      []seedRow           `json:"runs"`
	// Series is the first seed's range-per-round curve, recorded only
	// for the HTML report's convergence chart; not part of the JSON.
	Series []float64 `json:"-"`
}

// WriteJSON implements report.Document with the historical shape.
func (r *batchReport) WriteJSON(w io.Writer) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	_, err = w.Write(append(data, '\n'))
	return err
}

// WriteCSV implements report.Document: one row per seeded run.
func (r *batchReport) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"seed", "decided", "rounds", "output_range"}); err != nil {
		return err
	}
	for _, row := range r.Runs {
		if err := cw.Write([]string{
			strconv.FormatInt(row.Seed, 10),
			strconv.FormatBool(row.Decided),
			strconv.Itoa(row.Rounds),
			strconv.FormatFloat(row.Range, 'g', -1, 64),
		}); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteHTML implements report.Document: one self-contained page with
// the aggregate summary, the convergence chart of the first seed, and
// the per-seed table.
func (r *batchReport) WriteHTML(w io.Writer) error {
	agg := report.HTMLTable{
		Caption: "aggregate",
		Header:  []string{"decided", "violations", "rounds mean", "rounds p95", "range max"},
		Rows: [][]string{{
			fmt.Sprintf("%d/%d", r.Aggregate.Decided, r.Aggregate.Runs),
			fmt.Sprint(r.Aggregate.Violations),
			fmt.Sprintf("%.1f", r.Aggregate.Rounds.Mean),
			fmt.Sprintf("%.0f", r.Aggregate.Rounds.P95),
			fmt.Sprintf("%.3g", r.Aggregate.OutputRange.Max),
		}},
	}
	runs := report.HTMLTable{
		Caption: "runs",
		Header:  []string{"seed", "decided", "rounds", "output range"},
	}
	for _, row := range r.Runs {
		runs.Rows = append(runs.Rows, []string{
			strconv.FormatInt(row.Seed, 10),
			strconv.FormatBool(row.Decided),
			strconv.Itoa(row.Rounds),
			fmt.Sprintf("%.3g", row.Range),
		})
	}
	blocks := []any{agg}
	if len(r.Series) > 0 {
		blocks = append(blocks, report.HTMLChart{
			Caption: fmt.Sprintf("convergence (seed %d)", r.BaseSeed),
			Series:  r.Series,
			Eps:     r.Eps,
		})
	}
	blocks = append(blocks, runs)
	title := fmt.Sprintf("%s n=%d f=%d — %s", r.Algorithm, r.N, r.F, r.Adversary)
	sub := fmt.Sprintf("%d seeds · base seed %d · ε=%g · inputs %s", len(r.Runs), r.BaseSeed, r.Eps, r.Inputs)
	return report.WriteHTMLPage(w, title, sub, blocks...)
}

// runBatch executes the scenario family over the seed batch on the
// worker pool, streaming every result through the aggregate and
// per-run sinks, and prints (and optionally writes) the aggregates.
func runBatch(cfg batchConfig) error {
	stats := &anondyn.BatchStats{Eps: cfg.eps}
	rows := make([]seedRow, 0, len(cfg.seeds))
	rowSink := anondyn.SinkFunc(func(_ int, seed int64, res *anondyn.Result) error {
		rows = append(rows, seedRow{
			Seed: seed, Decided: res.Decided, Rounds: res.Rounds, Range: res.OutputRange(),
		})
		return nil
	})
	opts := anondyn.BatchOptions{Workers: cfg.workers, Retries: 0}
	if cfg.coll != nil {
		opts.Metrics = cfg.coll
	}
	err := anondyn.RunManyStream(cfg.seeds, cfg.scenario, anondyn.Sinks(stats, rowSink), opts)
	if err != nil {
		return err
	}

	doc := &batchReport{
		Algorithm: cfg.algoName,
		N:         cfg.n, F: cfg.f, Eps: cfg.eps,
		Adversary: cfg.advSpec,
		Inputs:    cfg.inputSpec,
		Workers:   cfg.workers,
		BaseSeed:  cfg.seeds[0],
		Aggregate: stats.Report(),
		Runs:      rows,
	}
	if cfg.target.Format == report.FormatHTML {
		// One extra sequential run of the first seed records the
		// convergence curve for the chart — noise beside the batch.
		series := anondyn.NewRangeSeries()
		s := cfg.scenario(cfg.seeds[0])
		s.Series = series
		if _, err := s.Run(); err != nil {
			return err
		}
		doc.Series = series.Series()
	}
	if cfg.target.Stdout() {
		// Stdout report modes replace the human summary so the output
		// stays machine-readable.
		return cfg.target.Write(doc)
	}

	fmt.Printf("%s  n=%d f=%d ε=%g  adversary=%s  batch of %d seeds (base %d)\n",
		cfg.algo, cfg.n, cfg.f, cfg.eps, cfg.advSpec, len(cfg.seeds), cfg.seeds[0])
	fmt.Printf("decided: %d/%d   safety violations: %d\n",
		stats.Decided(), stats.Runs(), stats.Violations())
	if r := stats.Rounds(); r.N > 0 {
		fmt.Printf("rounds:  mean %.1f  median %.0f  p95 %.0f  max %.0f\n",
			r.Mean, r.Median, r.P95, r.Max)
	}
	if g := stats.OutputRange(); g.N > 0 {
		fmt.Printf("range:   mean %.3g  max %.3g\n", g.Mean, g.Max)
	}
	if b := stats.Bytes(); b.N > 0 && b.Max > 0 {
		fmt.Printf("bytes:   mean %.0f per run\n", b.Mean)
	}

	if err := cfg.target.Write(doc); err != nil {
		return err
	}
	if cfg.target.Enabled() {
		fmt.Printf("report written to %s\n", cfg.target.Path)
	}
	return nil
}

func parseAlgo(s string) (anondyn.Algo, error) {
	return anondyn.ParseAlgo(s)
}

// parseAdversary resolves the -adversary spec through the shared
// factory registry (one grammar across dynasim, dynabench -advs and
// spec files), checking it against the scenario's n and f.
func parseAdversary(advSpec string, n, f int, seed int64) (anondyn.Adversary, error) {
	factory, err := anondyn.ParseAdversaryFactory(advSpec)
	if err != nil {
		return nil, err
	}
	cell := anondyn.Cell{N: n, F: f}
	if factory.Check != nil {
		if err := factory.Check(cell); err != nil {
			return nil, err
		}
	}
	return factory.New(cell, seed), nil
}

// runSpec runs a declarative sweep file, printing one aggregate row
// per cell — dynasim's window onto the same artifacts dynabench runs.
func runSpec(path string, seedsOverride, workers int, coll *metrics.Collector) error {
	sw, grid, err := spec.Load(path, seedsOverride)
	if err != nil {
		return err
	}
	opts := anondyn.BatchOptions{Workers: workers}
	if coll != nil {
		opts.Metrics = coll
	}
	rows, err := grid.Run(opts)
	if err != nil {
		return err
	}
	if err := spec.Table(sw.RunTitle(path, len(rows)), rows).Fprint(os.Stdout); err != nil {
		return err
	}
	return report.FprintVerdicts(os.Stdout, sw.Verdicts(rows))
}

// flagScenario carries the flag values -save-spec captures.
type flagScenario struct {
	algo      string
	n, f      int
	eps       float64
	adv       string
	inputs    string
	crashes   map[int]anondyn.Crash
	byz       string
	window    int
	megaT     int
	pEnd      int
	maxRounds int
	maxBytes  int
	seeds     int
	baseSeed  int64
	name      string
}

// flagSweep converts the flag scenario into a 1-cell declarative
// sweep.
func flagSweep(fc flagScenario) (*spec.Sweep, error) {
	sw := &spec.Sweep{
		Name:         fc.name,
		Description:  "saved from dynasim flags",
		Ns:           []int{fc.n},
		Fs:           []spec.Bound{{Lit: fc.f}},
		Epss:         []float64{fc.eps},
		Algorithms:   []string{fc.algo},
		Adversaries:  []string{fc.adv},
		SeedsPerCell: fc.seeds,
		BaseSeed:     fc.baseSeed,
		MaxRounds:    fc.maxRounds,
		Inputs:       fc.inputs,
	}
	sw.PEnd = fc.pEnd
	sw.PiggybackWindow = fc.window
	sw.MaxMessageBytes = fc.maxBytes
	if fc.algo == "megaround" {
		sw.MegaT = fc.megaT
	}
	if len(fc.crashes) > 0 {
		nodes := make([]int, 0, len(fc.crashes))
		for node := range fc.crashes {
			nodes = append(nodes, node)
		}
		sort.Ints(nodes)
		rounds := make([]int, len(nodes))
		for i, node := range nodes {
			rounds[i] = fc.crashes[node].Round
		}
		sw.Crashes = &spec.Crashes{NodeList: nodes, Rounds: rounds}
	}
	casts, err := specCasts(fc.byz)
	if err != nil {
		return nil, err
	}
	sw.Byzantine = casts
	// Validate eagerly (via a re-parse of the encoding) so a bad
	// capture fails before the file lands.
	if _, err := spec.Parse(sw.Encode()); err != nil {
		return nil, err
	}
	return sw, nil
}

// specCasts converts the -byz grammar into declarative casts.
func specCasts(byzSpec string) ([]spec.Cast, error) {
	if byzSpec == "" {
		return nil, nil
	}
	var casts []spec.Cast
	for _, part := range strings.Split(byzSpec, ",") {
		fields := strings.Split(part, ":")
		if len(fields) < 2 {
			return nil, fmt.Errorf("byz entry %q wants node:strategy[:arg]", part)
		}
		node, err := strconv.Atoi(fields[0])
		if err != nil {
			return nil, err
		}
		arg := 0.0
		if len(fields) >= 3 {
			if arg, err = strconv.ParseFloat(fields[2], 64); err != nil {
				return nil, err
			}
		}
		cast := spec.Cast{NodeList: []int{node}, Strategy: fields[1]}
		switch fields[1] {
		case "extremist", "laggard", "mimic":
			cast.Args = []float64{arg}
		case "silent", "equivocate", "noise":
		default:
			return nil, fmt.Errorf("unknown strategy %q", fields[1])
		}
		casts = append(casts, cast)
	}
	return casts, nil
}

func parseCrashes(spec string) (map[int]anondyn.Crash, error) {
	if spec == "" {
		return nil, nil
	}
	crashes := make(map[int]anondyn.Crash)
	for _, part := range strings.Split(spec, ",") {
		nodeStr, roundStr, ok := strings.Cut(part, "@")
		if !ok {
			return nil, fmt.Errorf("crash entry %q wants node@round", part)
		}
		node, err := strconv.Atoi(nodeStr)
		if err != nil {
			return nil, err
		}
		round, err := strconv.Atoi(roundStr)
		if err != nil {
			return nil, err
		}
		crashes[node] = anondyn.CrashAt(round)
	}
	return crashes, nil
}

func parseByz(spec string, seed int64) (map[int]anondyn.Strategy, error) {
	if spec == "" {
		return nil, nil
	}
	byz := make(map[int]anondyn.Strategy)
	for _, part := range strings.Split(spec, ",") {
		fields := strings.Split(part, ":")
		if len(fields) < 2 {
			return nil, fmt.Errorf("byz entry %q wants node:strategy[:arg]", part)
		}
		node, err := strconv.Atoi(fields[0])
		if err != nil {
			return nil, err
		}
		arg := 0.0
		if len(fields) >= 3 {
			if arg, err = strconv.ParseFloat(fields[2], 64); err != nil {
				return nil, err
			}
		}
		switch fields[1] {
		case "silent":
			byz[node] = anondyn.Silent()
		case "extremist":
			byz[node] = anondyn.Extremist(arg)
		case "equivocate":
			byz[node] = anondyn.Equivocator(0, 1)
		case "noise":
			byz[node] = anondyn.RandomNoise(seed + int64(node))
		case "laggard":
			byz[node] = anondyn.Laggard(arg)
		case "mimic":
			byz[node] = anondyn.Mimic(int(arg))
		default:
			return nil, fmt.Errorf("unknown strategy %q", fields[1])
		}
	}
	return byz, nil
}

func parseInputs(spec string, n int, seed int64) ([]float64, error) {
	name, arg, _ := strings.Cut(spec, ":")
	switch name {
	case "spread":
		return anondyn.SpreadInputs(n), nil
	case "split":
		k := n / 2
		if arg != "" {
			var err error
			if k, err = strconv.Atoi(arg); err != nil {
				return nil, err
			}
		}
		return anondyn.SplitInputs(n, k), nil
	case "random":
		return anondyn.RandomInputs(n, seed), nil
	default:
		return nil, fmt.Errorf("unknown inputs %q", spec)
	}
}
