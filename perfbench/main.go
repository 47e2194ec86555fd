// Command perfbench is the repository benchmark: it generates one
// workload's sweep spec from a seed, runs it from spec bytes to a
// written JSON report through the program's public entry points
// (spec.Compile → Grid.RunEach locally, or shard.ControlPlane with two
// joined workers), checks every output, and prints every metric by
// name and unit. The last stdout line is one JSON result object.
//
//	bash perfbench/run.sh --workload small-local --seed 1 --seconds 25 --trace 0
//
// Run it from the repository root; outputs go under .bench_build there.
// --trace 0 reports the end-to-end metrics; --trace 1 adds a traced
// pass (spans at layer boundaries, a core/sim split replay) and reports
// the per-layer metrics instead. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// defaultSeed is the seed the recorded digests in digests.json belong to.
const defaultSeed = 1

// outDir holds everything a run writes, relative to the checkout root.
const outDir = ".bench_build/perfbench"

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload name: "+workloadNames())
	seed := fs.Int64("seed", defaultSeed, "workload seed (the generated spec is a pure function of it)")
	seconds := fs.Int("seconds", 25, "measuring time per run")
	traced := fs.Int("trace", 0, "0: end-to-end metrics; 1: traced pass, per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := findWorkload(*name)
	if !ok || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: want --workload (%s), --seconds >= 1, --trace 0|1\n", workloadNames())
		return 2
	}
	b := &bench{w: w, seed: *seed, budget: time.Duration(*seconds) * time.Second, sz: fullSize}
	var (
		out metricSet
		err error
	)
	if *traced == 1 {
		out, err = b.traced()
	} else {
		out, err = b.untraced()
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: FAIL: %v\n", w.name, *seed, err)
		return 1
	}
	ctx := machineContext(*seed)
	if err := writeRecord(w.name, *seed, *traced, ctx, b, out); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Printf("context commit=%s go=%s gomaxprocs=%d nproc=%d cpu=%q seed=%d\n",
		ctx.Commit, ctx.GoVersion, ctx.GOMAXPROCS, ctx.NProc, ctx.CPU, ctx.Seed)
	for _, m := range out.sorted() {
		fmt.Printf("%-30s %14.6g %s\n", m.name, m.Value, m.Unit)
	}
	line, err := json.Marshal(result{Correct: true, Attempted: b.attempted, Failed: b.failed, Metrics: out})
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metricSet map[string]metric

func (m metricSet) set(name string, value float64, unit string) {
	m[name] = metric{Value: value, Unit: unit}
}

type namedMetric struct {
	name string
	metric
}

func (m metricSet) sorted() []namedMetric {
	out := make([]namedMetric, 0, len(m))
	for k, v := range m {
		out = append(out, namedMetric{k, v})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// result is the last stdout line.
type result struct {
	Correct   bool      `json:"correct"`
	Attempted int       `json:"attempted"`
	Failed    int       `json:"failed"`
	Metrics   metricSet `json:"metrics"`
}

// record is the per-run result file: the metrics plus the machine
// context that makes the numbers attributable, and the per-iteration
// samples behind each median.
type record struct {
	Workload   string      `json:"workload"`
	Trace      int         `json:"trace"`
	Context    machineInfo `json:"context"`
	Digest     string      `json:"cells_sha256"`
	Attempted  int         `json:"attempted"`
	Failed     int         `json:"failed"`
	Iterations []iteration `json:"iterations"`
	SetupsS    []float64   `json:"setups_s"`
	Metrics    metricSet   `json:"metrics"`
}

func writeRecord(name string, seed int64, traced int, ctx machineInfo, b *bench, out metricSet) error {
	rec := record{
		Workload: name, Trace: traced, Context: ctx, Digest: b.digest,
		Attempted: b.attempted, Failed: b.failed, Iterations: b.iters, SetupsS: b.setups, Metrics: out,
	}
	data, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	path := filepath.Join(outDir, "results", fmt.Sprintf("%s-seed%d-trace%d.json", name, seed, traced))
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
