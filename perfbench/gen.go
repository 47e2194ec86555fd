package main

import (
	"fmt"
	"math/rand"
	"strings"
)

// A workload is one generated spec plus the path that runs it. The
// generator owns every choice: a run is given only a seed, and the
// program under test sees only the spec bytes.
type workload struct {
	name string
	// sharded submits the spec to an in-process control plane with two
	// joined workers instead of running it through Grid.RunEach.
	sharded bool
	// gen renders the spec for one seed at the given size.
	gen func(seed int64, sz size) []byte
}

// size scales a workload. full is what the benchmark runs; the tests
// use the shrunk sizes so they stay fast.
type size struct {
	seedsPerCell int // small specs: Monte-Carlo width per cell
	largeN       int // large specs: network size
	largeSeeds   int // large specs: runs
}

var (
	fullSize = size{seedsPerCell: 20, largeN: 4097, largeSeeds: 2}
	testSize = size{seedsPerCell: 2, largeN: 257, largeSeeds: 1}
)

var workloads = []workload{
	{name: "small-local", gen: genSmall},
	{name: "small-sharded", sharded: true, gen: genSmall},
	{name: "sparse-large", gen: genSparse},
	{name: "storm-large", gen: genStorm},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// seedRNG derives the generator's stream from the workload seed, salted
// per workload family so the small and large specs draw independently.
func seedRNG(seed int64, salt string) *rand.Rand {
	h := int64(1469598103934665603)
	for _, c := range salt {
		h = (h ^ int64(c)) * 1099511628211
	}
	return rand.New(rand.NewSource(seed ^ h))
}

// genSmall is the small-n matrix shared by small-local and
// small-sharded: n ∈ {7, 26, 51} × f ∈ {0, ⌊(n−1)/5⌋}, so every cell
// sits inside both n > 2f (DAC) and n > 5f (DBAC). crashes.count "f"
// leaves the f=0 cells fault-free (the engine's direct delivery path)
// and crashes f nodes elsewhere. The explicit 24-phase budget replaces
// DBAC's astronomically loose Equation-6 p_end, as in E5.
func genSmall(seed int64, sz size) []byte {
	rng := seedRNG(seed, "small")
	var b strings.Builder
	fmt.Fprintf(&b, "name: perfbench-small\n")
	fmt.Fprintf(&b, "description: small-n DAC/DBAC matrix with crash faults, generated from seed %d\n", seed)
	b.WriteString("cells:\n")
	for _, n := range []int{7, 26, 51} {
		for _, f := range []int{0, (n - 1) / 5} {
			fmt.Fprintf(&b, "  - n: %d\n    f: %d\n", n, f)
		}
	}
	b.WriteString("epss: [1e-3]\n")
	b.WriteString("algorithms: [dac, dbac]\n")
	b.WriteString(`adversaries: [complete, "rotating:crashdeg", "er:0.5", "random:4,crashdeg,0.05"]` + "\n")
	fmt.Fprintf(&b, "seeds_per_cell: %d\n", sz.seedsPerCell)
	fmt.Fprintf(&b, "base_seed: %d\n", rng.Int63n(1<<40))
	b.WriteString("max_rounds: 5000\n")
	b.WriteString("p_end: 24\n")
	// Which end of the ID space crashes is the generator's choice; the
	// crash rounds are fixed, since they set how much traffic a run
	// carries and a seed must not change the workload's cost.
	b.WriteString("crashes:\n")
	b.WriteString(`  count: "f"` + "\n")
	fmt.Fprintf(&b, "  nodes: %s\n", []string{"top", "first"}[rng.Intn(2)])
	b.WriteString("  round: 2\n")
	b.WriteString("  stagger: 1\n")
	return []byte(b.String())
}

// genSparse is a few long fault-free DAC runs on er2 at large n. The
// edge probability keeps E(t) near 0.004·n² ≈ 67k edges at n=4097
// (in-degree about 16), well under the engine's 2^18-edge scatter
// cutoff, so the CSR direct scatter path does the delivery work. A
// denser round (about 200k edges) made the pass time swing with the
// memory traffic of other tenants on a shared machine; this one stays
// steady.
func genSparse(seed int64, sz size) []byte {
	rng := seedRNG(seed, "sparse")
	var b strings.Builder
	fmt.Fprintf(&b, "name: perfbench-sparse\n")
	fmt.Fprintf(&b, "description: fault-free DAC on er2 at n=%d, generated from seed %d\n", sz.largeN, seed)
	fmt.Fprintf(&b, "ns: [%d]\n", sz.largeN)
	b.WriteString("epss: [0.25]\n")
	b.WriteString("algorithms: [dac]\n")
	fmt.Fprintf(&b, "adversaries: [\"er2:%s\"]\n", sparseP(sz.largeN))
	fmt.Fprintf(&b, "seeds_per_cell: %d\n", sz.largeSeeds)
	fmt.Fprintf(&b, "base_seed: %d\n", rng.Int63n(1<<40))
	b.WriteString("max_rounds: 20000\n")
	return []byte(b.String())
}

// sparseP keeps the expected in-degree near 16 at the full size and
// dense enough to terminate quickly at the test size.
func sparseP(n int) string {
	if n >= 2048 {
		return "0.004"
	}
	return "0.2"
}

// genStorm is a survivable chaos storm on a large grouped fleet over
// er2: a group outage, a crash-storm window and a starve window, with
// all four assertion kinds. Victims are bounded well under n/2 (one
// group of sixteen plus a 0.2%-per-round storm over a short window),
// so every assertion must PASS.
func genStorm(seed int64, sz size) []byte {
	rng := seedRNG(seed, "storm")
	n := sz.largeN - 1 // 4096: sixteen equal groups
	var b strings.Builder
	fmt.Fprintf(&b, "name: perfbench-storm\n")
	fmt.Fprintf(&b, "description: survivable storm on a %d-node fleet, generated from seed %d\n", n, seed)
	b.WriteString("epss: [0.25]\n")
	b.WriteString("algorithms: [dac]\n")
	b.WriteString(`adversaries: ["er2:0.12"]` + "\n")
	fmt.Fprintf(&b, "seeds_per_cell: %d\n", sz.largeSeeds)
	fmt.Fprintf(&b, "base_seed: %d\n", rng.Int63n(1<<40))
	b.WriteString("unchecked: true\n")
	b.WriteString("stress:\n")
	b.WriteString("  fleet:\n")
	fmt.Fprintf(&b, "    total_nodes: %d\n", n)
	b.WriteString("    groups: 16\n")
	b.WriteString("    templates:\n")
	b.WriteString("      - name: worker\n        weight: 4\n        input: random\n")
	b.WriteString("      - name: beacon\n        weight: 1\n        input: spread\n")
	fmt.Fprintf(&b, "  seed: %d\n", rng.Int63n(1<<40))
	b.WriteString("  rounds: 400\n")
	b.WriteString("  events:\n")
	fmt.Fprintf(&b, "    - kind: group-outage\n      round: %d\n      count: 1\n      mode: silent\n", 2+rng.Intn(3))
	fmt.Fprintf(&b, "    - kind: crash-storm\n      round: %d\n      duration: 4\n      rate: 0.002\n", 3+rng.Intn(3))
	fmt.Fprintf(&b, "    - kind: starve\n      round: %d\n      duration: 6\n      rate: 0.2\n", 6+rng.Intn(3))
	b.WriteString("  assertions:\n")
	b.WriteString("    - converged\n")
	b.WriteString("    - agreement\n")
	b.WriteString("    - max_rounds: 400\n")
	b.WriteString(`    - survivors: ">= n/2"` + "\n")
	return []byte(b.String())
}
