package main

import (
	"bytes"
	"encoding/json"
	"os"
	"testing"
	"time"

	"anondyn"
	"anondyn/internal/adversary"
	"anondyn/internal/network"
	"anondyn/internal/spec"
)

func TestGeneratorDeterministicPerSeed(t *testing.T) {
	for _, w := range workloads {
		for _, sz := range []size{testSize, fullSize} {
			a, b := w.gen(7, sz), w.gen(7, sz)
			if !bytes.Equal(a, b) {
				t.Errorf("%s: seed 7 generated different specs", w.name)
			}
			if bytes.Equal(a, w.gen(8, sz)) {
				t.Errorf("%s: seeds 7 and 8 generated the same spec", w.name)
			}
		}
	}
}

func TestGeneratedSpecsCompile(t *testing.T) {
	for _, w := range workloads {
		for _, sz := range []size{testSize, fullSize} {
			for seed := int64(0); seed < 20; seed++ {
				if _, _, err := spec.Compile(w.gen(seed, sz), 0); err != nil {
					t.Fatalf("%s seed %d: %v\n%s", w.name, seed, err, w.gen(seed, sz))
				}
			}
		}
	}
}

// TestForwardingAdversaryKeepsSeams pins that the timing wrapper
// answers the engine's InPlace and Oblivious probes exactly as the
// inner adversary does, and forwards the edges and Reseed unchanged.
func TestForwardingAdversaryKeepsSeams(t *testing.T) {
	const n = 9
	cases := []struct {
		name string
		adv  adversary.Adversary
	}{
		{"complete", adversary.NewComplete()},
		{"chasemin", anondyn.ChaseMin()},
		{"static", anondyn.Static("ring", network.Ring(n))},
		{"er2", anondyn.SparseProbabilistic(0.3, 5)},
	}
	for _, c := range cases {
		calls := 0
		w := wrapAdversary(c.adv, func(_, _ time.Time, _ int) { calls++ })
		if got, want := adversary.IsOblivious(w), adversary.IsOblivious(c.adv); got != want {
			t.Errorf("%s: IsOblivious %v, inner %v", c.name, got, want)
		}
		_, innerIP := c.adv.(adversary.InPlace)
		ip, wrapIP := w.(adversary.InPlace)
		if innerIP != wrapIP {
			t.Errorf("%s: InPlace %v, inner %v", c.name, wrapIP, innerIP)
		}
		view := adversary.SizeView(n)
		want := c.adv.Edges(0, view).Clone()
		if r, ok := c.adv.(adversary.Reseeder); ok {
			r.Reseed(5) // rewind so the wrapper draws round 0 again
		}
		got := w.Edges(0, view)
		if wrapIP {
			got = network.NewEdgeSet(n)
			if r, ok := w.(adversary.Reseeder); ok {
				r.Reseed(5)
			}
			ip.EdgesInto(0, view, got)
		}
		if !got.Equal(want) {
			t.Errorf("%s: wrapped edges differ from the inner adversary's", c.name)
		}
		if calls == 0 {
			t.Errorf("%s: the wrapper timed no call", c.name)
		}
	}
}

// TestLocalFoldMatchesGridRun pins that the local path's per-run fold
// (Grid.RunEach into BatchStats, which exposes each Result's delivery
// count) produces Grid.Run's rows byte for byte.
func TestLocalFoldMatchesGridRun(t *testing.T) {
	t.Chdir(t.TempDir())
	w, _ := findWorkload("small-local")
	b := &bench{w: w, seed: 3, sz: testSize, spec: w.gen(3, testSize)}
	if _, err := b.pass(nil); err != nil {
		t.Fatal(err)
	}
	_, grid, err := spec.Compile(b.spec, 0)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := grid.Run(anondyn.BatchOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	want, err := cellsDigest(rows)
	if err != nil {
		t.Fatal(err)
	}
	if b.digest != want {
		t.Fatalf("RunEach fold digest %s, Grid.Run digest %s", b.digest, want)
	}
}

// TestWorkloadsShrunk runs every workload end to end at the test size,
// untraced and traced, and checks that each reports every metric
// BENCHMARK.json names for its mode.
func TestWorkloadsShrunk(t *testing.T) {
	decl := declaredMetrics(t)
	t.Chdir(t.TempDir())
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			b := &bench{w: w, seed: 4, budget: time.Nanosecond, sz: testSize}
			e2e, err := b.untraced()
			if err != nil {
				t.Fatal(err)
			}
			if b.failed != 0 || b.attempted == 0 {
				t.Fatalf("attempted %d, failed %d", b.attempted, b.failed)
			}
			tb := &bench{w: w, seed: 4, budget: time.Nanosecond, sz: testSize}
			layers, err := tb.traced()
			if err != nil {
				t.Fatal(err)
			}
			if tb.digest != b.digest {
				t.Fatalf("traced run digest %s, untraced %s", tb.digest, b.digest)
			}
			for name, unit := range decl.endToEnd {
				if m, ok := e2e[name]; !ok || m.Unit != unit || m.Value <= 0 {
					t.Errorf("end-to-end %s: got %+v, want unit %s and a positive value", name, m, unit)
				}
			}
			for name, unit := range decl.perLayer {
				if m, ok := layers[name]; !ok || m.Unit != unit {
					t.Errorf("per-layer %s: got %+v, want unit %s", name, m, unit)
				}
			}
			if len(e2e) != len(decl.endToEnd) || len(layers) != len(decl.perLayer) {
				t.Errorf("reported %d/%d metrics, BENCHMARK.json declares %d/%d",
					len(e2e), len(layers), len(decl.endToEnd), len(decl.perLayer))
			}
		})
	}
}

type declared struct{ endToEnd, perLayer map[string]string }

// declaredMetrics reads the metric names and units BENCHMARK.json at
// the repository root declares.
func declaredMetrics(t *testing.T) declared {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	d := declared{endToEnd: map[string]string{}, perLayer: map[string]string{}}
	for _, m := range doc.EndToEnd {
		d.endToEnd[m.Name] = m.Unit
	}
	for _, m := range doc.PerLayer {
		d.perLayer[m.Name] = m.Unit
	}
	return d
}
