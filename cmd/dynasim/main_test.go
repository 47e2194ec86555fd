package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"anondyn"
)

func TestParseAlgo(t *testing.T) {
	for name, want := range map[string]anondyn.Algo{
		"dac": anondyn.AlgoDAC, "DBAC": anondyn.AlgoDBAC, "dbac-pb": anondyn.AlgoDBACPiggyback,
		"megaround": anondyn.AlgoMegaRound, "fullinfo": anondyn.AlgoFullInfo,
		"reliter": anondyn.AlgoReliableIterated, "bacrel": anondyn.AlgoBACReliable,
		"floodmin": anondyn.AlgoFloodMin,
	} {
		got, err := parseAlgo(name)
		if err != nil || got != want {
			t.Errorf("parseAlgo(%q) = %v, %v", name, got, err)
		}
	}
	if _, err := parseAlgo("paxos"); err == nil {
		t.Error("unknown algorithm accepted")
	}
}

func TestParseAdversary(t *testing.T) {
	cases := []struct {
		spec string
		want string
	}{
		{"complete", "complete"},
		{"halves", "split(2 groups)"},
		{"rotating:3", "rotating(d=3)"},
		{"clustered:4", "clustered(T=4)"},
		{"starve:2", "starve(d=2)"},
		{"random:3,4", "randomDegree(B=3,D=4,extra=0.05)"},
		{"isolate:2", "isolate(2)"},
		{"chasemin", "chaseMin"},
		{"er:0.30", "er(p=0.3)"},
		{"er2:0.30", "er2(p=0.3)"},
	}
	for _, tc := range cases {
		a, err := parseAdversary(tc.spec, 7, 1, 1)
		if err != nil {
			t.Errorf("parseAdversary(%q): %v", tc.spec, err)
			continue
		}
		if a.Name() != tc.want {
			t.Errorf("parseAdversary(%q).Name() = %q, want %q", tc.spec, a.Name(), tc.want)
		}
	}
	if a, err := parseAdversary("fig1", 3, 0, 1); err != nil || !strings.Contains(a.Name(), "fig1") {
		t.Errorf("fig1: %v", err)
	}
	// Registry extensions reach dynasim too: symbolic degrees resolve
	// against the scenario's n and f.
	if a, err := parseAdversary("rotating:crashdeg", 9, 0, 1); err != nil || !strings.Contains(a.Name(), "d=4") {
		t.Errorf("rotating:crashdeg at n=9: %v, %v", a, err)
	}
	for _, bad := range []string{"fig1", "rotating:x", "random:3", "er:zz", "isolate:", "warp", "isolate:9"} {
		n := 7 // fig1 invalid at n=7, as is victim 9
		if _, err := parseAdversary(bad, n, 1, 1); err == nil {
			t.Errorf("parseAdversary(%q) accepted", bad)
		}
	}
}

func TestParseCrashes(t *testing.T) {
	crashes, err := parseCrashes("1@3,4@0")
	if err != nil {
		t.Fatal(err)
	}
	if len(crashes) != 2 || crashes[1].Round != 3 || crashes[4].Round != 0 {
		t.Errorf("crashes = %+v", crashes)
	}
	if got, _ := parseCrashes(""); got != nil {
		t.Error("empty spec should give nil")
	}
	for _, bad := range []string{"1", "1@x", "y@2"} {
		if _, err := parseCrashes(bad); err == nil {
			t.Errorf("parseCrashes(%q) accepted", bad)
		}
	}
}

func TestParseByz(t *testing.T) {
	byz, err := parseByz("2:silent,3:extremist:1,4:equivocate,5:noise,6:laggard:0.5,7:mimic:0", 9)
	if err != nil {
		t.Fatal(err)
	}
	if len(byz) != 6 {
		t.Fatalf("parsed %d strategies, want 6", len(byz))
	}
	for node, wantName := range map[int]string{
		2: "silent", 3: "extremist(1)", 4: "equivocator(0|1)",
		5: "randomNoise", 6: "laggard(0.5)", 7: "mimic(0)",
	} {
		if got := byz[node].Name(); got != wantName {
			t.Errorf("node %d strategy = %q, want %q", node, got, wantName)
		}
	}
	for _, bad := range []string{"2", "x:silent", "2:quantum", "2:extremist:x"} {
		if _, err := parseByz(bad, 1); err == nil {
			t.Errorf("parseByz(%q) accepted", bad)
		}
	}
}

func TestParseInputs(t *testing.T) {
	sp, err := parseInputs("spread", 5, 1)
	if err != nil || len(sp) != 5 || sp[4] != 1 {
		t.Errorf("spread: %v %v", sp, err)
	}
	si, err := parseInputs("split:2", 5, 1)
	if err != nil || si[1] != 0 || si[2] != 1 {
		t.Errorf("split: %v %v", si, err)
	}
	sd, err := parseInputs("split", 6, 1)
	if err != nil || sd[2] != 0 || sd[3] != 1 {
		t.Errorf("split default: %v %v", sd, err)
	}
	ri, err := parseInputs("random", 5, 1)
	if err != nil || len(ri) != 5 {
		t.Errorf("random: %v %v", ri, err)
	}
	if _, err := parseInputs("fibonacci", 5, 1); err == nil {
		t.Error("unknown inputs accepted")
	}
	if _, err := parseInputs("split:x", 5, 1); err == nil {
		t.Error("bad split arg accepted")
	}
}

// TestRunEndToEnd drives the whole CLI path once.
func TestRunEndToEnd(t *testing.T) {
	if err := run([]string{"-algo", "dac", "-n", "5", "-f", "1",
		"-adversary", "rotating:2", "-crash", "1@2", "-eps", "0.01"}); err != nil {
		t.Fatalf("run: %v", err)
	}
	if err := run([]string{"-algo", "nope"}); err == nil {
		t.Error("bad algorithm accepted")
	}
}

// TestRunBatchMode drives the -seeds worker-pool path with a JSON
// report.
func TestRunBatchMode(t *testing.T) {
	out := filepath.Join(t.TempDir(), "batch.json")
	if err := run([]string{"-algo", "dac", "-n", "7", "-f", "2",
		"-adversary", "er:0.5", "-inputs", "random",
		"-seeds", "12", "-workers", "3", "-report", out}); err != nil {
		t.Fatalf("batch run: %v", err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatalf("report not written: %v", err)
	}
	var report batchReport
	if err := json.Unmarshal(data, &report); err != nil {
		t.Fatalf("report not valid JSON: %v", err)
	}
	if report.Aggregate.Runs != 12 || len(report.Runs) != 12 {
		t.Errorf("report covers %d/%d runs, want 12", report.Aggregate.Runs, len(report.Runs))
	}
	if report.Aggregate.Decided != 12 || report.Aggregate.Violations != 0 {
		t.Errorf("aggregate = %+v", report.Aggregate)
	}
	if report.Runs[0].Seed != 1 || !report.Runs[0].Decided {
		t.Errorf("first run row = %+v", report.Runs[0])
	}

	if err := run([]string{"-seeds", "0", "-report", out}); err == nil {
		t.Error("-seeds 0 accepted")
	}
}

// TestSaveSpecThenRunSpec: the flags → artifact → sweep round trip.
func TestSaveSpecThenRunSpec(t *testing.T) {
	dir := t.TempDir()
	saved := filepath.Join(dir, "er.yaml")
	if err := run([]string{"-algo", "dac", "-n", "7", "-f", "1",
		"-adversary", "er:0.5", "-inputs", "random",
		"-crash", "1@3", "-byz", "", "-seeds", "1",
		"-save-spec", saved}); err != nil {
		t.Fatalf("save-spec run: %v", err)
	}
	data, err := os.ReadFile(saved)
	if err != nil {
		t.Fatalf("spec not written: %v", err)
	}
	for _, want := range []string{"ns: [7]", "er:0.5", "nodes: [1]", "rounds: [3]"} {
		if !strings.Contains(string(data), want) {
			t.Errorf("saved spec missing %q:\n%s", want, data)
		}
	}
	if err := run([]string{"-spec", saved, "-seeds", "5"}); err != nil {
		t.Fatalf("running saved spec: %v", err)
	}
}

// TestSaveSpecCapturesByzantine: strategies and their arguments
// survive the capture.
func TestSaveSpecCapturesByzantine(t *testing.T) {
	dir := t.TempDir()
	saved := filepath.Join(dir, "byz.yaml")
	if err := run([]string{"-algo", "dbac", "-n", "11", "-f", "2",
		"-byz", "4:equivocate,9:extremist:1", "-save-spec", saved}); err != nil {
		t.Fatalf("save-spec run: %v", err)
	}
	data, err := os.ReadFile(saved)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"strategy: equivocate", "strategy: extremist", "args: [1.0]"} {
		if !strings.Contains(string(data), want) {
			t.Errorf("saved spec missing %q:\n%s", want, data)
		}
	}
}

func TestSpecModeRejectsPerRunViews(t *testing.T) {
	if err := run([]string{"-spec", "x.yaml", "-series"}); err == nil {
		t.Error("-spec with -series accepted")
	}
	if err := run([]string{"-spec", "does-not-exist.yaml"}); err == nil {
		t.Error("missing spec file accepted")
	}
	if err := run([]string{"-adversary", "complete", "-randports", "-save-spec", "x.yaml"}); err == nil {
		t.Error("-save-spec with -randports accepted")
	}
}

// TestSpecRunWritesProfiles: -cpuprofile and -memprofile on a -spec run
// each leave a non-empty pprof file behind.
func TestSpecRunWritesProfiles(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.out"), filepath.Join(dir, "mem.out")
	if err := run([]string{"-spec", "../../examples/specs/quickstart-sweep.yaml", "-seeds", "1",
		"-cpuprofile", cpu, "-memprofile", mem}); err != nil {
		t.Fatalf("profiled spec run: %v", err)
	}
	for _, path := range []string{cpu, mem} {
		if fi, err := os.Stat(path); err != nil || fi.Size() == 0 {
			t.Errorf("%s: want a non-empty profile (stat: %v)", filepath.Base(path), err)
		}
	}
	if err := run([]string{"-spec", "../../examples/specs/quickstart-sweep.yaml",
		"-cpuprofile", filepath.Join(dir, "missing", "cpu.out")}); err == nil {
		t.Error("an unwritable -cpuprofile path should fail the run")
	}
}
