package sim

import (
	"testing"

	"anondyn/internal/adversary"
	"anondyn/internal/core"
	"anondyn/internal/fault"
	"anondyn/internal/metrics"
	"anondyn/internal/network"
	"anondyn/internal/trace"
)

// starveFilter layers a starve window over er2 the way the chaos storm
// filters do: each round drops every link into a rotating fifth of the
// receivers with Retain, which keeps the log ordered.
type starveFilter struct {
	*adversary.SparseProbabilistic
}

func (s starveFilter) EdgesInto(t int, view adversary.View, dst *network.EdgeSet) {
	s.SparseProbabilistic.EdgesInto(t, view, dst)
	dst.Retain(func(u, v int) bool { return (v+t)%5 != 0 })
}

// pushCfg is an n-node DAC configuration on er2 at the given mean
// in-degree, never deciding, so every round is a steady round.
func pushCfg(t testing.TB, n int, inDegree float64) Config {
	t.Helper()
	a, err := adversary.NewSparseProbabilistic(inDegree/float64(n-1), 1)
	if err != nil {
		t.Fatal(err)
	}
	procs := make([]core.Process, n)
	for i := range procs {
		d, err := core.NewDACPhases(n, i, 1<<20, float64(i%7)/7)
		if err != nil {
			t.Fatal(err)
		}
		procs[i] = d
	}
	return Config{N: n, Procs: procs, Adversary: a, MaxRounds: 1 << 20}
}

// TestPushRoundSelection pins when pushRound runs: every round above
// the in-degree gate on a push-shaped configuration, including ones
// with crashes, a kept trace or a Metrics sink; no round below the gate or on an
// unordered log; and never for a receiver pool, a Byzantine node,
// random ports, a message cap, bandwidth accounting, shuffled delivery,
// an Observer or a Recorder, however dense the round.
func TestPushRoundSelection(t *testing.T) {
	const n = network.SparseThreshold
	blocks := (n + pushBlock - 1) / pushBlock
	above := 2 * float64(pushMinDegree*blocks)
	below := float64(pushMinDegree*blocks) / 2
	cases := []struct {
		name   string
		degree float64
		tweak  func(*Config)
		want   bool
	}{
		{"above gate", above, nil, true},
		{"above gate/crashes", above, func(c *Config) {
			c.F = 3
			c.Crashes = fault.Schedule{5: fault.CrashAt(0), 9: fault.CrashSilent(1), 700: fault.CrashPartial(1, 3, 4)}
		}, true},
		{"above gate/keep trace", above, func(c *Config) { c.KeepTrace = true }, true},
		{"above gate/metrics", above, func(c *Config) { c.Hooks.Metrics = metrics.NewCollector() }, true},
		{"below gate", below, nil, false},
		{"unordered log", above, func(c *Config) {
			a, err := adversary.NewRotating(int(above))
			if err != nil {
				t.Fatal(err)
			}
			c.Adversary = a
		}, false},
		{"parallel", above, func(c *Config) { c.RoundWorkers = 2 }, false},
		{"byzantine", above, func(c *Config) {
			c.F = 1
			c.Procs[3] = nil
			c.Byzantine = map[int]fault.Strategy{3: fault.Extremist{Value: 1}}
		}, false},
		{"random ports", above, func(c *Config) { c.Ports = network.RandomPorts(n, newRand(4)) }, false},
		{"message cap", above, func(c *Config) { c.MaxMessageBytes = 64 }, false},
		{"bandwidth accounting", above, func(c *Config) { c.AccountBandwidth = true }, false},
		{"shuffle", above, func(c *Config) { c.ShuffleDelivery = true; c.ShuffleSeed = 2 }, false},
		{"observer", above, func(c *Config) { c.Hooks.Observer = newObserverLog() }, false},
		{"recorder", above, func(c *Config) { c.Hooks.Recorder = trace.NewRecorder() }, false},
	}
	const rounds = 2
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			cfg := pushCfg(t, n, c.degree)
			if c.tweak != nil {
				c.tweak(&cfg)
			}
			eng, err := NewEngine(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer eng.Close()
			eng.RunRounds(rounds)
			want := 0
			if c.want {
				want = rounds
			}
			if eng.pushRounds != want {
				t.Errorf("%d of %d rounds pushed, want %d", eng.pushRounds, rounds, want)
			}
		})
	}
}

// TestPushRoundMatchesPull runs the same above-gate configuration with
// crashes (clean, silent and partial, some mid-run) through pushRound
// and through the reference round, and requires identical Results —
// MessagesLost included — at the real block width, where n spans
// several blocks.
func TestPushRoundMatchesPull(t *testing.T) {
	n := 2*pushBlock + 37
	degree := 2 * float64(pushMinDegree*((n+pushBlock-1)/pushBlock))
	mk := func() Config {
		cfg := pushCfg(t, n, degree)
		cfg.F = 4
		cfg.Crashes = fault.Schedule{
			0:         fault.CrashAt(1),
			pushBlock: fault.CrashSilent(2),
			n - 1:     fault.CrashPartial(1, 0, 5, pushBlock+1),
			77:        fault.CrashPartial(3),
		}
		return cfg
	}
	ref, err := NewEngine(mk())
	if err != nil {
		t.Fatal(err)
	}
	ref.referenceRound = true
	push, err := NewEngine(mk())
	if err != nil {
		t.Fatal(err)
	}
	const rounds = 4 // through the last crash round
	want, got := ref.RunRounds(rounds), push.RunRounds(rounds)
	if push.pushRounds != rounds {
		t.Fatalf("%d of %d rounds pushed", push.pushRounds, rounds)
	}
	assertEqualResults(t, want, got, "n=%d push vs reference", n)
}

// TestPushRoundZeroAlloc: a steady push round allocates nothing — er2
// at p=0.12 under a starve filter, with crashes (clean and partial)
// landing inside the measured rounds, at n=4097.
func TestPushRoundZeroAlloc(t *testing.T) {
	const n = 4097
	cfg := pushCfg(t, n, 0.12*(n-1))
	cfg.Adversary = starveFilter{cfg.Adversary.(*adversary.SparseProbabilistic)}
	cfg.F = 3
	cfg.Crashes = fault.Schedule{
		10:   fault.CrashAt(3),
		2000: fault.CrashPartial(4, 1, 2, 3),
		4096: fault.CrashSilent(5),
	}
	eng, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	eng.RunRounds(2)
	// AllocsPerRun's warm-up call runs round 2; rounds 3–5 are measured.
	if avg := testing.AllocsPerRun(3, eng.Step); avg != 0 {
		t.Errorf("steady push round allocated %g times, want 0", avg)
	}
	if eng.pushRounds != eng.Round() {
		t.Errorf("%d of %d rounds pushed", eng.pushRounds, eng.Round())
	}
}
