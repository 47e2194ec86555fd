package sim

import (
	"math"
	"reflect"
	"testing"

	"anondyn/internal/adversary"
	"anondyn/internal/fault"
	"anondyn/internal/network"
)

// parWorkers is the receiver-pool size the equivalence oracles run
// against the sequential loop.
const parWorkers = 4

// assertSameResult compares everything that must match between the
// sequential and the receiver-parallel round loop.
func assertSameResult(t *testing.T, seq, par *Result) {
	t.Helper()
	if seq.Decided != par.Decided {
		t.Fatalf("Decided: seq %v, par %v", seq.Decided, par.Decided)
	}
	if seq.Rounds != par.Rounds {
		t.Errorf("Rounds: seq %d, par %d", seq.Rounds, par.Rounds)
	}
	if !reflect.DeepEqual(seq.Outputs, par.Outputs) {
		t.Errorf("Outputs differ:\nseq %v\npar %v", seq.Outputs, par.Outputs)
	}
	if !reflect.DeepEqual(seq.DecideRound, par.DecideRound) {
		t.Errorf("DecideRound differ:\nseq %v\npar %v", seq.DecideRound, par.DecideRound)
	}
	if seq.MessagesDelivered != par.MessagesDelivered {
		t.Errorf("MessagesDelivered: seq %d, par %d", seq.MessagesDelivered, par.MessagesDelivered)
	}
	if seq.MessagesLost != par.MessagesLost {
		t.Errorf("MessagesLost: seq %d, par %d", seq.MessagesLost, par.MessagesLost)
	}
	if seq.MessagesOversized != par.MessagesOversized {
		t.Errorf("MessagesOversized: seq %d, par %d", seq.MessagesOversized, par.MessagesOversized)
	}
	if seq.BytesDelivered != par.BytesDelivered {
		t.Errorf("BytesDelivered: seq %d, par %d", seq.BytesDelivered, par.BytesDelivered)
	}
}

// runParallel runs cfg with its receiver loop sharded over a
// parWorkers pool, failing the test if the pool did not engage — an
// oracle whose parallel side silently ran the sequential loop would
// pass vacuously.
func runParallel(t *testing.T, cfg Config) *Result {
	t.Helper()
	cfg.RoundWorkers = parWorkers
	eng, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	if !eng.parRounds {
		t.Fatal("receiver pool did not engage — equivalence test vacuous")
	}
	return eng.Run()
}

// runBoth runs two fresh copies of one configuration (fresh Process
// instances, fresh adversaries from the same factory): sequentially,
// and with the receiver loop sharded over the pool.
func runBoth(t *testing.T, mk func() Config) (*Result, *Result) {
	t.Helper()
	seqEng, err := NewEngine(mk())
	if err != nil {
		t.Fatal(err)
	}
	return seqEng.Run(), runParallel(t, mk())
}

func TestEquivalenceDACRotating(t *testing.T) {
	mk := func() Config {
		rot, err := adversary.NewRotating(3)
		if err != nil {
			t.Fatal(err)
		}
		return Config{
			N:                7,
			Procs:            dacProcs(t, 7, 10, spread(7)),
			Adversary:        rot,
			AccountBandwidth: true,
		}
	}
	seq, par := runBoth(t, mk)
	assertSameResult(t, seq, par)
	if !seq.Decided {
		t.Error("scenario never decided — equivalence test vacuous")
	}
}

func TestEquivalenceDACCrashesRandomPorts(t *testing.T) {
	mk := func() Config {
		rd, err := adversary.NewRandomDegree(2, 3, 0.1, 4242)
		if err != nil {
			t.Fatal(err)
		}
		return Config{
			N:     7,
			F:     2,
			Procs: dacProcs(t, 7, 8, spread(7)),
			Crashes: fault.Schedule{
				2: fault.CrashPartial(3, 0, 5),
				5: fault.CrashSilent(6),
			},
			Adversary: rd,
			Ports:     network.RandomPorts(7, newRand(17)),
		}
	}
	seq, par := runBoth(t, mk)
	assertSameResult(t, seq, par)
	if !seq.Decided {
		t.Error("scenario never decided — equivalence test vacuous")
	}
}

func TestEquivalenceDBACByzantine(t *testing.T) {
	mk := func() Config {
		byz := map[int]fault.Strategy{
			3:  fault.Equivocator{Low: 0, High: 1},
			10: fault.NewRandomNoise(555),
		}
		return Config{
			N:         11,
			F:         2,
			Procs:     dbacProcs(t, 11, 2, 10, spread(11), byz),
			Byzantine: byz,
			Adversary: adversary.NewComplete(),
		}
	}
	seq, par := runBoth(t, mk)
	assertSameResult(t, seq, par)
	if !seq.Decided {
		t.Error("scenario never decided — equivalence test vacuous")
	}
}

func TestEquivalenceAdaptiveClustered(t *testing.T) {
	mk := func() Config {
		cl, err := adversary.NewClustered(3)
		if err != nil {
			t.Fatal(err)
		}
		return Config{
			N:         9,
			Procs:     dacProcs(t, 9, 6, spread(9)),
			Adversary: cl,
			MaxRounds: 400,
		}
	}
	seq, par := runBoth(t, mk)
	assertSameResult(t, seq, par)
	if !seq.Decided {
		t.Error("scenario never decided — equivalence test vacuous")
	}
}

func TestEquivalenceUndecidedRun(t *testing.T) {
	mk := func() Config {
		halves, err := adversary.NewHalves(6)
		if err != nil {
			t.Fatal(err)
		}
		return Config{
			N:         6,
			Procs:     dacProcs(t, 6, 4, spread(6)),
			Adversary: halves,
			MaxRounds: 40,
		}
	}
	seq, par := runBoth(t, mk)
	assertSameResult(t, seq, par)
	if seq.Decided {
		t.Error("split scenario should not decide")
	}
}

// TestConcurrentMatchesTheoreticalContraction: receiver-parallel
// rounds on the complete graph keep Theorem 3's optimal rate — one
// phase per round, range at most (1/2)^pEnd.
func TestConcurrentMatchesTheoreticalContraction(t *testing.T) {
	res := runParallel(t, Config{
		N:         9,
		Procs:     dacProcs(t, 9, 10, spread(9)),
		Adversary: adversary.NewComplete(),
	})
	if !res.Decided || res.Rounds != 10 {
		t.Fatalf("rounds = %d decided = %v, want 10, true", res.Rounds, res.Decided)
	}
	if res.OutputRange() > math.Pow(0.5, 10) {
		t.Errorf("range %g exceeds (1/2)^10", res.OutputRange())
	}
}
