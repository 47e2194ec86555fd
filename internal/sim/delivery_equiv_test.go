package sim

import (
	"math/rand"
	"reflect"
	"testing"

	"anondyn/internal/adversary"
	"anondyn/internal/core"
	"anondyn/internal/fault"
	"anondyn/internal/network"
	"anondyn/internal/trace"
)

// TestDeliveryEquivalenceProperty is the round loop's oracle test:
// across randomized sparse, dense and faulted scenarios, the fast paths
// — word-wise in-neighbor gather, lazy/incremental view maintenance,
// and the O(1) fault-free lost count — must together produce
// byte-identical Results (trace, MessagesLost/Delivered/Oversized,
// BytesDelivered, outputs) AND an identical per-delivery event stream
// (delivery order is visible through the recorder) compared to the
// retained reference implementations (Engine.referenceRound: port-loop
// gather, eager per-round view refresh, word-wise lost count).
func TestDeliveryEquivalenceProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var push pushCoverage
	var scatter scatterCoverage
	// Sizes straddle the 64-bit word boundary on purpose: the word-wise
	// path must be exact in the multi-word regime too.
	for trial := 0; trial < 60; trial++ {
		n := []int{3, 7, 13, 33, 63, 64, 65, 70}[rng.Intn(8)]
		seed := rng.Int63()
		cfg := func() Config { return randomDeliveryConfig(t, n, seed) }

		refCfg, refRec := cfg(), trace.NewRecorder()
		refCfg.Hooks.Recorder = refRec
		refEng, err := NewEngine(refCfg)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		refEng.referenceRound = true
		ref := refEng.RunRounds(25)

		wwCfg, wwRec := cfg(), trace.NewRecorder()
		wwCfg.Hooks.Recorder = wwRec
		// Half the trials force the CSR scratch: the sparse gather paths
		// (InList fast branch, CSR-backed InNeighborsInto, sparse
		// OutHits lost count) must match the reference byte-for-byte
		// in the faulted/ported/shuffled regime too. The Recorder keeps
		// these runs sequential, so the parallel loop is pinned by the
		// bare pair below.
		wwCfg.ForceCSR = trial%2 == 0
		wwEng, err := NewEngine(wwCfg)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		ww := wwEng.RunRounds(25)

		assertEqualResults(t, ref, ww, "trial %d (n=%d, seed=%d) recorded pair", trial, n, seed)
		refEvents, wwEvents := refRec.Events(), wwRec.Events()
		if !reflect.DeepEqual(refEvents, wwEvents) {
			for i := range refEvents {
				if i >= len(wwEvents) || !reflect.DeepEqual(refEvents[i], wwEvents[i]) {
					t.Fatalf("trial %d (n=%d, seed=%d): event streams diverge at %d:\nref %v\nww  %v",
						trial, n, seed, i, trace.Describe(refEvents[i]), describeAt(wwEvents, i))
				}
			}
			t.Fatalf("trial %d: ww stream has %d extra events", trial, len(wwEvents)-len(refEvents))
		}

		// Third run: no Recorder, no bandwidth accounting. This is the
		// only shape that arms the fused fast paths (fastGather and the
		// direct-deliver core fire exactly when nothing observes
		// deliveries), so it must be pinned against the reference too —
		// through Results, since there is no event stream to compare.
		bareRef := cfg()
		bareRef.AccountBandwidth = false
		bareRefEng, err := NewEngine(bareRef)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		bareRefEng.referenceRound = true
		bareWW := cfg()
		bareWW.AccountBandwidth = false
		// Random CSR/parallel knobs: in this shape the direct-deliver
		// core, the sequential CSR scatter round and the receiver-
		// parallel round all arm (depending on the drawn faults, ports
		// and shuffling), each of which must reproduce the reference
		// delivery stream exactly.
		bareWW.ForceCSR = rng.Intn(2) == 0
		bareWW.RoundWorkers = []int{0, -1, 2, 3, 5}[rng.Intn(5)]
		bareProbe := probeLogOrder(&bareWW)
		bareWWEng, err := NewEngine(bareWW)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		rr, ww := bareRefEng.RunRounds(25), bareProbe.run(bareWWEng, 25)
		assertEqualResults(t, rr, ww, "trial %d (n=%d, seed=%d, csr=%v, workers=%d) bare pair",
			trial, n, seed, bareWW.ForceCSR, bareWW.RoundWorkers)
		bareWWEng.Close()
		scatter.note(bareProbe)

		// Fourth run: the same draw scrubbed to the scatter shape
		// (push-shaped, and no crashes either) on forced CSR, sequential:
		// every round with a sparse log and too few links to push
		// scatters, whatever faults, ports and workers the draw picked
		// above. The bare pair rarely gets there.
		scatRef, scatCfg := scatterShaped(t, cfg()), scatterShaped(t, cfg())
		scatRefEng, err := NewEngine(scatRef)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		scatRefEng.referenceRound = true
		scatProbe := probeLogOrder(&scatCfg)
		scatEng, err := NewEngine(scatCfg)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		rr, sc := scatRefEng.RunRounds(25), scatProbe.run(scatEng, 25)
		assertEqualResults(t, rr, sc, "trial %d (n=%d, seed=%d) scatter pair", trial, n, seed)
		scatter.note(scatProbe)

		// Fifth run: the same draw scrubbed to the push shape (crashes
		// kept, everything pushRound excludes removed) on forced CSR, with
		// the in-degree gate bypassed and a random receiver block width,
		// against the reference on the identical configuration.
		pushRef, pushCfg := pushShaped(t, cfg()), pushShaped(t, cfg())
		pushRefEng, err := NewEngine(pushRef)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		pushRefEng.referenceRound = true
		pushEng, err := NewEngine(pushCfg)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		pushEng.pushForce = pushBlockDraw(rng, n)
		rr, pw := pushRefEng.RunRounds(25), pushEng.RunRounds(25)
		assertEqualResults(t, rr, pw, "trial %d (n=%d, seed=%d, block=%d) push pair",
			trial, n, seed, pushEng.pushForce)
		push.note(pushEng, pushCfg)
	}
	push.check(t)
	scatter.check(t)
}

// scatterShaped is pushShaped with the crash schedule dropped too: the
// fault-free shape that arms directDeliver, and with it scatterRound.
func scatterShaped(t *testing.T, cfg Config) Config {
	t.Helper()
	cfg = pushShaped(t, cfg)
	cfg.Crashes = nil
	cfg.F = 0
	return cfg
}

// logOrderProbe wraps an in-place adversary and records, for each round
// scatterRound ran, whether the adversary had left the round's log
// ordered or scatterRound had to canonicalize it first.
type logOrderProbe struct {
	adversary.InPlace
	eng          *Engine
	lastOrdered  bool
	lastScatters int
	ordered      int // scatter rounds on logs the adversary left ordered
	unordered    int // scatter rounds on logs canonicalized first
}

// probeLogOrder installs a probe around cfg's adversary; a nil probe
// (for an adversary without the in-place path) records nothing.
func probeLogOrder(cfg *Config) *logOrderProbe {
	ip, ok := cfg.Adversary.(adversary.InPlace)
	if !ok {
		return nil
	}
	p := &logOrderProbe{InPlace: ip}
	cfg.Adversary = p
	return p
}

// Oblivious forwards the wrapped adversary's marker, so the probe does
// not change the engine's view maintenance.
func (p *logOrderProbe) Oblivious() bool { return adversary.IsOblivious(p.InPlace) }

func (p *logOrderProbe) EdgesInto(t int, view adversary.View, dst *network.EdgeSet) {
	p.settle()
	p.InPlace.EdgesInto(t, view, dst)
	_, p.lastOrdered = dst.OrderedLog(nil)
}

// settle attributes the scatter rounds since the last call to the order
// of the log the adversary wrote for them.
func (p *logOrderProbe) settle() {
	d := p.eng.scatterRounds - p.lastScatters
	p.lastScatters = p.eng.scatterRounds
	if p.lastOrdered {
		p.ordered += d
	} else {
		p.unordered += d
	}
}

// run drives eng, whose adversary p wraps, for k rounds.
func (p *logOrderProbe) run(eng *Engine, k int) *Result {
	if p == nil {
		return eng.RunRounds(k)
	}
	p.eng = eng
	res := eng.RunRounds(k)
	p.settle()
	return res
}

// scatterCoverage tallies the scatter rounds the equivalence runs
// exercised, by the order of the log they read.
type scatterCoverage struct {
	ordered, unordered int
}

func (c *scatterCoverage) note(p *logOrderProbe) {
	if p != nil {
		c.ordered += p.ordered
		c.unordered += p.unordered
	}
}

func (c *scatterCoverage) check(t *testing.T) {
	t.Helper()
	t.Logf("scatter coverage: %+v", *c)
	if c.ordered == 0 || c.unordered == 0 {
		t.Fatalf("scatter path under-covered: %+v", *c)
	}
}

// pushShaped scrubs a randomDeliveryConfig draw down to the shape
// pushRound accepts: Byzantine nodes become plain DAC nodes, and random
// ports, shuffling, caps and bandwidth accounting go. Crash schedules
// (clean, silent and partial) and the adversary stay; the scratch is
// forced into CSR so the ordered-log adversaries reach the push path.
func pushShaped(t *testing.T, cfg Config) Config {
	t.Helper()
	for i := range cfg.Byzantine {
		d, err := core.NewDACPhases(cfg.N, i, 1<<20, 0.5)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Procs[i] = d
	}
	cfg.Byzantine = nil
	cfg.F = len(cfg.Crashes)
	cfg.Ports = nil
	cfg.ShuffleDelivery = false
	cfg.MaxMessageBytes = 0
	cfg.AccountBandwidth = false
	cfg.ForceCSR = true
	return cfg
}

func mustSparseProbabilistic(t *testing.T, p float64, seed int64) adversary.Adversary {
	t.Helper()
	a, err := adversary.NewSparseProbabilistic(p, seed)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// pushBlockDraw picks a receiver block width for a forced push run:
// mostly narrower than n, so the per-sender cursors must carry rows
// across block boundaries, sometimes the whole range in one block.
func pushBlockDraw(rng *rand.Rand, n int) int {
	return []int{1, 2, 5, 16, 64, n}[rng.Intn(6)]
}

// pushCoverage tallies what the forced push runs exercised, so the
// equivalence properties fail loudly if a change to the gate or the
// scrubbing ever stops them reaching pushRound.
type pushCoverage struct {
	rounds      int // push rounds in total
	multiBlock  int // push rounds split into more than one block
	crashRounds int // push rounds in runs with a crash schedule
	partial     int // push rounds in runs with a partial or silent crash
}

func (c *pushCoverage) note(e *Engine, cfg Config) {
	c.rounds += e.pushRounds
	if e.pushForce < cfg.N {
		c.multiBlock += e.pushRounds
	}
	if len(cfg.Crashes) > 0 {
		c.crashRounds += e.pushRounds
	}
	for _, cr := range cfg.Crashes {
		if cr.DeliverTo != nil {
			c.partial += e.pushRounds
			break
		}
	}
}

func (c *pushCoverage) check(t *testing.T) {
	t.Helper()
	t.Logf("push coverage: %+v", *c)
	if c.rounds == 0 || c.multiBlock == 0 || c.crashRounds == 0 || c.partial == 0 {
		t.Fatalf("push path under-covered: %+v", *c)
	}
}

// assertEqualResults compares two Results for byte-identity, comparing
// the kept traces through EdgeSet.Equal first: the same round graph may
// legitimately live in different representations (dense vs CSR), which
// reflect.DeepEqual on the internals would misreport as divergence.
func assertEqualResults(t *testing.T, ref, got *Result, format string, args ...any) {
	t.Helper()
	if len(ref.Trace) != len(got.Trace) {
		t.Fatalf(format+": trace length %d vs %d", append(args, len(ref.Trace), len(got.Trace))...)
	}
	for i := range ref.Trace {
		if !ref.Trace[i].Equal(got.Trace[i]) || !got.Trace[i].Equal(ref.Trace[i]) {
			t.Fatalf(format+": round %d edge sets differ", append(args, i)...)
		}
	}
	refBody, gotBody := *ref, *got
	refBody.Trace, gotBody.Trace = nil, nil
	if !reflect.DeepEqual(&refBody, &gotBody) {
		t.Fatalf(format+": Results diverge\nref %+v\ngot %+v", append(args, &refBody, &gotBody)...)
	}
}

func describeAt(events []trace.Event, i int) string {
	if i >= len(events) {
		return "<missing>"
	}
	return trace.Describe(events[i])
}

// randomDeliveryConfig draws one scenario from the property test's
// distribution: sparse/dense adversaries, optional crashes (clean,
// silent and partial), optional Byzantine senders, random port
// numberings, delivery shuffling, bandwidth accounting and per-link
// caps. Everything is a deterministic function of (n, seed) so both
// engines see identical configurations.
func randomDeliveryConfig(t *testing.T, n int, seed int64) Config {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))

	var adv adversary.Adversary
	switch rng.Intn(7) {
	case 0:
		adv = adversary.NewComplete()
	case 1:
		p := []float64{0.05, 0.3, 0.9}[rng.Intn(3)]
		a, err := adversary.NewProbabilistic(p, rng.Int63())
		if err != nil {
			t.Fatal(err)
		}
		adv = a
	case 2:
		a, err := adversary.NewRotating(1 + rng.Intn(4))
		if err != nil {
			t.Fatal(err)
		}
		adv = a
	case 3:
		// Sparse-native sampler: the geometric-skip draw must be exact
		// through the whole round loop, not just in isolation.
		p := []float64{0.02, 0.1, 0.5}[rng.Intn(3)]
		a, err := adversary.NewSparseProbabilistic(p, rng.Int63())
		if err != nil {
			t.Fatal(err)
		}
		adv = a
	case 4:
		// Adaptive adversaries read the view's snapshots every round:
		// they gate the incremental view maintenance against the eager
		// reference refresh.
		a, err := adversary.NewClustered(1 + rng.Intn(4))
		if err != nil {
			t.Fatal(err)
		}
		adv = a
	case 5:
		a, err := adversary.NewStarve(1 + rng.Intn(3))
		if err != nil {
			t.Fatal(err)
		}
		adv = a
	default:
		a, err := adversary.NewIsolate(rng.Intn(n))
		if err != nil {
			t.Fatal(err)
		}
		adv = a
	}

	crashes := fault.Schedule{}
	byz := map[int]fault.Strategy{}
	if n >= 7 {
		perm := rng.Perm(n)
		faulty := perm[:rng.Intn(3)]
		for i, node := range faulty {
			switch {
			case rng.Intn(2) == 0:
				// RandomNoise reads receiver phases off the view — it
				// gates the incremental snapshots even under oblivious
				// adversaries.
				strat := []fault.Strategy{
					fault.Silent{},
					fault.Extremist{Value: 1},
					fault.Equivocator{Low: 0, High: 1},
					fault.NewRandomNoise(rng.Int63()),
				}[rng.Intn(4)]
				byz[node] = strat
			case i%2 == 0:
				crashes[node] = fault.CrashPartial(rng.Intn(6), perm[len(faulty):][:rng.Intn(3)]...)
			default:
				crashes[node] = fault.CrashAt(rng.Intn(6))
			}
		}
	}

	procs := make([]core.Process, n)
	for i := 0; i < n; i++ {
		if _, isByz := byz[i]; isByz {
			continue
		}
		d, err := core.NewDACPhases(n, i, 1<<20, rng.Float64())
		if err != nil {
			t.Fatal(err)
		}
		procs[i] = d
	}

	cfg := Config{
		N:                n,
		F:                len(crashes) + len(byz),
		Procs:            procs,
		Byzantine:        byz,
		Crashes:          crashes,
		Adversary:        adv,
		MaxRounds:        1 << 20,
		AccountBandwidth: true,
		KeepTrace:        true,
	}
	if rng.Intn(2) == 0 {
		cfg.Ports = network.RandomPorts(n, rng)
	}
	if rng.Intn(2) == 0 {
		cfg.ShuffleDelivery = true
		cfg.ShuffleSeed = rng.Int63()
	}
	if rng.Intn(3) == 0 {
		cfg.MaxMessageBytes = 1 + rng.Intn(4) // small enough to clip some messages
	}
	return cfg
}

// TestEnginePortsRecycledAcrossReset: the engine-owned identity
// numberings — and with them the dense PortOf cache the delivery core
// leans on — must be reused verbatim by a same-size Reset, and must
// still be a bijection afterwards.
func TestEnginePortsRecycledAcrossReset(t *testing.T) {
	mk := func() Config {
		return Config{N: 9, Procs: dacProcs(t, 9, 10, spread(9)), Adversary: adversary.NewComplete()}
	}
	eng, err := NewEngine(mk())
	if err != nil {
		t.Fatal(err)
	}
	before := eng.ports
	eng.Run()
	if err := eng.Reset(mk()); err != nil {
		t.Fatal(err)
	}
	if &eng.ports[0] != &before[0] {
		t.Error("same-n Reset rebuilt the engine-owned ports")
	}
	for v := 0; v < 9; v++ {
		numbering := eng.ports[v]
		if !numbering.IsIdentity() {
			t.Fatalf("default numbering for %d lost its identity flag", v)
		}
		for u := 0; u < 9; u++ {
			if numbering.PortOf(u) != u || numbering.Node(u) != u {
				t.Fatalf("recycled PortOf broken at receiver %d, sender %d", v, u)
			}
		}
	}
	// A different n must rebuild rather than reuse stale numberings.
	cfg := mk()
	cfg.N = 5
	cfg.Procs = dacProcs(t, 5, 10, spread(5))
	if err := eng.Reset(cfg); err != nil {
		t.Fatal(err)
	}
	if got := eng.ports[0].N(); got != 5 {
		t.Fatalf("resized Reset kept %d-node numberings", got)
	}
}

// TestDeliveryEquivalenceAcrossReset drives one recycled engine pair
// through several scenarios, flipping nothing but the gather
// implementation: Engine.Reset must preserve the equivalence (scratch
// reuse may not leak state between runs).
func TestDeliveryEquivalenceAcrossReset(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var refEng, wwEng *Engine
	var push pushCoverage
	for trial := 0; trial < 16; trial++ {
		n := []int{5, 9, 70}[rng.Intn(3)]
		seed := rng.Int63()
		refCfg, wwCfg := randomDeliveryConfig(t, n, seed), randomDeliveryConfig(t, n, seed)
		// Flip representation and worker count across Resets on the SAME
		// engine: a recycled scratch in the wrong representation must be
		// rebuilt, a resized worker pool re-created, with no state leak.
		wwCfg.ForceCSR = rng.Intn(2) == 0
		wwCfg.RoundWorkers = []int{0, 2, 4}[rng.Intn(3)]
		if trial%2 == 0 {
			// Every other trial is push-shaped with the gate forced open,
			// so the push cursors are recycled across Resets and sizes.
			// The er2 sampler writes ordered logs, so these trials reach
			// pushRound whatever adversary the draw picked.
			refCfg, wwCfg = pushShaped(t, refCfg), pushShaped(t, wwCfg)
			wwCfg.RoundWorkers = 0
			p := []float64{0.1, 0.5}[rng.Intn(2)]
			refCfg.Adversary = mustSparseProbabilistic(t, p, seed)
			wwCfg.Adversary = mustSparseProbabilistic(t, p, seed)
		}
		var err error
		if refEng == nil {
			if refEng, err = NewEngine(refCfg); err != nil {
				t.Fatal(err)
			}
			refEng.referenceRound = true
			if wwEng, err = NewEngine(wwCfg); err != nil {
				t.Fatal(err)
			}
		} else {
			if err = refEng.Reset(refCfg); err != nil {
				t.Fatal(err)
			}
			if err = wwEng.Reset(wwCfg); err != nil {
				t.Fatal(err)
			}
		}
		wwEng.pushForce = pushBlockDraw(rng, n)
		ref, ww := refEng.RunRounds(20), wwEng.RunRounds(20)
		assertEqualResults(t, ref, ww, "trial %d (n=%d, seed=%d, csr=%v, workers=%d, block=%d) recycled pair",
			trial, n, seed, wwCfg.ForceCSR, wwCfg.RoundWorkers, wwEng.pushForce)
		push.note(wwEng, wwCfg)
	}
	wwEng.Close()
	push.check(t)
}
