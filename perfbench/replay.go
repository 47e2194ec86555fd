package main

import (
	"fmt"
	"maps"
	"time"

	"anondyn"
	"anondyn/internal/core"
	"anondyn/internal/fault"
	"anondyn/internal/sim"
)

// replaySplit is the core/sim split of one re-executed run.
type replaySplit struct {
	deliveries int64
	runNS      int64 // Engine.Run
	advNS      int64 // adversary calls inside it
	foldNS     int64 // DeliverAll/Deliver/EndRound inside it
}

// foldNSPerDelivery is the algorithm fold's cost per delivery.
func (r replaySplit) foldNSPerDelivery() float64 {
	return ratio(float64(r.foldNS), float64(r.deliveries))
}

// gatherNSPerDelivery is the engine's own cost per delivery: the run
// minus the adversary and the fold (broadcasts, view refresh, the
// delivery gather/scatter and the round bookkeeping).
func (r replaySplit) gatherNSPerDelivery() float64 {
	return ratio(float64(r.runNS-r.advNS-r.foldNS), float64(r.deliveries))
}

// representative picks the run the replay re-executes: the first seed
// of the first cell at the workload's largest n. On the small matrix
// that is the fault-free DAC cell under the complete graph — the direct
// delivery path; the large workloads have a single cell.
func representative(cells []anondyn.Cell, seedsPerCell int) (cell, run int) {
	for i, c := range cells {
		if c.N > cells[cell].N {
			cell = i
		}
	}
	return cell, cell * max(seedsPerCell, 1)
}

// replay re-executes one run of the grid directly on sim.NewEngine
// with every process wrapped to time its fold, and checks the Result
// against ref, the grid's own Result for that seed.
func replay(grid anondyn.Grid, cell anondyn.Cell, seed int64, ref *anondyn.Result) (replaySplit, error) {
	s := scenarioFor(grid, cell, seed)
	var split replaySplit
	cfg, err := engineConfig(s, &split)
	if err != nil {
		return split, err
	}
	cfg.Adversary = wrapAdversary(s.Adversary, func(start, end time.Time, _ int) {
		split.advNS += int64(end.Sub(start))
	})
	eng, err := sim.NewEngine(cfg)
	if err != nil {
		return split, fmt.Errorf("replay: %w", err)
	}
	start := time.Now()
	res := eng.Run()
	split.runNS = int64(time.Since(start))
	split.deliveries = int64(res.MessagesDelivered)
	if res.Rounds != ref.Rounds || res.MessagesDelivered != ref.MessagesDelivered || !maps.Equal(res.Outputs, ref.Outputs) {
		return split, fmt.Errorf("replay of seed %d diverged from the grid run: rounds %d vs %d, deliveries %d vs %d, outputs equal %v",
			seed, res.Rounds, ref.Rounds, res.MessagesDelivered, ref.MessagesDelivered, maps.Equal(res.Outputs, ref.Outputs))
	}
	return split, nil
}

// scenarioFor assembles one run's Scenario exactly as the grid does:
// base fields from the cell, then the variant, then the Mutate hook.
func scenarioFor(g anondyn.Grid, c anondyn.Cell, seed int64) anondyn.Scenario {
	inputs := g.Inputs
	if inputs == nil {
		inputs = anondyn.RandomInputs
	}
	s := anondyn.Scenario{
		N: c.N, F: c.F, Eps: c.Eps,
		Algorithm:        c.Algorithm,
		Inputs:           inputs(c.N, seed),
		Adversary:        c.Adversary.New(c, seed),
		Seed:             seed,
		MaxRounds:        g.MaxRounds,
		AccountBandwidth: g.AccountBandwidth,
	}
	if c.Variant.Apply != nil {
		c.Variant.Apply(&s)
	}
	if g.Mutate != nil {
		g.Mutate(&s, c, seed)
	}
	return s
}

// engineConfig builds the engine configuration the Scenario would
// build, for the algorithm forms the workloads use, with every process
// wrapped in a fold timer.
func engineConfig(s anondyn.Scenario, split *replaySplit) (sim.Config, error) {
	if s.RandomPorts || s.ShuffleDelivery || s.QuorumOverride > 0 || s.MaxMessageBytes > 0 || s.LinkBandwidth != nil {
		return sim.Config{}, fmt.Errorf("replay: scenario options outside the benchmark's workloads")
	}
	byz := make(map[int]fault.Strategy, len(s.Byzantine))
	for i, st := range s.Byzantine {
		byz[i] = st
	}
	crashes := fault.Schedule{}
	for i, c := range s.Crashes {
		crashes[i] = c
	}
	procs := make([]core.Process, s.N)
	for i := range procs {
		if _, ok := byz[i]; ok {
			continue
		}
		p, err := newProc(s, i)
		if err != nil {
			return sim.Config{}, fmt.Errorf("replay: node %d: %w", i, err)
		}
		procs[i] = &timedProc{foldProcess: p, fold: &split.foldNS}
	}
	f := s.F
	if f == 0 {
		f = len(byz) + len(crashes)
	}
	return sim.Config{
		N: s.N, F: f, Procs: procs, Byzantine: byz, Crashes: crashes,
		MaxRounds: s.MaxRounds, AccountBandwidth: s.AccountBandwidth, ShuffleSeed: s.Seed,
	}, nil
}

// foldProcess is what the workloads' algorithms, DAC and DBAC,
// implement: the engine's DeliverAll seam and the Reinit recycling hook
// besides Process.
type foldProcess interface {
	core.Process
	core.BulkDeliverer
	core.Reinitializer
}

// newProc mirrors Scenario's constructor choice for DAC and DBAC under
// identity ports (node i's own port is i).
func newProc(s anondyn.Scenario, i int) (foldProcess, error) {
	in := s.Inputs[i]
	switch s.Algorithm {
	case anondyn.AlgoDAC:
		switch {
		case s.Unchecked:
			pEnd := s.PEndOverride
			if pEnd <= 0 {
				pEnd = core.PEndDAC(s.Eps)
			}
			return core.NewDACCustom(s.N, i, pEnd, core.CrashQuorum(s.N), in)
		case s.PEndOverride > 0:
			return core.NewDACPhases(s.N, i, s.PEndOverride, in)
		}
		return core.NewDAC(s.N, i, in, s.Eps)
	case anondyn.AlgoDBAC:
		switch {
		case s.Unchecked:
			pEnd := s.PEndOverride
			if pEnd <= 0 {
				pEnd = core.PEndDBAC(s.Eps, s.N)
			}
			return core.NewDBACCustom(s.N, s.F, i, pEnd, core.ByzQuorum(s.N, s.F), in)
		case s.PEndOverride > 0:
			return core.NewDBACPhases(s.N, s.F, i, s.PEndOverride, in)
		}
		return core.NewDBAC(s.N, s.F, i, in, s.Eps)
	}
	return nil, fmt.Errorf("algorithm %v is outside the benchmark's workloads", s.Algorithm)
}

// timedProc times a process's fold calls — DeliverAll, Deliver and
// EndRound — into *fold. Embedding forwards the rest, Reinit included,
// and the wrapper offers DeliverAll exactly as the inner process does,
// so the engine's BulkDeliverer probe and recycling are unchanged.
type timedProc struct {
	foldProcess
	fold *int64
}

func (p *timedProc) DeliverAll(ds []core.Delivery) {
	start := time.Now()
	p.foldProcess.DeliverAll(ds)
	*p.fold += int64(time.Since(start))
}

func (p *timedProc) Deliver(d core.Delivery) {
	start := time.Now()
	p.foldProcess.Deliver(d)
	*p.fold += int64(time.Since(start))
}

func (p *timedProc) EndRound() {
	start := time.Now()
	p.foldProcess.EndRound()
	*p.fold += int64(time.Since(start))
}
