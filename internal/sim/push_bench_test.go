package sim

import (
	"fmt"
	"testing"

	"anondyn/internal/fault"
)

// BenchmarkPushSweep is the degree sweep behind pushBlock and
// pushMinDegree: steady DAC rounds on er2 at n ∈ {4097, 16385} and mean
// in-degree 8…492, fault-free or with crashes (clean, silent and
// partial, all landed before the timed rounds). Each case runs through
// the pull paths ("pull": scatterRound or deliverRange, whichever the
// round selects, with countLost on crash rounds) and through pushRound
// with the in-degree gate bypassed at receiver block widths 256, 1024
// and 4096 ("push-b<width>"). ns/edge is the figure to compare across
// the paths of one case; interleave repeated passes, e.g.
//
//	go test -c -o sim.test ./internal/sim
//	for i in 1 2 3 4 5; do ./sim.test -test.run '^$' -test.bench PushSweep -test.benchtime 16x; done
//
// The gate passes a round to pushRound when its mean in-degree is at
// least pushMinDegree·⌈n/pushBlock⌉.
func BenchmarkPushSweep(b *testing.B) {
	for _, n := range []int{4097, 16385} {
		for _, degree := range []int{8, 16, 24, 32, 64, 128, 256, 492} {
			for _, crash := range []bool{false, true} {
				for _, block := range []int{0, 256, 1024, 4096} {
					path := "pull"
					if block > 0 {
						path = fmt.Sprintf("push-b%d", block)
					}
					faults := "none"
					if crash {
						faults = "crash"
					}
					name := fmt.Sprintf("n=%d/deg=%d/%s/%s", n, degree, faults, path)
					b.Run(name, func(b *testing.B) {
						benchPushSweepCase(b, n, degree, crash, block)
					})
				}
			}
		}
	}
}

func benchPushSweepCase(b *testing.B, n, degree int, crash bool, block int) {
	cfg := pushCfg(b, n, float64(degree))
	if crash {
		// About 1% of the nodes crash in the first rounds, an eighth of
		// them silently and an eighth with a partial final broadcast.
		cfg.Crashes = fault.Schedule{}
		for i := 0; i < n/100; i++ {
			node := (i*7919 + 13) % n
			switch i % 8 {
			case 0:
				cfg.Crashes[node] = fault.CrashSilent(1 + i%3)
			case 1:
				cfg.Crashes[node] = fault.CrashPartial(1+i%3, (node+1)%n, (node+2)%n)
			default:
				cfg.Crashes[node] = fault.CrashAt(1 + i%3)
			}
		}
		cfg.F = len(cfg.Crashes)
	}
	eng, err := NewEngine(cfg)
	if err != nil {
		b.Fatal(err)
	}
	if block > 0 {
		eng.pushForce = block
	} else {
		eng.pushShape = false
	}
	eng.RunRounds(4)
	warm := eng.result.MessagesDelivered
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.Step()
	}
	b.StopTimer()
	if (block > 0) != (eng.pushRounds > 0) {
		b.Fatalf("path %d: %d push rounds", block, eng.pushRounds)
	}
	edges := eng.result.MessagesDelivered - warm
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(edges), "ns/edge")
}
