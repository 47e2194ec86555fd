package sim

import "math/rand"

// newRand returns a deterministic RNG for test port numberings.
func newRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// observerLog records Observer callbacks: each node's phase transitions
// as (from, to, round) triples, and each node's decided value.
type observerLog struct {
	phases  map[int][]int
	decides map[int]float64
}

func newObserverLog() *observerLog {
	return &observerLog{phases: make(map[int][]int), decides: make(map[int]float64)}
}

func (o *observerLog) OnPhaseEnter(node, from, to int, value float64, round int) {
	o.phases[node] = append(o.phases[node], from, to, round)
}

func (o *observerLog) OnDecide(node int, value float64, round int) {
	o.decides[node] = value
}
