package main

import (
	"sort"
	"time"
)

// Shared machines drift: on the 2-vCPU 2.1 GHz Xeon VM the bounds were
// set on, speed changed by up to 2x over tens of seconds while the
// process stayed on-CPU. So the serving workloads scale every host time
// their end-to-end metrics report by a reference kernel timed right
// next to it: reported = measured x refNominal / reference lap time. The
// result reads as host seconds on a core running the reference at
// refNominal; a change to the simulator moves it, the machine's
// momentary speed mostly does not. The kernel is random lookups in a
// large Go map: of the kernels tried (dependent DRAM loads, streaming
// read-modify-write, map lookups), its time tracked the simulator's own
// slowdowns best. Raw host times stay in the per-layer metrics and the
// text output.
const (
	refEntries = 1 << 20
	refLookups = 50_000
	// refNominal is about one reference lap on a quiet core of that VM.
	refNominal = 6 * time.Millisecond
)

type reference struct {
	m    map[uint64]uint64
	x    uint64 // key stream state
	sink uint64 // keeps the lookups live
}

func newReference() *reference {
	r := &reference{m: make(map[uint64]uint64, refEntries)}
	for i := uint64(0); i < refEntries; i++ {
		r.m[i] = i * 3
	}
	return r
}

// lap times one fixed batch of lookups.
func (r *reference) lap() time.Duration {
	start := time.Now()
	x, s := r.x, uint64(0)
	for i := 0; i < refLookups; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		s += r.m[(x>>40)&(refEntries-1)]
	}
	d := time.Since(start)
	r.x, r.sink = x, r.sink+s
	return d
}

// median3 is the median of three laps, taken before and after a set-up.
func (r *reference) median3() time.Duration {
	l := []time.Duration{r.lap(), r.lap(), r.lap()}
	sort.Slice(l, func(i, j int) bool { return l[i] < l[j] })
	return l[1]
}

// scale converts a host time measured while the reference took ref.
func scale(d, ref time.Duration) float64 {
	return d.Seconds() * refNominal.Seconds() / ref.Seconds()
}
