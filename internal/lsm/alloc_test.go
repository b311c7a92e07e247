package lsm

import "testing"

// Steady-state allocation guards for the serving path: once the
// caller's buffers have grown to the workload's high-water mark, a
// point read and a merged range scan over a flushed, compacted tree
// must not allocate. The scan reuses the DB's iterator and cursors and
// reads each record at its cursor.
func TestReadHotPathZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counts are distorted under the race detector")
	}
	b := NewReadBench()
	i := 0
	steady := func() {
		b.Step(i)
		i++
	}
	for j := 0; j < 64; j++ {
		steady()
	}
	if n := testing.AllocsPerRun(200, steady); n != 0 {
		t.Fatalf("GetInto: %.2f allocs/op in steady state, want 0", n)
	}
}

func TestScanIntoZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counts are distorted under the race detector")
	}
	b := NewScanBench()
	i := 0
	steady := func() { // forward and reverse scans (every 8th reversed)
		b.Step(i)
		i++
	}
	for j := 0; j < 64; j++ {
		steady()
	}
	if n := testing.AllocsPerRun(200, steady); n != 0 {
		t.Fatalf("ScanInto: %.2f allocs/op in steady state, want 0", n)
	}
}
