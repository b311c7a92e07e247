package lsm

import (
	"fmt"
	"sort"
	"testing"

	"rambda/internal/sim"
)

// TestMemtableOrderAndSeek inserts keys in random order and checks the
// skiplist against a sorted slice: both level-0 directions visit every
// key in order, and seek lands where seekPos does on the sorted keys,
// for present, absent, empty, and out-of-range starts in both
// directions.
func TestMemtableOrderAndSeek(t *testing.T) {
	rng := sim.NewRNG(7)
	m := newMemtable()
	var keys []string
	for i := 0; i < 2000; i++ {
		k := fmt.Sprintf("k%05d", rng.Intn(5000))
		if m.versions(k) == nil {
			keys = append(keys, k)
		}
		m.add(k, entry{seq: uint64(i + 1)})
	}
	sort.Strings(keys)
	if m.len() != len(keys) {
		t.Fatalf("memtable holds %d keys, want %d", m.len(), len(keys))
	}
	var fwd, rev []string
	for n := m.first(); n != nil; n = n.next[0] {
		fwd = append(fwd, n.key)
	}
	for n := m.seek("", true); n != nil; n = n.prev {
		rev = append(rev, n.key)
	}
	for i, k := range keys {
		if fwd[i] != k || rev[len(rev)-1-i] != k {
			t.Fatalf("position %d: forward %q, reverse %q, want %q", i, fwd[i], rev[len(rev)-1-i], k)
		}
	}
	for i := 0; i < 500; i++ {
		start := fmt.Sprintf("k%05d", rng.Intn(5200))
		switch i {
		case 0:
			start = ""
		case 1:
			start = "a" // before every key
		case 2:
			start = "z" // after every key
		}
		for _, reverse := range []bool{false, true} {
			want := ""
			if p := seekPos(keys, start, reverse); p >= 0 && p < len(keys) {
				want = keys[p]
			}
			got := ""
			if n := m.seek(start, reverse); n != nil {
				got = n.key
			}
			if got != want {
				t.Fatalf("seek(%q, reverse=%v) = %q, want %q", start, reverse, got, want)
			}
		}
	}
}
