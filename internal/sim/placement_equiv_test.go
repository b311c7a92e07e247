package sim

import (
	"container/heap"
	"math/bits"
	"slices"
	"testing"
)

// linearResource is the original placement algorithm, kept verbatim as
// the reference implementation: a flat age-ordered gap slice with an
// O(gaps) scan, O(n) slice-delete, O(n) copy on oldest-drop, and a
// container/heap server heap. Resource must reproduce its (start, done)
// stream bit-for-bit on any input, and its gap table must hold the same
// live gaps in the same age order. Equivalence is the invariant that
// keeps every figure byte-identical while gapTable (a start-ordered
// block index with lazily evicted zombies) replaces the scan.
type linearResource struct {
	overhead    Duration
	psPerByte   float64
	propagation Duration
	limit       int // gaps kept before the oldest is dropped
	free        linearServerHeap
	gaps        []gap
}

type linearServerHeap []Time

func (h linearServerHeap) Len() int           { return len(h) }
func (h linearServerHeap) Less(i, j int) bool { return h[i] < h[j] }
func (h linearServerHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *linearServerHeap) Push(x any)        { *h = append(*h, x.(Time)) }
func (h *linearServerHeap) Pop() any {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

func newLinearResource(capacity int, overhead Duration, bytesPerSec float64, propagation Duration, limit int) *linearResource {
	r := &linearResource{overhead: overhead, propagation: propagation, limit: limit}
	if bytesPerSec > 0 {
		r.psPerByte = float64(Second) / bytesPerSec
	}
	r.free = make(linearServerHeap, capacity)
	heap.Init(&r.free)
	return r
}

func (r *linearResource) serviceTime(bytes int) Duration {
	return r.overhead + Duration(float64(bytes)*r.psPerByte)
}

func (r *linearResource) acquire(now Time, bytes int) (start, done Time) {
	occupy := r.serviceTime(bytes)
	if occupy == 0 {
		return now, now + r.propagation
	}
	start = r.place(now, occupy)
	return start, start + occupy + r.propagation
}

func (r *linearResource) occupy(now Time, dur Duration) (start, end Time) {
	if dur <= 0 {
		return now, now
	}
	start = r.place(now, dur)
	return start, start + dur
}

func (r *linearResource) place(now Time, occupy Duration) Time {
	best := -1
	var bestStart Time
	for i, g := range r.gaps {
		s := Max(now, g.start)
		if s+occupy <= g.end && (best < 0 || s < bestStart) {
			best, bestStart = i, s
		}
	}
	if best >= 0 {
		g := r.gaps[best]
		r.gaps = append(r.gaps[:best], r.gaps[best+1:]...)
		if bestStart > g.start {
			r.recordGap(g.start, bestStart)
		}
		if bestStart+occupy < g.end {
			r.recordGap(bestStart+occupy, g.end)
		}
		return bestStart
	}
	frontier := r.free[0]
	start := Max(now, frontier)
	if start > frontier {
		r.recordGap(frontier, start)
	}
	r.free[0] = start + occupy
	heap.Fix(&r.free, 0)
	return start
}

func (r *linearResource) recordGap(start, end Time) {
	if end <= start {
		return
	}
	if len(r.gaps) >= r.limit {
		copy(r.gaps, r.gaps[1:])
		r.gaps = r.gaps[:len(r.gaps)-1]
	}
	r.gaps = append(r.gaps, gap{start: start, end: end})
}

// equivOp is one step of a generated workload.
type equivOp struct {
	now    Time
	bytes  int
	occupy Duration // > 0 selects Occupy instead of Acquire
}

// equivConfig is the resource both implementations are built as.
type equivConfig struct {
	capacity    int
	overhead    Duration
	bytesPerSec float64
	propagation Duration
	limit       int // gap-table limit; 0 means maxGaps
}

// equivRun drives the indexed and the linear placement through the same
// op stream. It fails on the first diverging (start, done) pair, and
// every checkEvery ops and at the end it checks the gap table's
// invariants and compares its live gaps, in age order, with the linear
// list. It returns the gap table's final live count and the number of
// compactions it ran.
func equivRun(t testing.TB, cfg equivConfig, ops []equivOp, checkEvery int) (live, compactions int) {
	t.Helper()
	if cfg.limit == 0 {
		cfg.limit = maxGaps
	}
	indexed := NewResource("equiv", cfg.capacity, cfg.overhead, cfg.bytesPerSec, cfg.propagation)
	indexed.gaps.limit = cfg.limit
	linear := newLinearResource(cfg.capacity, cfg.overhead, cfg.bytesPerSec, cfg.propagation, cfg.limit)
	for i, op := range ops {
		tail := indexed.gaps.tail
		var s1, d1, s2, d2 Time
		if op.occupy > 0 {
			s1, d1 = indexed.Occupy(op.now, op.occupy)
			s2, d2 = linear.occupy(op.now, op.occupy)
		} else {
			s1, d1 = indexed.Acquire(op.now, op.bytes)
			s2, d2 = linear.acquire(op.now, op.bytes)
		}
		if indexed.gaps.tail < tail {
			compactions++
		}
		if s1 != s2 || d1 != d2 {
			t.Fatalf("op %d (now=%v bytes=%d occupy=%v): indexed (%v,%v) != linear (%v,%v); live gaps=%d",
				i, op.now, op.bytes, op.occupy, s1, d1, s2, d2, indexed.gaps.live)
		}
		if (checkEvery > 0 && (i+1)%checkEvery == 0) || i == len(ops)-1 {
			checkGapTable(t, &indexed.gaps)
			if got := ageOrderedGaps(&indexed.gaps); !slices.Equal(got, linear.gaps) {
				t.Fatalf("after op %d: live gaps diverged: indexed %d, linear %d", i, len(got), len(linear.gaps))
			}
		}
	}
	return indexed.gaps.live, compactions
}

// ageOrderedGaps lists the table's live gaps oldest first.
func ageOrderedGaps(g *gapTable) []gap {
	type aged struct {
		slot uint16
		g    gap
	}
	var all []aged
	for _, h := range g.hdr {
		c := &g.pool[h.chunk]
		for i := 0; i < int(h.n); i++ {
			if g.isLive(c.slot[i]) {
				all = append(all, aged{c.slot[i], gap{c.start[i], c.end[i]}})
			}
		}
	}
	slices.SortFunc(all, func(a, b aged) int { return int(a.slot) - int(b.slot) })
	out := make([]gap, len(all))
	for i, a := range all {
		out[i] = a.g
	}
	return out
}

// checkGapTable verifies the index invariants the search relies on:
// entries sorted by (start, slot), exact block first keys, header
// bounds that bound their entries, a non-decreasing running end, and
// one index entry per live slot.
func checkGapTable(t testing.TB, g *gapTable) {
	t.Helper()
	seen := make([]bool, g.tail)
	live := 0
	var prevStart, runEnd Time
	var prevSlot uint16
	first := true
	for b, h := range g.hdr {
		if h.n < 1 || h.n > gapBlockSize {
			t.Fatalf("block %d holds %d entries", b, h.n)
		}
		c := &g.pool[h.chunk]
		if h.first != c.start[0] {
			t.Fatalf("block %d first %v, entry 0 starts %v", b, h.first, c.start[0])
		}
		for i := 0; i < int(h.n); i++ {
			st, en, sl := c.start[i], c.end[i], c.slot[i]
			if en <= st {
				t.Fatalf("block %d entry %d is empty: [%v,%v)", b, i, st, en)
			}
			if !first && (st < prevStart || st == prevStart && sl < prevSlot) {
				t.Fatalf("block %d entry %d out of order: (%v,%d) after (%v,%d)", b, i, st, sl, prevStart, prevSlot)
			}
			first, prevStart, prevSlot = false, st, sl
			if int(sl) >= g.tail || seen[sl] {
				t.Fatalf("block %d entry %d: slot %d reused or past tail %d", b, i, sl, g.tail)
			}
			seen[sl] = true
			if g.isLive(sl) {
				live++
			}
			if en > h.maxEnd || en-st > h.maxLen || en-st > g.maxLen {
				t.Fatalf("block %d entry %d [%v,%v) escapes its bounds", b, i, st, en)
			}
		}
		runEnd = max(runEnd, h.maxEnd)
		if h.runEnd < runEnd {
			t.Fatalf("block %d running end %v below %v", b, h.runEnd, runEnd)
		}
	}
	bitsSet := 0
	for w, word := range g.alive {
		for ; word != 0; word &= word - 1 {
			if s := w<<6 + bits.TrailingZeros64(word); s < g.head || s >= g.tail {
				t.Fatalf("live slot %d outside [head %d, tail %d)", s, g.head, g.tail)
			}
			bitsSet++
		}
	}
	if live != g.live || bitsSet != g.live {
		t.Fatalf("live count %d, indexed live %d, live bits %d", g.live, live, bitsSet)
	}
}

// equivStressOps generates a seeded op stream whose arrival times jump
// forward (opening gaps), linger (backfilling them), and occasionally
// jump backward (an op of a later request reaching the resource at an
// earlier virtual time, the case backfilling exists for).
func equivStressOps(seed uint64, n int, jumpEvery, backEvery int) []equivOp {
	rng := NewRNG(seed)
	ops := make([]equivOp, n)
	now := Time(0)
	for i := range ops {
		switch {
		case jumpEvery > 0 && rng.Intn(jumpEvery) == 0:
			now += Duration(rng.Intn(int(20 * Microsecond)))
		case backEvery > 0 && rng.Intn(backEvery) == 0:
			now -= Duration(rng.Intn(int(5 * Microsecond)))
			if now < 0 {
				now = 0
			}
		default:
			now += Duration(rng.Intn(int(100 * Nanosecond)))
		}
		if rng.Intn(10) == 0 {
			ops[i] = equivOp{now: now, occupy: Duration(rng.Intn(int(2*Microsecond)) + 1)}
		} else {
			ops[i] = equivOp{now: now, bytes: rng.Intn(4096)}
		}
	}
	return ops
}

// TestPlacementEquivalenceStress is the randomized 1M-op equivalence
// run (scaled down under -race, where the linear reference's O(gaps)
// scans are ~15x slower).
func TestPlacementEquivalenceStress(t *testing.T) {
	n := 1_000_000
	if raceEnabled || testing.Short() {
		n = 120_000
	}
	for _, tc := range []struct {
		name        string
		capacity    int
		overhead    Duration
		bytesPerSec float64
		propagation Duration
		seed        uint64
	}{
		{"single-server-bw", 1, 0, 16e9, 300 * Nanosecond, 1},
		{"multi-server", 7, 30 * Nanosecond, 4e9, 0, 2},
		{"overhead-only", 3, 50 * Nanosecond, 0, 100 * Nanosecond, 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ops := equivStressOps(tc.seed, n, 40, 200)
			equivRun(t, equivConfig{capacity: tc.capacity, overhead: tc.overhead, bytesPerSec: tc.bytesPerSec, propagation: tc.propagation}, ops, 0)
		})
	}
}

// TestPlacementEquivalenceGapSaturated pins the regime the gap cap was
// added for: the table sits at maxGaps live windows, every record
// evicts the oldest, and most lookups miss — the linear reference's
// worst case (full scan plus 64 KiB memmove per record).
func TestPlacementEquivalenceGapSaturated(t *testing.T) {
	n := 120_000
	if raceEnabled || testing.Short() {
		n = 20_000
	}
	rng := NewRNG(99)
	ops := make([]equivOp, 0, n)
	now := Time(0)
	for i := 0; i < n; i++ {
		// Long forward leaps open a gap on almost every op; tiny
		// occasional backfills keep the consume path exercised.
		now += Duration(rng.Intn(int(Microsecond)) + int(100*Nanosecond))
		if rng.Intn(20) == 0 {
			back := now - Duration(rng.Intn(int(50*Microsecond)))
			if back < 0 {
				back = 0
			}
			ops = append(ops, equivOp{now: back, bytes: rng.Intn(64)})
		} else {
			ops = append(ops, equivOp{now: now, bytes: rng.Intn(256) + 1})
		}
	}
	equivRun(t, equivConfig{capacity: 1, bytesPerSec: 64e9}, ops, 0)
}

// servingRegimeOps mimics how the serving figures drive a resource such
// as srv:upi or srv:accel:issue. Requests are walked in issue order, so
// a few ops land at the frontier and push it out, while most arrive
// 10-60 us behind it, where earlier backfills have cut the idle windows
// into ns-scale slivers.
func servingRegimeOps(seed uint64, n int) []equivOp {
	rng := NewRNG(seed)
	ops := make([]equivOp, n)
	front := 60 * Microsecond
	for i := range ops {
		switch r := rng.Intn(16); {
		case r < 2:
			front += Duration(rng.Intn(int(300*Nanosecond))) + 5*Nanosecond
			ops[i] = equivOp{now: front, bytes: rng.Intn(128) + 1}
		case r < 3:
			back := front - 10*Microsecond - Duration(rng.Intn(int(50*Microsecond)))
			ops[i] = equivOp{now: back, occupy: Duration(rng.Intn(int(20*Nanosecond))) + 1}
		default:
			back := front - 10*Microsecond - Duration(rng.Intn(int(50*Microsecond)))
			ops[i] = equivOp{now: back, bytes: rng.Intn(128) + 1}
		}
	}
	return ops
}

// TestPlacementEquivalenceServingRegime runs the serving pattern at
// capacity 1 and 6 long enough that the table stays saturated and its
// zombies are swept by several compactions.
func TestPlacementEquivalenceServingRegime(t *testing.T) {
	n := 100_000
	if raceEnabled || testing.Short() {
		n = 30_000
	}
	for _, tc := range []struct {
		name     string
		capacity int
		seed     uint64
	}{
		{"capacity-1", 1, 21},
		{"capacity-6", 6, 22},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := equivConfig{capacity: tc.capacity, bytesPerSec: 50e9, propagation: 100 * Nanosecond}
			live, compactions := equivRun(t, cfg, servingRegimeOps(tc.seed, n), 20_000)
			if live != maxGaps || compactions < 3 {
				t.Fatalf("%d live gaps after %d compactions: the table never stayed saturated", live, compactions)
			}
		})
	}
}

// TestPlacementEquivalenceEqualStarts aligns every server's frontier,
// then opens one window per server from that shared instant, so gaps on
// different servers start together. Arrivals at and just after the
// shared start are covered by several gaps at once and must split the
// oldest; the gap lists are compared after every op, at a small limit
// so that eviction and compaction also see the ties.
func TestPlacementEquivalenceEqualStarts(t *testing.T) {
	const capacity = 4
	rng := NewRNG(5)
	var ops []equivOp
	now := Time(0)
	for round := 0; round < 400; round++ {
		// Lockstep: one equal op per server at the same instant.
		for k := 0; k < capacity; k++ {
			ops = append(ops, equivOp{now: now, bytes: 100})
		}
		shared := now + 100*Nanosecond
		// One window per server from the shared frontier, with distinct
		// or equal ends.
		for k := 0; k < capacity; k++ {
			end := shared + Duration(rng.Intn(3)+1)*50*Nanosecond
			ops = append(ops, equivOp{now: end, bytes: 10})
		}
		// Probes at and just after the shared start.
		for k := 0; k < 3; k++ {
			ops = append(ops, equivOp{now: shared + Duration(rng.Intn(3))*Nanosecond, bytes: rng.Intn(20) + 1})
		}
		now = shared + 400*Nanosecond
	}
	equivRun(t, equivConfig{capacity: capacity, bytesPerSec: 1e9}, ops, 64)
	equivRun(t, equivConfig{capacity: capacity, bytesPerSec: 1e9, limit: 48}, ops, 1)
}

// TestPlacementEquivalenceBoundaryPatterns hits the structural edges of
// gapTable: exact-fit consumes, zero-length remainders, eviction while
// splitting, and repeated Reset.
func TestPlacementEquivalenceBoundaryPatterns(t *testing.T) {
	// Exact fits: every backfill consumes a whole gap (no remainders).
	ops := []equivOp{
		{now: Microsecond, bytes: 1000},  // gap [0, 1us)
		{now: 0, bytes: 1000},            // consumes it exactly
		{now: 3 * Microsecond, bytes: 0}, // overhead-free
		{now: 2 * Microsecond, occupy: Microsecond},
	}
	equivRun(t, equivConfig{capacity: 1, bytesPerSec: 1e9}, ops, 0)

	// Eviction pressure with splits: fill past maxGaps, then split many.
	rng := NewRNG(7)
	long := make([]equivOp, 0, 3*maxGaps)
	now := Time(0)
	for i := 0; i < 2*maxGaps; i++ {
		now += 2 * Microsecond
		long = append(long, equivOp{now: now, bytes: 64})
	}
	for i := 0; i < maxGaps; i++ {
		long = append(long, equivOp{now: Duration(rng.Intn(int(now))), bytes: rng.Intn(512) + 1})
	}
	equivRun(t, equivConfig{capacity: 2, overhead: 10 * Nanosecond, bytesPerSec: 8e9, propagation: 50 * Nanosecond}, long, 0)
}

// FuzzPlacementEquivalence decodes bytes into an Acquire/Occupy stream
// and checks it start-for-start against linearResource. The header
// picks the capacity, the gap-table limit (small limits reach eviction
// and compaction within a short input) and the service rates; each
// following 4-byte group is one op.
func FuzzPlacementEquivalence(f *testing.F) {
	f.Add([]byte{0, 255, 1, 0x01, 10, 0, 100, 0x02, 0, 0, 50})
	f.Add([]byte{5, 20, 2, 0x01, 200, 1, 0, 0x06, 40, 0, 5, 0x03, 0, 0, 9, 0x05, 1, 2, 3})
	f.Add([]byte{3, 3, 0, 0x01, 1, 0, 1, 0x01, 1, 0, 1, 0x02, 2, 0, 1, 0x07, 0, 0, 0})
	f.Fuzz(func(t *testing.T, b []byte) {
		if len(b) < 3 {
			return
		}
		cfg := equivConfig{
			capacity: 1 + int(b[0]%8),
			limit:    1 + int(b[1]),
			overhead: Duration(b[2]>>2) * Nanosecond,
		}
		cfg.bytesPerSec = [...]float64{0, 1e9, 16e9, 64e9}[b[2]&3]
		if cfg.bytesPerSec == 0 && cfg.overhead == 0 {
			cfg.overhead = Nanosecond
		}
		var ops []equivOp
		now := 100 * Microsecond
		for p := b[3:]; len(p) >= 4; p = p[4:] {
			arg := Duration(p[1])
			switch p[0] & 3 {
			case 0: // same instant
			case 1: // small step forward
				now += arg * 10 * Picosecond
			case 2: // leap forward
				now += arg * 100 * Nanosecond
			case 3: // backdated, as a later request walked at an earlier time
				now = max(0, now-arg*200*Nanosecond)
			}
			size := int(p[2])<<8 | int(p[3])
			if p[0]&4 != 0 {
				ops = append(ops, equivOp{now: now, occupy: Duration(size) * Picosecond * 100})
			} else {
				ops = append(ops, equivOp{now: now, bytes: size})
			}
		}
		equivRun(t, cfg, ops, 1)
	})
}

func TestResourceResetClearsGapTable(t *testing.T) {
	r := NewResource("x", 1, 0, 1e9, 0)
	r.Acquire(Microsecond, 100) // opens gap [0, 1us)
	if r.gaps.live != 1 {
		t.Fatalf("live gaps=%d, want 1", r.gaps.live)
	}
	r.Reset()
	if r.gaps.live != 0 {
		t.Fatalf("Reset left %d gaps", r.gaps.live)
	}
	// Post-reset behaviour matches a fresh resource.
	s, _ := r.Acquire(0, 100)
	if s != 0 {
		t.Fatalf("post-reset start=%v", s)
	}
}
