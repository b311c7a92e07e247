package sim

import "math/bits"

// gapTable remembers a resource's backfillable idle windows and answers
// Resource.place's lookup exactly as the original linear scan over an
// age-ordered gap list did (placement_equiv_test.go pins the
// equivalence):
//
//   - the winner for (now, occupy) is the age-earliest gap among those
//     reaching the smallest feasible start s = max(now, g.start),
//     subject to s+occupy <= g.end;
//   - a consumed gap is replaced by its left then its right remainder,
//     each recorded as the newest gap;
//   - recording a gap into a full table first drops the oldest gap.
//
// The table has two parts. The age list gives every recorded gap a
// slot, handed out in increasing order, and keeps only a liveness bit
// per slot: that is all the drop-oldest rule needs. The index holds the
// gaps themselves, ordered by (start, slot), in 64-entry blocks whose
// headers sit in one contiguous array. A new gap always has the largest
// slot, so it goes after every indexed gap with an equal or smaller
// start, and ties on start stay in age order without comparing slots.
//
// Lookup follows from the rule. Any gap starting at or before now that
// is feasible starts at s == now, the least start possible, so the
// winner is the oldest such covering gap if one exists. The search
// finds the first entry starting after now and walks backward; each
// header carries the running max of block ends up to that block, so the
// walk stops as soon as no earlier gap can reach now+occupy. Each
// server's idle windows are disjoint, so at most capacity live gaps
// cover now. Otherwise every feasible gap starts after now at
// s == g.start, and the winner is the first entry in index order, from
// now on, whose length is at least occupy.
//
// Two choices keep updates cheap. A split writes its first remainder
// over the consumed entry when that keeps the order, so a backfill
// usually moves no entries. Eviction is lazy: dropping the oldest gap
// clears its liveness bit and leaves its entry in the index as a zombie
// that searches skip. Every entry, live or zombie, holds a distinct
// slot, and slots run to 1.5x the live limit, which bounds the index.
// When they run out, compact renumbers the live slots in age order and
// sweeps the zombies, so that cost amortizes over at least limit/2
// recordings.
type gapTable struct {
	limit  int                   // live gaps kept: maxGaps (tests shrink it)
	alive  [gapSlots / 64]uint64 // liveness bit per slot
	head   int                   // no live slot below head
	tail   int                   // next slot to hand out
	live   int                   // live gaps
	maxLen Duration              // upper bound on indexed gap length

	hdr  []gapHdr   // index blocks in (start, slot) order
	pool []gapChunk // entry storage, one chunk per block
	free []int32    // pool chunks no block uses
}

// gapHdr describes one index block. first is exact; maxEnd, maxLen and
// runEnd are upper bounds (removals leave them loose until the block is
// split or the table compacts), which can only cost a fruitless scan,
// never change the winner.
type gapHdr struct {
	first  Time     // start of the block's first entry
	maxEnd Time     // largest end in the block
	runEnd Time     // largest end in this block and every earlier one
	maxLen Duration // longest gap in the block
	n      int32    // entries in use
	chunk  int32    // index into pool
}

const (
	gapBlockShift = 6 // 64 entries per index block
	gapBlockSize  = 1 << gapBlockShift

	gapSlots = maxGaps + maxGaps/2 // age slots at the maxGaps limit
)

// gapChunk stores one block's entries as parallel arrays, so the
// backward walk reads only ends and slots.
type gapChunk struct {
	start [gapBlockSize]Time
	end   [gapBlockSize]Time
	slot  [gapBlockSize]uint16
}

func (t *gapTable) isLive(slot uint16) bool {
	return t.alive[slot>>6]>>(slot&63)&1 != 0
}

// add records [start, end) as the newest gap.
func (t *gapTable) add(start, end Time) {
	t.insert(start, end, t.newSlot())
}

// newSlot hands out the next age slot, dropping the oldest live gap
// first when the table is full and renumbering when slots run out.
func (t *gapTable) newSlot() uint16 {
	if t.live >= t.limit {
		t.evictOldest()
	}
	if t.tail == t.limit+t.limit/2 {
		t.compact()
	}
	s := t.tail
	t.tail++
	t.live++
	t.alive[s>>6] |= 1 << (s & 63)
	return uint16(s)
}

// evictOldest clears the oldest live slot. Its index entry stays behind
// as a zombie.
func (t *gapTable) evictOldest() {
	w := t.head >> 6
	word := t.alive[w] &^ (1<<(t.head&63) - 1)
	for word == 0 {
		w++
		word = t.alive[w]
	}
	s := w<<6 + bits.TrailingZeros64(word)
	t.alive[w] &^= 1 << (s & 63)
	t.head = s + 1
	t.live--
}

// backfill places an operation of length occupy arriving at now into
// the winning gap, records the gap's remainders, and returns the start.
// ok is false when no gap fits.
func (t *gapTable) backfill(now Time, occupy Duration) (start Time, ok bool) {
	b, i := t.search(now, occupy)
	if b < 0 {
		return 0, false
	}
	c := &t.pool[t.hdr[b].chunk]
	gs, ge, slot := c.start[i], c.end[i], c.slot[i]
	start = now
	if gs > now {
		start = gs
	}
	t.alive[slot>>6] &^= 1 << (slot & 63)
	t.live--

	var rem [2]gap
	k := 0
	if start > gs {
		rem[k] = gap{gs, start}
		k++
	}
	if start+occupy < ge {
		rem[k] = gap{start + occupy, ge}
		k++
	}
	if k == 0 {
		t.removeAt(b, i)
		return start, true
	}
	for j, g := range rem[:k] {
		tail := t.tail
		s := t.newSlot()
		// A compaction in newSlot swept the consumed entry, so (b, i)
		// is only meaningful for the first remainder without one.
		if j == 0 && int(s) == tail {
			if t.precedesNext(b, i, g.start) {
				// The remainder lies inside the consumed gap and sorts
				// before the next entry, so it takes the consumed
				// entry's place; the block's bounds stay valid.
				c.start[i], c.end[i], c.slot[i] = g.start, g.end, s
				if i == 0 {
					t.hdr[b].first = g.start
				}
				continue
			}
			t.removeAt(b, i)
		}
		t.insert(g.start, g.end, s)
	}
	return start, true
}

// precedesNext reports whether a new entry starting at start would sort
// right after the entries before (b, i): the entry following (b, i),
// if any, must start strictly later.
func (t *gapTable) precedesNext(b, i int, start Time) bool {
	h := &t.hdr[b]
	if i+1 < int(h.n) {
		return t.pool[h.chunk].start[i+1] > start
	}
	return b+1 == len(t.hdr) || t.hdr[b+1].first > start
}

// search returns the index position (block, offset) of the winning gap
// for an operation of length occupy arriving at now, or block -1.
func (t *gapTable) search(now Time, occupy Duration) (blk, off int) {
	nb := len(t.hdr)
	target := now + occupy
	if nb == 0 || occupy > t.maxLen || t.hdr[nb-1].runEnd < target {
		return -1, 0
	}
	// The entries starting at or before now end in block b0, at
	// offset hi.
	b0, hi := t.blockAfter(now)-1, 0
	if b0 >= 0 {
		h := &t.hdr[b0]
		c := &t.pool[h.chunk]
		hi = int(h.n)
		for hi > 0 && c.start[hi-1] > now {
			hi--
		}
	}

	// Backward: the oldest live gap covering [now, target).
	bestB, bestI, bestSlot := -1, 0, uint16(0)
	for b, n := b0, hi; b >= 0; b-- {
		h := &t.hdr[b]
		if h.runEnd < target {
			break
		}
		if b != b0 {
			n = int(h.n)
		}
		if h.maxEnd < target {
			continue
		}
		c := &t.pool[h.chunk]
		for i := n - 1; i >= 0; i-- {
			if c.end[i] < target {
				continue
			}
			if s := c.slot[i]; (bestB < 0 || s < bestSlot) && t.isLive(s) {
				bestB, bestI, bestSlot = b, i, s
			}
		}
	}
	if bestB >= 0 {
		return bestB, bestI
	}

	// Forward: the first live gap starting after now that is long
	// enough. Entries at equal start sit in age order.
	b, i := b0, hi
	if b < 0 {
		b = 0
	}
	for ; b < nb; b, i = b+1, 0 {
		h := &t.hdr[b]
		if h.maxLen < occupy || h.maxEnd < target {
			continue
		}
		c := &t.pool[h.chunk]
		for n := int(h.n); i < n; i++ {
			if c.end[i]-c.start[i] >= occupy && t.isLive(c.slot[i]) {
				return b, i
			}
		}
	}
	return -1, 0
}

// blockAfter returns the index of the first block starting after at.
func (t *gapTable) blockAfter(at Time) int {
	lo, hi := 0, len(t.hdr)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if t.hdr[m].first <= at {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

// insert places an entry after every indexed entry starting at or
// before start.
func (t *gapTable) insert(start, end Time, slot uint16) {
	if len(t.hdr) == 0 {
		c := t.newChunk()
		t.hdr = append(t.hdr, gapHdr{chunk: c})
	}
	b := max(t.blockAfter(start)-1, 0) // last block starting at or before start
	h := &t.hdr[b]
	c := &t.pool[h.chunk]
	i := int(h.n)
	for i > 0 && c.start[i-1] > start {
		i--
	}
	if h.n == gapBlockSize {
		if i == gapBlockSize && b == len(t.hdr)-1 {
			// Appending past the last full block: open a fresh block
			// rather than leaving two half-full ones behind.
			t.openBlock(b+1, t.newChunk())
			b, i = b+1, 0
		} else {
			t.split(b)
			if i > gapBlockSize/2 {
				b, i = b+1, i-gapBlockSize/2
			}
		}
		h = &t.hdr[b]
		c = &t.pool[h.chunk]
	}
	n := int(h.n)
	copy(c.start[i+1:n+1], c.start[i:n])
	copy(c.end[i+1:n+1], c.end[i:n])
	copy(c.slot[i+1:n+1], c.slot[i:n])
	c.start[i], c.end[i], c.slot[i] = start, end, slot
	h.n++
	if i == 0 {
		h.first = start
	}
	if end > h.maxEnd {
		h.maxEnd = end
	}
	if l := end - start; l > h.maxLen {
		h.maxLen = l
		if l > t.maxLen {
			t.maxLen = l
		}
	}
	for k := b; k < len(t.hdr) && t.hdr[k].runEnd < end; k++ {
		t.hdr[k].runEnd = end
	}
}

// removeAt deletes the entry at (b, i), dropping the block if it
// empties.
func (t *gapTable) removeAt(b, i int) {
	h := &t.hdr[b]
	c := &t.pool[h.chunk]
	n := int(h.n)
	copy(c.start[i:n-1], c.start[i+1:n])
	copy(c.end[i:n-1], c.end[i+1:n])
	copy(c.slot[i:n-1], c.slot[i+1:n])
	h.n--
	switch {
	case h.n == 0:
		t.free = append(t.free, h.chunk)
		t.hdr = append(t.hdr[:b], t.hdr[b+1:]...)
	case i == 0:
		h.first = c.start[0]
	}
}

// openBlock inserts an empty block using chunk at header position b.
func (t *gapTable) openBlock(b int, chunk int32) {
	t.hdr = append(t.hdr, gapHdr{})
	copy(t.hdr[b+1:], t.hdr[b:])
	t.hdr[b] = gapHdr{chunk: chunk}
	if b > 0 {
		t.hdr[b].runEnd = t.hdr[b-1].runEnd
	}
}

// split moves the upper half of full block b into a new block b+1 and
// recomputes both blocks' bounds exactly.
func (t *gapTable) split(b int) {
	const half = gapBlockSize / 2
	t.openBlock(b+1, t.newChunk())
	src := &t.pool[t.hdr[b].chunk]
	dst := &t.pool[t.hdr[b+1].chunk]
	copy(dst.start[:], src.start[half:])
	copy(dst.end[:], src.end[half:])
	copy(dst.slot[:], src.slot[half:])
	t.hdr[b].n, t.hdr[b+1].n = half, half
	t.summarize(b)
	t.summarize(b + 1)
}

// summarize recomputes block b's bounds from its entries, taking the
// running end from block b-1.
func (t *gapTable) summarize(b int) {
	h := &t.hdr[b]
	c := &t.pool[h.chunk]
	h.first, h.maxEnd, h.maxLen = c.start[0], 0, 0
	for i := 0; i < int(h.n); i++ {
		if c.end[i] > h.maxEnd {
			h.maxEnd = c.end[i]
		}
		if l := c.end[i] - c.start[i]; l > h.maxLen {
			h.maxLen = l
		}
	}
	h.runEnd = h.maxEnd
	if b > 0 && t.hdr[b-1].runEnd > h.runEnd {
		h.runEnd = t.hdr[b-1].runEnd
	}
}

// newChunk returns an unused pool chunk. A table that records only a
// few gaps keeps a 4-chunk pool; the first growth past that goes
// straight to the size a saturated table settles at, a little over
// gapSlots/gapBlockSize chunks (~124 KiB), so a busy table allocates
// once instead of leaving doubled copies behind for the GC.
func (t *gapTable) newChunk() int32 {
	if n := len(t.free); n > 0 {
		c := t.free[n-1]
		t.free = t.free[:n-1]
		return c
	}
	if c := cap(t.pool); len(t.pool) == c {
		const busy = gapSlots / gapBlockSize * 9 / 8
		next := 4
		switch {
		case c >= busy:
			next = c + c/2
		case c > 0:
			next = busy
		}
		grown := make([]gapChunk, len(t.pool), next)
		copy(grown, t.pool)
		t.pool = grown
		// Every block owns a chunk, so neither the headers nor the
		// (now empty) free list can outgrow the pool.
		t.hdr = append(make([]gapHdr, 0, next), t.hdr...)
		t.free = make([]int32, 0, next)
	}
	t.pool = t.pool[:len(t.pool)+1]
	return int32(len(t.pool) - 1)
}

// compact renumbers the live slots 0..live-1 in age order and rewrites
// the index without its zombies, packing full blocks. Entries only move
// toward the front in index order, so the sweep runs in place.
func (t *gapTable) compact() {
	var rank [len(t.alive)]int
	r := 0
	for w, word := range t.alive {
		rank[w] = r
		r += bits.OnesCount64(word)
	}
	w := 0
	var dst *gapChunk
	for b := range t.hdr {
		src := &t.pool[t.hdr[b].chunk]
		for i, n := 0, int(t.hdr[b].n); i < n; i++ {
			s := src.slot[i]
			word := t.alive[s>>6]
			if word>>(s&63)&1 == 0 {
				continue
			}
			o := w & (gapBlockSize - 1)
			if o == 0 {
				dst = &t.pool[t.hdr[w>>gapBlockShift].chunk]
			}
			dst.start[o], dst.end[o] = src.start[i], src.end[i]
			dst.slot[o] = uint16(rank[s>>6] + bits.OnesCount64(word&(1<<(s&63)-1)))
			w++
		}
	}
	nb := (w + gapBlockSize - 1) >> gapBlockShift
	for _, h := range t.hdr[nb:] {
		t.free = append(t.free, h.chunk)
	}
	t.hdr = t.hdr[:nb]
	t.maxLen = 0
	for b := range t.hdr {
		t.hdr[b].n = int32(min(gapBlockSize, w-b<<gapBlockShift))
		t.summarize(b)
		t.maxLen = max(t.maxLen, t.hdr[b].maxLen)
	}
	for i := range t.alive {
		t.alive[i] = 0
	}
	for s := 0; s < w; s++ {
		t.alive[s>>6] |= 1 << (s & 63)
	}
	t.head, t.tail, t.live = 0, w, w
}

// reset clears the table, keeping its storage.
func (t *gapTable) reset() {
	for _, h := range t.hdr {
		t.free = append(t.free, h.chunk)
	}
	t.hdr = t.hdr[:0]
	t.alive = [len(t.alive)]uint64{}
	t.head, t.tail, t.live, t.maxLen = 0, 0, 0, 0
}
