package lsm

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"sort"
	"testing"

	"rambda/internal/memspace"
	"rambda/internal/sim"
)

// referenceMerge is the map-then-sort compaction merge the k-way merge
// replaced, kept as the oracle: replay the runs oldest first into a map
// where a record overwrites only a lower-sequence one, drop tombstones
// at the bottom, sort the keys, and serialize. It returns the run bytes
// compactState must produce.
func referenceMerge(runs []*sstable, bottom bool) []byte {
	merged := map[string]entry{}
	for _, t := range runs {
		for i, k := range t.keys {
			val, seq, tomb, _, _ := t.record(i)
			if old, ok := merged[k]; ok && old.seq > seq {
				continue
			}
			merged[k] = entry{seq: seq, val: append([]byte(nil), val...), tombstone: tomb}
		}
	}
	if bottom {
		for k, e := range merged {
			if e.tombstone {
				delete(merged, k)
			}
		}
	}
	keys := make([]string, 0, len(merged))
	for k := range merged {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]byte, sstHdr)
	binary.LittleEndian.PutUint32(out[0:4], sstMagic)
	binary.LittleEndian.PutUint32(out[4:8], uint32(len(keys)))
	for _, k := range keys {
		e := merged[k]
		rec := make([]byte, recordBytes(k, e.val))
		putRecordHdr(rec, len(k), len(e.val), e.seq, e.tombstone)
		copy(rec[recordHdr:], k)
		copy(rec[recordHdr+len(k):], e.val)
		out = append(out, rec...)
	}
	return out
}

// randomRun builds a run over a random subset of a shared key universe,
// so runs overlap. Sequence numbers come from a shuffled pool (unique
// across runs, in no particular run order) and ~1/4 of the records are
// tombstones.
func randomRun(db *DB, rng *sim.RNG, name string, seqs *[]uint64) *sstable {
	type rec struct {
		key  string
		val  []byte
		seq  uint64
		tomb bool
	}
	var recs []rec
	size := sstHdr
	for k := 0; k < 120; k++ {
		if rng.Intn(3) != 0 {
			continue
		}
		r := rec{key: fmt.Sprintf("key-%03d", k), seq: (*seqs)[0], tomb: rng.Intn(4) == 0}
		*seqs = (*seqs)[1:]
		if !r.tomb {
			r.val = make([]byte, rng.Intn(24))
			for i := range r.val {
				r.val[i] = byte('a' + rng.Intn(26))
			}
		}
		recs = append(recs, r)
		size += recordBytes(r.key, r.val)
	}
	t := newSSTable(db.space, name, db.cfg.SSTableBytes, len(recs), size)
	for _, r := range recs {
		t.append(r.key, r.val, r.seq, r.tomb)
	}
	return t
}

// TestCompactionMatchesMapMerge is the compaction oracle: random
// overlapping runs with tombstones, compacted at a middle level (which
// keeps tombstones) and into the bottom level (which drops them), must
// serialize byte for byte to what the map-then-sort merge produces,
// with the pending NVM write sized to match.
func TestCompactionMatchesMapMerge(t *testing.T) {
	cfg := Config{MemtableBytes: 1 << 10, L0Runs: 4, SSTableBytes: 1 << 20, WALBytes: 4 << 10, MaxLevels: 4}
	for seed := uint64(1); seed <= 20; seed++ {
		for _, li := range []int{1, 2} { // 2 compacts into the bottom level
			bottom := li+1 == cfg.MaxLevels-1
			db, _, _ := newDB(t, cfg)
			rng := sim.NewRNG(seed)
			seqs := make([]uint64, 1024)
			for i := range seqs {
				seqs[i] = uint64(i + 1)
			}
			for i := len(seqs) - 1; i > 0; i-- {
				j := rng.Intn(i + 1)
				seqs[i], seqs[j] = seqs[j], seqs[i]
			}
			below := randomRun(db, rng, "below", &seqs)
			var inputs []*sstable
			if seed%5 != 0 { // some cases compact into an empty level
				db.levels[li+1] = []*sstable{below}
				inputs = append(inputs, below)
			}
			for r := 0; r < 3; r++ {
				run := randomRun(db, rng, fmt.Sprintf("l%d-%d", li, r), &seqs)
				db.levels[li] = append(db.levels[li], run)
				inputs = append(inputs, run)
			}
			want := referenceMerge(inputs, bottom)

			db.compactState(li)
			if len(db.levels[li]) != 0 || len(db.levels[li+1]) != 1 {
				t.Fatalf("seed %d level %d: runs per level %v after compaction", seed, li, db.Stats().Runs)
			}
			got := db.levels[li+1][0]
			if got.size != len(want) || !bytes.Equal(got.region.Bytes()[:got.size], want) {
				t.Fatalf("seed %d level %d (bottom=%v): merged run (%d B) differs from the map merge (%d B)",
					seed, li, bottom, got.size, len(want))
			}
			if db.PendingBytes() != len(want) {
				t.Fatalf("seed %d level %d: pending write %d B, run is %d B", seed, li, db.PendingBytes(), len(want))
			}
			reopened, err := openSSTable(got.region)
			if err != nil || fmt.Sprint(reopened.keys, reopened.seqs) != fmt.Sprint(got.keys, got.seqs) {
				t.Fatalf("seed %d level %d: index does not match the region (%v)", seed, li, err)
			}
		}
	}
}

// TestRunReservesCapacity pins the run layout: a run backs only the
// bytes it holds but reserves its full capacity, so the next region
// starts where it would if the whole capacity were backed.
func TestRunReservesCapacity(t *testing.T) {
	db, space, _ := newDB(t, smallConfig())
	now := sim.Time(0)
	for i := 0; i < 10; i++ {
		now, _ = db.Put(now, fmt.Sprintf("key-%03d", i), []byte("v"))
	}
	db.Flush(now)
	run := db.levels[0][0]
	if run.region.Size >= smallConfig().SSTableBytes {
		t.Fatalf("run backs %d B, want only the %d B it holds", run.region.Size, run.size)
	}
	next := space.Alloc("after", 64, memspace.KindDRAM)
	if next.Base != run.region.Base+memspace.Addr(smallConfig().SSTableBytes) {
		t.Fatalf("next region at %#x, want run base %#x + capacity %d",
			next.Base, run.region.Base, smallConfig().SSTableBytes)
	}
}
