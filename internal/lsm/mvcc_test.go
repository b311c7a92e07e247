package lsm

import (
	"bytes"
	"fmt"
	"sort"
	"testing"

	"rambda/internal/kvs"
	"rambda/internal/sim"
)

// oracleState is a deep copy of the model at snapshot time: what a
// pinned Snapshot must keep answering forever, whatever the tree does
// afterwards.
type oracleState struct {
	data map[string]string
	keys []string // live keys, sorted
}

func captureOracle(model map[string]string) oracleState {
	st := oracleState{data: make(map[string]string, len(model))}
	for k, v := range model {
		st.data[k] = v
		st.keys = append(st.keys, k)
	}
	sort.Strings(st.keys)
	return st
}

// checkSnapshot asserts a pinned snapshot still answers exactly its
// frozen oracle: every live key reads its frozen value, a full forward
// scan yields the frozen sorted key set, and a reverse scan mirrors it.
func checkSnapshot(t *testing.T, tag string, snap *Snapshot, st oracleState) {
	t.Helper()
	for k, v := range st.data {
		got, ok := snap.Get(k)
		if !ok || string(got) != v {
			t.Fatalf("%s: key %q: snapshot reads %q ok=%v, frozen oracle has %q",
				tag, k, got, ok, v)
		}
	}
	var fwd []string
	snap.Scan("", 0, false, func(key string, val []byte) bool {
		fwd = append(fwd, key)
		if string(val) != st.data[key] {
			t.Fatalf("%s: scan key %q: %q, oracle %q", tag, key, val, st.data[key])
		}
		return true
	})
	if len(fwd) != len(st.keys) {
		t.Fatalf("%s: scan saw %d keys, oracle froze %d", tag, len(fwd), len(st.keys))
	}
	for i, k := range fwd {
		if k != st.keys[i] {
			t.Fatalf("%s: scan position %d is %q, want %q", tag, i, k, st.keys[i])
		}
	}
	var rev []string
	snap.Scan("", 0, true, func(key string, _ []byte) bool {
		rev = append(rev, key)
		return true
	})
	for i, k := range rev {
		if k != st.keys[len(st.keys)-1-i] {
			t.Fatalf("%s: reverse scan position %d is %q, want %q",
				tag, i, k, st.keys[len(st.keys)-1-i])
		}
	}
}

// TestSnapshotsFrozenUnderFlushAndCompaction is the MVCC property test:
// random puts and deletes run against a map oracle; snapshots pinned
// along the way — including immediately before forced flushes — must
// keep answering their frozen state exactly while later mutations drive
// flushes, L0 overflow, and multi-level compaction cascades underneath
// them.
func TestSnapshotsFrozenUnderFlushAndCompaction(t *testing.T) {
	db, _, _ := newDB(t, smallConfig())
	rng := sim.NewRNG(1234)
	model := map[string]string{}
	now := sim.Time(0)

	type pinned struct {
		tag  string
		snap *Snapshot
		st   oracleState
	}
	var pins []pinned
	pin := func(tag string) {
		pins = append(pins, pinned{tag, db.Snapshot(), captureOracle(model)})
	}

	const keys = 96
	for step := 0; step < 2200; step++ {
		k := fmt.Sprintf("key-%03d", rng.Intn(keys))
		switch rng.Intn(10) {
		case 0: // delete
			at, err := db.Delete(now, k)
			if err != nil {
				t.Fatal(err)
			}
			now = at
			delete(model, k)
		default:
			v := fmt.Sprintf("v-%05d", step)
			at, err := db.Put(now, k, []byte(v))
			if err != nil {
				t.Fatal(err)
			}
			now = at
			model[k] = v
		}
		if step%400 == 199 {
			pin(fmt.Sprintf("pin@%d", step))
			now = db.Flush(now) // flush immediately after pinning
		}
		if step%700 == 650 {
			pin(fmt.Sprintf("pin@%d", step))
		}
		// Every pinned snapshot must stay frozen at every step where the
		// tree just flushed or compacted.
		if step%500 == 499 {
			for _, p := range pins {
				checkSnapshot(t, p.tag, p.snap, p.st)
			}
		}
	}
	st := db.Stats()
	if st.Flushes == 0 || st.Compactions == 0 {
		t.Fatalf("workload too gentle: %d flushes, %d compactions — the property was not exercised",
			st.Flushes, st.Compactions)
	}
	for _, p := range pins {
		checkSnapshot(t, p.tag+"/final", p.snap, p.st)
	}
	// The live view must match the final oracle (sanity that snapshots
	// are not frozen because the whole tree is).
	checkSnapshot(t, "live", db.Snapshot(), captureOracle(model))
}

// TestSnapshotIgnoresLaterWrites pins the visibility rule directly: a
// write after the snapshot — to an existing key or a new one — is
// invisible, even after it is flushed into the runs the snapshot pinned
// a view over.
func TestSnapshotIgnoresLaterWrites(t *testing.T) {
	db, _, _ := newDB(t, smallConfig())
	now, err := db.Put(0, "a", []byte("old"))
	if err != nil {
		t.Fatal(err)
	}
	snap := db.Snapshot()
	if now, err = db.Put(now, "a", []byte("new")); err != nil {
		t.Fatal(err)
	}
	if now, err = db.Put(now, "b", []byte("born-later")); err != nil {
		t.Fatal(err)
	}
	now = db.Flush(now)
	if _, err = db.Delete(now, "a"); err != nil {
		t.Fatal(err)
	}
	if v, ok := snap.Get("a"); !ok || string(v) != "old" {
		t.Fatalf("snapshot reads %q ok=%v, want frozen \"old\"", v, ok)
	}
	if _, ok := snap.Get("b"); ok {
		t.Fatal("snapshot sees a key born after it")
	}
	n := snap.Scan("", 0, false, func(key string, val []byte) bool {
		if key != "a" || string(val) != "old" {
			t.Fatalf("snapshot scan yields %q=%q", key, val)
		}
		return true
	})
	if n != 1 {
		t.Fatalf("snapshot scan visited %d keys, want 1", n)
	}
}

// TestScanIntoMergedAcrossTiers drives the Backend range scan while
// versions of the same keys sit in the memtable, L0, and deeper levels
// at once: key order, newest-wins, tombstone hiding, start-key
// inclusivity, limits, and reverse order all hold, and the probes are
// charged to the access trace.
func TestScanIntoMergedAcrossTiers(t *testing.T) {
	db, _, _ := newDB(t, smallConfig())
	now := sim.Time(0)
	put := func(k, v string) {
		at, err := db.Put(now, k, []byte(v))
		if err != nil {
			t.Fatal(err)
		}
		now = at
	}
	const n = 40
	// Three generations: the oldest lands in deep runs, the middle in
	// L0, the newest stays in the memtable. Generation g overwrites
	// every g-th key, so each tier holds the newest version of some keys.
	for g := 1; g <= 3; g++ {
		for i := 0; i < n; i++ {
			if i%g == 0 {
				put(fmt.Sprintf("key-%03d", i), fmt.Sprintf("gen%d-%03d", g, i))
			}
		}
		if g < 3 {
			now = db.Flush(now)
		}
	}
	// Tombstone a few keys from the memtable generation.
	for _, i := range []int{0, 6, 12} {
		at, err := db.Delete(now, fmt.Sprintf("key-%03d", i))
		if err != nil {
			t.Fatal(err)
		}
		now = at
	}
	want := map[string]string{}
	for i := 0; i < n; i++ {
		g := 1
		if i%2 == 0 {
			g = 2
		}
		if i%3 == 0 {
			g = 3
		}
		if i == 0 || i == 6 || i == 12 {
			continue
		}
		want[fmt.Sprintf("key-%03d", i)] = fmt.Sprintf("gen%d-%03d", g, i)
	}

	buf, pairs, trace := db.ScanInto(nil, nil, nil, nil, len(want)+10, false)
	if len(trace) == 0 {
		t.Fatal("merged scan charged no accesses")
	}
	if len(pairs) != len(want) {
		t.Fatalf("scan yielded %d pairs, want %d", len(pairs), len(want))
	}
	prev := ""
	for _, p := range pairs {
		k, v := string(p.Key(buf)), string(p.Val(buf))
		if k <= prev {
			t.Fatalf("keys out of order: %q after %q", k, prev)
		}
		if want[k] != v {
			t.Fatalf("key %q: %q, want %q (newest version must win)", k, v, want[k])
		}
		prev = k
	}

	// Start key inclusive + limit.
	buf2, pairs2, _ := db.ScanInto(nil, nil, nil, []byte("key-010"), 5, false)
	if len(pairs2) != 5 || string(pairs2[0].Key(buf2)) != "key-010" {
		t.Fatalf("bounded scan starts at %q with %d pairs", pairs2[0].Key(buf2), len(pairs2))
	}
	// Reverse from the same start walks downward.
	buf3, pairs3, _ := db.ScanInto(nil, nil, nil, []byte("key-010"), 5, true)
	if string(pairs3[0].Key(buf3)) != "key-010" {
		t.Fatalf("reverse scan starts at %q", pairs3[0].Key(buf3))
	}
	for i := 1; i < len(pairs3); i++ {
		if string(pairs3[i].Key(buf3)) >= string(pairs3[i-1].Key(buf3)) {
			t.Fatal("reverse scan not descending")
		}
	}
}

// TestRecoveryMidFlushCut crashes the DB at the worst moment the WAL
// discipline allows: new writes have landed in the WAL after a flush,
// and the crash cuts the durable prefix mid-record. Recovery must keep
// the flushed runs, replay the intact tail records, discard the torn
// one, and resume the sequence counter so post-recovery writes still
// win over every recovered version.
func TestRecoveryMidFlushCut(t *testing.T) {
	db, space, mem := newDB(t, smallConfig())
	now := sim.Time(0)
	for i := 0; i < 30; i++ {
		at, err := db.Put(now, fmt.Sprintf("key-%03d", i), []byte(fmt.Sprintf("flushed-%03d", i)))
		if err != nil {
			t.Fatal(err)
		}
		now = at
	}
	now = db.Flush(now)
	// Post-flush writes: these exist only in the WAL.
	for i := 0; i < 8; i++ {
		at, err := db.Put(now, fmt.Sprintf("key-%03d", i), []byte(fmt.Sprintf("walonly-%03d", i)))
		if err != nil {
			t.Fatal(err)
		}
		now = at
	}
	wal, walValid := db.WAL()
	preSeq := db.Stats().Seq

	// Cut mid-record: the last record loses its tail.
	re, err := Recover(space, mem, smallConfig(), wal, walValid-3, db.Runs())
	if err != nil {
		t.Fatal(err)
	}
	if got := re.Stats().Seq; got < preSeq-1 || got > preSeq {
		t.Fatalf("recovered seq %d, want %d or %d", got, preSeq-1, preSeq)
	}
	snap := re.Snapshot()
	for i := 0; i < 30; i++ {
		k := fmt.Sprintf("key-%03d", i)
		want := fmt.Sprintf("flushed-%03d", i)
		if i < 7 { // 8 WAL records, last one torn off
			want = fmt.Sprintf("walonly-%03d", i)
		}
		v, ok := snap.Get(k)
		if !ok || string(v) != want {
			t.Fatalf("key %q after recovery: %q ok=%v, want %q", k, v, ok, want)
		}
	}
	// The sequence counter resumed: a new write beats its recovered
	// version even for the key whose record was torn.
	if _, err := re.Put(0, "key-007", []byte("post-recovery")); err != nil {
		t.Fatal(err)
	}
	if v, _, ok := re.Get(0, "key-007"); !ok || string(v) != "post-recovery" {
		t.Fatalf("post-recovery write lost: read %q ok=%v", v, ok)
	}
}

// TestMaintainStallsOnWALWrap pins the write-stall accounting on the
// Backend path: filling the WAL forces a synchronous flush whose NVM
// drain Maintain reports as a stall, and the stall counter moves.
func TestMaintainStallsOnWALWrap(t *testing.T) {
	// WAL smaller than the memtable: the log wraps (and forces a
	// synchronous flush) before the memtable fills on its own.
	db, _, _ := newDB(t, Config{
		MemtableBytes: 8 << 10,
		L0Runs:        2,
		SSTableBytes:  8 << 10,
		WALBytes:      1 << 10,
		MaxLevels:     3,
	})
	val := bytes.Repeat([]byte{'v'}, 64)
	var trace []kvs.Access
	var key []byte
	sawStall := false
	for i := 0; i < 200; i++ {
		key = append(key[:0], fmt.Sprintf("key-%03d", i%32)...)
		tr, err := db.PutInto(trace[:0], key, val)
		if err != nil {
			t.Fatal(err)
		}
		trace = tr
		if len(trace) == 0 {
			t.Fatal("PutInto charged no accesses")
		}
		if at, stalled := db.Maintain(sim.Time(i)); stalled {
			sawStall = true
			if at <= sim.Time(i) {
				t.Fatalf("stall resolved at %v, not after now %v", at, sim.Time(i))
			}
		}
	}
	if !sawStall {
		t.Fatal("WAL never wrapped: stall path not exercised")
	}
	if db.Stats().Stalls == 0 {
		t.Fatal("stall counter did not move")
	}
}

// TestApplyScratchOverLSM drives decoded wire requests over the LSM
// backend through the same dispatch the serving handler uses — the
// api_redesign contract that hash and LSM are interchangeable behind
// kvs.Backend — including an OpScan answered in key order.
func TestApplyScratchOverLSM(t *testing.T) {
	db, _, _ := newDB(t, Config{
		MemtableBytes: 8 << 10,
		L0Runs:        2,
		SSTableBytes:  64 << 10,
		WALBytes:      32 << 10,
		MaxLevels:     3,
	})
	var sc kvs.Scratch
	do := func(r kvs.Request) kvs.Response {
		req, err := kvs.DecodeRequest(kvs.AppendRequest(nil, r))
		if err != nil {
			t.Fatal(err)
		}
		resp, trace := kvs.ApplyScratch(db, req, &sc)
		if resp.Status == kvs.StatusOK && len(trace) == 0 {
			t.Fatalf("op %d: no accesses charged", r.Op)
		}
		return resp
	}
	for i := 0; i < 50; i++ {
		resp := do(kvs.Request{Op: kvs.OpPut,
			Key: []byte(fmt.Sprintf("key-%03d", i)), Val: []byte(fmt.Sprintf("val-%03d", i))})
		if resp.Status != kvs.StatusOK {
			t.Fatalf("put %d: status %d", i, resp.Status)
		}
	}
	db.Flush(0)
	if resp := do(kvs.Request{Op: kvs.OpGet, Key: []byte("key-017")}); resp.Status != kvs.StatusOK ||
		string(resp.Val) != "val-017" {
		t.Fatalf("get: %d %q", resp.Status, resp.Val)
	}
	if resp := do(kvs.Request{Op: kvs.OpDelete, Key: []byte("key-017")}); resp.Status != kvs.StatusOK {
		t.Fatalf("delete: %d", resp.Status)
	}
	if resp := do(kvs.Request{Op: kvs.OpGet, Key: []byte("key-017")}); resp.Status != kvs.StatusNotFound {
		t.Fatalf("get after delete: %d", resp.Status)
	}
	if resp := do(kvs.Request{Op: kvs.OpScan, Key: []byte("key-015"), ScanLimit: 4}); resp.Status != kvs.StatusOK {
		t.Fatalf("scan: %d", resp.Status)
	}
	wantKeys := []string{"key-015", "key-016", "key-018", "key-019"} // 017 deleted
	if len(sc.ScanPairs) != len(wantKeys) {
		t.Fatalf("scan yielded %d pairs, want %d", len(sc.ScanPairs), len(wantKeys))
	}
	for i, p := range sc.ScanPairs {
		if got := string(p.Key(sc.ScanBuf)); got != wantKeys[i] {
			t.Fatalf("scan pair %d: %q, want %q", i, got, wantKeys[i])
		}
	}
}

// TestSnapshotScanFrozenUnderInserts runs a snapshot scan while the
// callback keeps writing to the live tree: each step inserts keys that
// sort before the cursor, right after it (between it and the next
// pinned key), and after every pinned key, overwrites a key the scan
// has yet to reach, and halfway through forces a flush. The memtable's
// skiplist gains nodes around the scan's cursor, then is swapped out
// under it; the scan must still yield exactly the pinned pairs, in
// order, both forward and in reverse.
func TestSnapshotScanFrozenUnderInserts(t *testing.T) {
	for _, reverse := range []bool{false, true} {
		cfg := smallConfig()
		cfg.MemtableBytes = 64 << 10 // only the forced flush empties the memtable
		cfg.WALBytes = 64 << 10
		db, _, _ := newDB(t, cfg)
		now := sim.Time(0)
		put := func(k, v string) {
			at, err := db.Put(now, k, []byte(v))
			if err != nil {
				t.Fatal(err)
			}
			now = at
		}
		// Half the pinned keys sit in a run, half in the memtable.
		var pinned []string
		for i := 10; i < 50; i += 2 {
			k := fmt.Sprintf("k%03d", i)
			put(k, "pinned-"+k)
			pinned = append(pinned, k)
			if i == 30 {
				now = db.Flush(now)
			}
		}
		snap := db.Snapshot()

		var got []string
		step := 0
		snap.Scan("", 0, reverse, func(key string, val []byte) bool {
			if string(val) != "pinned-"+key {
				t.Fatalf("reverse=%v: %q reads %q, want its pinned value", reverse, key, val)
			}
			got = append(got, key)
			put(fmt.Sprintf("a%03d", step), "before")      // sorts before every key
			put(key+"x", "between")                        // right after the cursor
			put(fmt.Sprintf("z%03d", step), "after")       // sorts after every key
			put(pinned[(step+5)%len(pinned)], "rewritten") // a key not yet (or already) visited
			if step == len(pinned)/2 {
				now = db.Flush(now)
			}
			step++
			return true
		})
		want := append([]string(nil), pinned...)
		if reverse {
			sort.Sort(sort.Reverse(sort.StringSlice(want)))
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("reverse=%v: snapshot scan yielded %v, want the pinned %v", reverse, got, want)
		}
		// The live tree saw every write.
		if n := db.Snapshot().Scan("", 0, false, func(string, []byte) bool { return true }); n != 4*len(pinned) {
			t.Fatalf("reverse=%v: live tree holds %d keys, want %d", reverse, n, 4*len(pinned))
		}
	}
}
