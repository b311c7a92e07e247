package experiments

import (
	"bytes"
	"encoding/binary"
	"sync"
	"testing"

	"rambda/internal/kvs"
	"rambda/internal/memspace"
)

// TestPreloadStoreConcurrentCallersMatchFresh races preloadStore callers
// sharing one table, for one (Keys, ValueBytes), DRAM and accel-local
// mixed, against a fresh build: whichever caller builds the table's
// image and whichever replay it, every store must hold the same bytes
// and Stats.
func TestPreloadStoreConcurrentCallersMatchFresh(t *testing.T) {
	cfg := DefaultKVSConfig()
	cfg.Keys = 3000
	sh := newShared()
	type built struct {
		space *memspace.Space
		store *kvs.Store
		kind  memspace.Kind
	}
	got := make([]built, 8)
	var wg sync.WaitGroup
	for i := range got {
		kind := memspace.KindDRAM
		if i%2 == 1 {
			kind = memspace.KindAccelLocal
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			space := memspace.New()
			got[i] = built{space, preloadStore(space, kind, cfg, sh), kind}
		}(i)
	}
	wg.Wait()

	want := memspace.New()
	wantStore := kvs.New(want, kvs.Config{Buckets: cfg.Keys / 4, PoolBytes: uint64(cfg.Keys) * 160})
	for i := 0; i < cfg.Keys; i++ {
		val := make([]byte, cfg.ValueBytes)
		binary.LittleEndian.PutUint64(val, uint64(i))
		if _, err := wantStore.PutInto(nil, kvsKey(i), val); err != nil {
			t.Fatal(err)
		}
	}
	for i, b := range got {
		if b.store.Stats() != wantStore.Stats() {
			t.Fatalf("caller %d: stats %+v, want %+v", i, b.store.Stats(), wantStore.Stats())
		}
		regions, wantRegions := b.space.Regions(), want.Regions()
		if len(regions) != len(wantRegions) {
			t.Fatalf("caller %d: %d regions, want %d", i, len(regions), len(wantRegions))
		}
		for j, r := range regions {
			w := wantRegions[j]
			if r.Name != w.Name || r.Range != w.Range || r.Kind != b.kind {
				t.Fatalf("caller %d region %d: %s %+v %v, want %s %+v %v",
					i, j, r.Name, r.Range, r.Kind, w.Name, w.Range, b.kind)
			}
			if !bytes.Equal(r.Bytes(), w.Bytes()) {
				t.Fatalf("caller %d: region %s bytes differ from a fresh load", i, r.Name)
			}
		}
	}

	// A space that would place the store elsewhere falls back to a
	// fresh build there.
	space := memspace.New()
	space.Alloc("other", 64, memspace.KindDRAM)
	moved := preloadStore(space, memspace.KindDRAM, cfg, sh)
	if moved.IndexRange().Base == wantStore.IndexRange().Base || moved.Stats() != wantStore.Stats() {
		t.Fatalf("moved store: index %+v stats %+v", moved.IndexRange(), moved.Stats())
	}
	if val, _, ok := moved.GetInto(nil, nil, kvsKey(2999)); !ok || binary.LittleEndian.Uint64(val) != 2999 {
		t.Fatalf("moved store: GET key 2999 = %v, %v", val, ok)
	}
}

func TestIncKVSKeyCarries(t *testing.T) {
	for _, i := range []int{0, 8, 9, 99, 1234, 99999, 1<<18 - 1, 9999999999999} {
		key := kvsKey(i)
		incKVSKey(key)
		if want := kvsKey(i + 1); !bytes.Equal(key, want) {
			t.Fatalf("inc(%d) = %s, want %s", i, key, want)
		}
	}
}
