package kvs

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand/v2"
	"reflect"
	"testing"

	"rambda/internal/memspace"
)

// imageFill returns the i-th preload pair. Value lengths cycle through
// 20, 50 and 80 bytes, so items fall in the 64 B and 128 B slab classes.
func imageFill(i int) ([]byte, []byte) {
	key := []byte(fmt.Sprintf("user%014d", i))
	val := bytes.Repeat([]byte{byte(i)}, 20+30*(i%3))
	return key, val
}

// freshLoad builds a store with n PutInto calls of fill in a new space.
func freshLoad(t *testing.T, n int, fill func(int) ([]byte, []byte)) (*memspace.Space, *Store) {
	t.Helper()
	space := memspace.New()
	s := New(space, Config{Buckets: max(n/4, 1), PoolBytes: uint64(n)*160 + 4096, Kind: memspace.KindDRAM})
	var trace []Access
	for i := 0; i < n; i++ {
		k, v := fill(i)
		var err error
		if trace, err = s.PutInto(trace[:0], k, v); err != nil {
			t.Fatal(err)
		}
	}
	return space, s
}

// sameSpace fails unless the two spaces hold identical regions: names,
// kinds, ranges and bytes.
func sameSpace(t *testing.T, a, b *memspace.Space) {
	t.Helper()
	ra, rb := a.Regions(), b.Regions()
	if len(ra) != len(rb) {
		t.Fatalf("%d regions vs %d", len(ra), len(rb))
	}
	for i := range ra {
		if ra[i].Name != rb[i].Name || ra[i].Kind != rb[i].Kind || ra[i].Range != rb[i].Range {
			t.Fatalf("region %d: %s %v %+v vs %s %v %+v", i,
				ra[i].Name, ra[i].Kind, ra[i].Range, rb[i].Name, rb[i].Kind, rb[i].Range)
		}
		if !bytes.Equal(ra[i].Bytes(), rb[i].Bytes()) {
			t.Fatalf("region %s: bytes differ", ra[i].Name)
		}
	}
}

func TestImageReplayMatchesFreshLoad(t *testing.T) {
	for _, n := range []int{1, 7, 300, 4000} {
		t.Run(fmt.Sprint(n), func(t *testing.T) {
			freshSpace, fresh := freshLoad(t, n, imageFill)
			img, err := fresh.Image()
			if err != nil {
				t.Fatal(err)
			}
			if n >= 4000 && fresh.Stats().ChainedBuckets == 0 {
				t.Fatal("no chained buckets: the replay's chain path is untested")
			}
			space := memspace.New()
			replay, err := FromImage(space, memspace.KindDRAM, img, imageFill)
			if err != nil {
				t.Fatal(err)
			}
			sameSpace(t, freshSpace, space)
			if fresh.Stats() != replay.Stats() {
				t.Fatalf("stats %+v vs %+v", fresh.Stats(), replay.Stats())
			}
			if !reflect.DeepEqual(fresh.slab, replay.slab) || fresh.mask != replay.mask {
				t.Fatalf("slab %+v vs %+v", fresh.slab, replay.slab)
			}

			// A seeded stream afterwards: GETs (hits and misses), PUTs
			// that change size class and insert new keys, and DELETEs.
			rng := rand.New(rand.NewPCG(uint64(n), 1))
			var va, vb []byte
			var ta, tb []Access
			for op := 0; op < 3000; op++ {
				key := []byte(fmt.Sprintf("user%014d", rng.IntN(n+n/4+2)))
				ta, tb = ta[:0], tb[:0]
				var okA, okB bool
				var errA, errB error
				switch r := rng.IntN(10); {
				case r < 5:
					va, ta, okA = fresh.GetInto(va[:0], ta, key)
					vb, tb, okB = replay.GetInto(vb[:0], tb, key)
				case r < 8:
					val := make([]byte, 10+rng.IntN(200))
					ta, errA = fresh.PutInto(ta, key, val)
					tb, errB = replay.PutInto(tb, key, val)
				default:
					ta, okA = fresh.DeleteInto(ta, key)
					tb, okB = replay.DeleteInto(tb, key)
				}
				if okA != okB || !bytes.Equal(va, vb) || !reflect.DeepEqual(ta, tb) ||
					fmt.Sprint(errA) != fmt.Sprint(errB) {
					t.Fatalf("op %d on %q diverged: ok %v/%v err %v/%v trace %v vs %v",
						op, key, okA, okB, errA, errB, ta, tb)
				}
			}
			sameSpace(t, freshSpace, space)
			if fresh.Stats() != replay.Stats() {
				t.Fatalf("after stream: stats %+v vs %+v", fresh.Stats(), replay.Stats())
			}
		})
	}
}

func TestImageRejectsNonFreshHistory(t *testing.T) {
	key, val := imageFill(3)
	for name, touch := range map[string]func(s *Store){
		"update": func(s *Store) { s.PutInto(nil, key, val) },
		"grow":   func(s *Store) { s.PutInto(nil, key, make([]byte, 300)) },
		"delete": func(s *Store) { s.DeleteInto(nil, key) },
		"get":    func(s *Store) { s.GetInto(nil, nil, key) },
	} {
		_, s := freshLoad(t, 50, imageFill)
		touch(s)
		if _, err := s.Image(); err == nil {
			t.Errorf("%s: Image accepted a store that is not a fresh load", name)
		}
	}
}

func TestFromImageRejectsDifferentFill(t *testing.T) {
	_, s := freshLoad(t, 300, imageFill)
	img, err := s.Image()
	if err != nil {
		t.Fatal(err)
	}
	otherKey := func(i int) ([]byte, []byte) {
		k, v := imageFill(i)
		if i == 123 {
			k = []byte("user99999999999999")
		}
		return k, v
	}
	otherClass := func(i int) ([]byte, []byte) {
		k, v := imageFill(i)
		if i == 123 {
			v = make([]byte, 300)
		}
		return k, v
	}
	for name, fill := range map[string]func(int) ([]byte, []byte){"key": otherKey, "class": otherClass} {
		if _, err := FromImage(memspace.New(), memspace.KindDRAM, img, fill); err == nil {
			t.Errorf("FromImage accepted a fill with a different %s", name)
		}
	}
}

func TestFromImageRejectsOtherLayout(t *testing.T) {
	_, s := freshLoad(t, 100, imageFill)
	img, err := s.Image()
	if err != nil {
		t.Fatal(err)
	}
	space := memspace.New()
	space.Alloc("other", 64, memspace.KindDRAM)
	next := space.Next()
	if _, err := FromImage(space, memspace.KindDRAM, img, imageFill); !errors.Is(err, ErrImageLayout) {
		t.Fatalf("err = %v, want ErrImageLayout", err)
	}
	if space.Next() != next || len(space.Regions()) != 1 {
		t.Fatal("FromImage allocated in a space whose layout it rejected")
	}
}

// TestBenchKernelsBuildTheSameStore keeps cmd/rambda-bench's two load
// kernels comparable: both must end in the same store.
func TestBenchKernelsBuildTheSameStore(t *testing.T) {
	if a, b := BenchPreload(1), BenchImageLoad(1); a != b || a == 0 {
		t.Fatalf("chained buckets: preload %d, image load %d", a, b)
	}
}
