package kvs

import (
	"bytes"
	"errors"
	"fmt"
	"slices"

	"rambda/internal/memspace"
)

// Image records a freshly loaded store compactly enough to rebuild it
// many times: the experiments preload the same pairs at the same
// addresses for every sweep point, and replaying an image skips the
// per-key bucket probes that dominate a fresh load.
//
// It holds the index region's bytes, each chained bucket's ordinal in
// the pool's bump-allocation order with its final 64 bytes, the slab
// cursor and the item count, plus a digest of every item's key hash and
// size class in allocation order. It holds no item bytes: [FromImage]
// rewrites each item from the caller's fill function, so an image costs
// about the index size, not the pool size.
//
// An Image is immutable once built and safe to replay from many
// goroutines at once.
type Image struct {
	index, pool memspace.Range
	indexBytes  []byte
	chainOrd    []int  // allocation ordinals of the chained buckets, ascending
	chainBytes  []byte // their final bytes, bucketBytes each, in chainOrd order
	cursor      memspace.Addr
	items       int
	digest      uint64
}

// ErrImageLayout reports that a space would not place the store's
// regions at the image's bases. [FromImage] returns it before
// allocating anything, so the caller can build the store fresh instead.
var ErrImageLayout = errors.New("kvs: space layout does not match the image")

// Image records the store for [FromImage]. It accepts only a store
// whose whole history is fresh inserts of distinct keys: no GET, no
// DELETE, no update. Those are exactly the stores whose pool is a dense
// run of blocks in insertion order, which is what makes a replay from
// the keys alone byte-exact.
func (s *Store) Image() (*Image, error) {
	if s.gets != 0 || s.deletes != 0 || s.slab.freed != 0 || s.slab.allocated != s.puts+s.chained {
		return nil, errors.New("kvs: Image needs a store whose history is only fresh inserts")
	}
	// The chained buckets, found through the chain pointers.
	var chains []memspace.Addr
	for bkt := s.index.Base; bkt < s.index.End(); bkt += bucketBytes {
		for b := s.bucket(bkt); ; {
			ct, next := readSlot(b, slotsPerBkt)
			if ct != chainTag {
				break
			}
			chains = append(chains, next)
			b = s.pool.Slice(next, bucketBytes)
		}
	}
	slices.Sort(chains)

	img := &Image{
		index:      s.index.Range,
		pool:       s.pool.Range,
		indexBytes: bytes.Clone(s.index.Bytes()),
		chainOrd:   make([]int, 0, len(chains)),
		chainBytes: make([]byte, 0, len(chains)*bucketBytes),
		cursor:     s.slab.next,
		digest:     digestSeed,
	}
	// Walk the pool in bump order: every block is either a chained
	// bucket or the next inserted item.
	pos := s.pool.Base
	for ord := 0; pos < s.slab.next; ord++ {
		if c := len(img.chainOrd); c < len(chains) && chains[c] == pos {
			img.chainOrd = append(img.chainOrd, ord)
			img.chainBytes = append(img.chainBytes, s.pool.Slice(pos, bucketBytes)...)
			pos += bucketBytes
			continue
		}
		k, v := s.readItem(pos)
		class, err := classFor(itemBytes(k, v))
		if err != nil {
			return nil, err
		}
		img.digest = digestItem(img.digest, hashKey(k), class)
		img.items++
		pos += memspace.Addr(class)
	}
	if pos != s.slab.next || img.items != int(s.puts) || len(img.chainOrd) != len(chains) ||
		int64(len(chains)) != s.chained {
		return nil, fmt.Errorf("kvs: pool walk found %d items and %d chained buckets, store counts %d and %d",
			img.items, len(img.chainOrd), s.puts, s.chained)
	}
	return img, nil
}

// FromImage rebuilds in space the store that img was taken from, placing
// its regions with the given kind. fill(i) returns the i-th inserted
// pair; the returned slices are copied before the next call, so fill
// may reuse its buffers. The result is byte-identical to a fresh New
// followed by PutInto of every fill(i) in order: same regions, same
// Stats, same slab state.
//
// If space would not place the regions at the image's bases, FromImage
// returns ErrImageLayout and allocates nothing. If fill's keys or item
// sizes differ from the image's, it returns an error after allocating
// the regions; the space is then unusable for this store.
func FromImage(space *memspace.Space, kind memspace.Kind, img *Image,
	fill func(i int) (key, val []byte)) (*Store, error) {
	if space.Next() != img.index.Base {
		return nil, ErrImageLayout
	}
	index := space.Alloc("kvs-index", img.index.Size, kind)
	pool := space.Alloc("kvs-pool", img.pool.Size, kind)
	copy(index.Bytes(), img.indexBytes)
	s := &Store{
		index: index,
		pool:  pool,
		slab: &slabAllocator{
			region:    pool.Range,
			next:      img.cursor,
			free:      make(map[int][]memspace.Addr),
			allocated: int64(img.items + len(img.chainOrd)),
		},
		mask:    img.index.Size/bucketBytes - 1,
		puts:    int64(img.items),
		chained: int64(len(img.chainOrd)),
	}

	// Replay the bump allocations: chained buckets at their ordinals,
	// items from fill in between.
	digest := digestSeed
	pos := pool.Base
	ci := 0
	for ord, i := 0, 0; i < img.items || ci < len(img.chainOrd); ord++ {
		if ci < len(img.chainOrd) && img.chainOrd[ci] == ord {
			copy(pool.Slice(pos, bucketBytes), img.chainBytes[ci*bucketBytes:])
			pos += bucketBytes
			ci++
			continue
		}
		key, val := fill(i)
		class, err := classFor(itemBytes(key, val))
		if err != nil {
			return nil, err
		}
		if uint64(pos-pool.Base)+uint64(class) > pool.Size {
			return nil, errors.New("kvs: fill's items overflow the image's pool")
		}
		s.writeItem(pos, key, val)
		digest = digestItem(digest, hashKey(key), class)
		pos += memspace.Addr(class)
		i++
	}
	if pos != img.cursor || digest != img.digest {
		return nil, errors.New("kvs: fill's keys or item sizes differ from the image's")
	}
	return s, nil
}

// digestSeed and digestItem fold each item's key hash and size class
// into an order-sensitive FNV-1a style digest.
const digestSeed uint64 = 14695981039346656037

func digestItem(d, keyHash uint64, class int) uint64 {
	const prime = 1099511628211
	d = (d ^ keyHash) * prime
	return (d ^ uint64(class)) * prime
}
