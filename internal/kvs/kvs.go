// Package kvs implements the in-memory key-value store of paper
// Sec. IV-A: a MICA-style set-associative, chained hash index over a
// slab-allocated item pool, living entirely inside the simulated
// physical address space so every operation yields the exact memory
// access trace (addresses, sizes, read/write) that the CPU, SmartNIC,
// and RAMBDA accelerator models charge to their respective datapaths.
// Matching MICA and KV-Direct, a GET costs three memory accesses on
// average and a PUT four.
//
// # API forms and buffer ownership
//
// The PRIMARY request-path API is the append/Into family —
// [Store.GetInto], [Store.PutInto], [Store.DeleteInto], [ApplyScratch],
// [AppendRequest], [AppendResponse]. Each takes caller-owned
// destination buffers (value bytes, access trace, wire frames), appends
// into them, and returns the grown slices; pass the returned slice back
// re-sliced to [:0] and the steady state allocates nothing once
// capacities reach the workload's high-water mark.
//
// Ownership and validity rules:
//
//   - Returned slices alias the buffers the caller passed in (or the
//     [Scratch]); they are valid only until the next call that reuses
//     those buffers. Retention sites (caches, dedup stores, history
//     logs) must copy.
//   - The store never retains caller buffers: key/value bytes are
//     copied into the simulated address space before the call returns,
//     so request buffers may be reused immediately.
//
// The allocating forms ([Store.Get], [Store.Put], [Store.Delete],
// [Apply], [EncodeRequest], [EncodeResponse]) are thin deprecated
// wrappers that pass nil buffers; they remain for one-shot callers and
// tests.
package kvs

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/fnv"

	"rambda/internal/memspace"
	"rambda/internal/obs"
)

// Access is one memory access of an operation's trace.
type Access struct {
	Addr  memspace.Addr
	Bytes int
	Write bool
}

const (
	// bucketBytes is one index bucket: 7 slots + 1 chain pointer, 8 B
	// each — a single cacheline, as in MICA.
	bucketBytes  = 64
	slotsPerBkt  = 7
	slotBytes    = 8
	itemHdrBytes = 8 // 2B keyLen, 4B valLen, 2B reserved
)

// Config sizes the store.
type Config struct {
	// Buckets is the number of index buckets (rounded up to a power of
	// two).
	Buckets int
	// PoolBytes is the item pool capacity.
	PoolBytes uint64
	// Kind places the store's regions (DRAM for Fig. 8, accel-local for
	// RAMBDA-LD/LH).
	Kind memspace.Kind
}

// Store is the key-value store.
type Store struct {
	index *memspace.Region
	pool  *memspace.Region
	slab  *slabAllocator

	mask uint64

	gets, puts, deletes, misses int64
	chained                     int64 // overflow buckets allocated
}

// New allocates and initializes a store inside the given space.
func New(space *memspace.Space, cfg Config) *Store {
	if cfg.Buckets <= 0 || cfg.PoolBytes == 0 {
		panic("kvs: bad config")
	}
	n := 1
	for n < cfg.Buckets {
		n <<= 1
	}
	index := space.Alloc("kvs-index", uint64(n)*bucketBytes, cfg.Kind)
	pool := space.Alloc("kvs-pool", cfg.PoolBytes, cfg.Kind)
	return &Store{
		index: index,
		pool:  pool,
		slab:  newSlabAllocator(pool.Range),
		mask:  uint64(n - 1),
	}
}

// IndexRange and PoolRange expose the store's memory layout (for MR
// registration and region-kind experiments).
func (s *Store) IndexRange() memspace.Range { return s.index.Range }
func (s *Store) PoolRange() memspace.Range  { return s.pool.Range }

// hashKey returns the 64-bit FNV-1a hash of key.
func hashKey(key []byte) uint64 {
	h := fnv.New64a()
	h.Write(key)
	return h.Sum64()
}

// Hash64 exposes the store's 64-bit FNV-1a key hash. Cluster-level
// routing (internal/scaleout's consistent-hash ring and hot-key
// counters) shards on exactly the hash the index uses, so a key's
// placement decision and its bucket choice never disagree.
func Hash64(key []byte) uint64 { return hashKey(key) }

func (s *Store) bucketAddr(h uint64) memspace.Addr {
	return s.index.Base + memspace.Addr((h&s.mask)*bucketBytes)
}

// tag is the in-slot partial hash; 0 means empty, chainTag marks the
// chain pointer slot.
func tagOf(h uint64) uint16 {
	t := uint16(h >> 48)
	if t == 0 || t == chainTag {
		t = 1
	}
	return t
}

const chainTag = 0xFFFF

// bucket returns the 64 bytes of the bucket at bkt from whichever
// region holds it — the index for home buckets, the pool for chained
// ones — so one bounds check covers a probe's 7 slots and chain pointer.
func (s *Store) bucket(bkt memspace.Addr) []byte {
	if s.index.Contains(bkt) {
		return s.index.Slice(bkt, bucketBytes)
	}
	return s.pool.Slice(bkt, bucketBytes)
}

// slot helpers: a slot is [2B tag][6B item address], little-endian, so
// the whole slot is the 64-bit word tag | addr<<16.
func readSlot(b []byte, i int) (uint16, memspace.Addr) {
	w := binary.LittleEndian.Uint64(b[i*slotBytes:])
	return uint16(w), memspace.Addr(w >> 16)
}

func writeSlot(b []byte, i int, tag uint16, addr memspace.Addr) {
	binary.LittleEndian.PutUint64(b[i*slotBytes:], uint64(tag)|uint64(addr)<<16)
}

// writeItem serializes a key-value pair at addr in the pool.
func (s *Store) writeItem(addr memspace.Addr, key, val []byte) {
	buf := s.pool.Slice(addr, itemBytes(key, val))
	binary.LittleEndian.PutUint16(buf[0:2], uint16(len(key)))
	binary.LittleEndian.PutUint32(buf[2:6], uint32(len(val)))
	copy(buf[itemHdrBytes:], key)
	copy(buf[itemHdrBytes+len(key):], val)
}

// readItem deserializes the item at addr in the pool.
func (s *Store) readItem(addr memspace.Addr) (key, val []byte) {
	hdr := s.pool.Slice(addr, itemHdrBytes)
	kl := int(binary.LittleEndian.Uint16(hdr[0:2]))
	vl := int(binary.LittleEndian.Uint32(hdr[2:6]))
	body := s.pool.Slice(addr+itemHdrBytes, kl+vl)
	return body[:kl], body[kl : kl+vl]
}

func itemBytes(key, val []byte) int { return itemHdrBytes + len(key) + len(val) }

// Get looks up key and returns the value (freshly allocated) plus the
// access trace.
//
// Deprecated: use GetInto with reusable buffers; Get allocates fresh
// value and trace slices per call.
func (s *Store) Get(key []byte) (val []byte, trace []Access, ok bool) {
	return s.GetInto(nil, nil, key)
}

// GetInto looks up key, appending the value bytes to dst and the
// memory accesses to trace. Both returned slices retain their grown
// capacity, so passing back dst[:0]/trace[:0] from the previous call
// makes the steady state allocation-free. On a miss the returned value
// slice is dst unextended.
func (s *Store) GetInto(dst []byte, trace []Access, key []byte) ([]byte, []Access, bool) {
	s.gets++
	h := hashKey(key)
	tag := tagOf(h)
	bkt := s.bucketAddr(h)
	for {
		trace = append(trace, Access{Addr: bkt, Bytes: bucketBytes})
		b := s.bucket(bkt)
		for i := 0; i < slotsPerBkt; i++ {
			t, addr := readSlot(b, i)
			if t != tag {
				continue
			}
			k, v := s.readItem(addr)
			trace = append(trace, Access{Addr: addr, Bytes: itemHdrBytes + len(k)})
			if !bytes.Equal(k, key) {
				continue // tag collision
			}
			trace = append(trace, Access{Addr: addr + memspace.Addr(itemHdrBytes+len(k)), Bytes: len(v)})
			return append(dst, v...), trace, true
		}
		ct, next := readSlot(b, slotsPerBkt)
		if ct != chainTag {
			s.misses++
			return dst, trace, false
		}
		bkt = next
	}
}

// Put inserts or updates key, returning the access trace.
//
// Deprecated: use PutInto with a reusable trace buffer.
func (s *Store) Put(key, val []byte) ([]Access, error) {
	return s.PutInto(nil, key, val)
}

// PutInto inserts or updates key, appending the memory accesses to the
// caller-provided trace (capacity retained across calls). The whole
// chain is searched for the key before inserting so a key never appears
// twice.
func (s *Store) PutInto(trace []Access, key, val []byte) ([]Access, error) {
	s.puts++
	h := hashKey(key)
	tag := tagOf(h)
	bkt := s.bucketAddr(h)

	var freeBkt memspace.Addr
	var freeB, lastB []byte
	freeSlot := -1
	lastBkt := bkt
	for {
		trace = append(trace, Access{Addr: bkt, Bytes: bucketBytes})
		b := s.bucket(bkt)
		for i := 0; i < slotsPerBkt; i++ {
			t, addr := readSlot(b, i)
			if t == 0 {
				if freeSlot < 0 {
					freeBkt, freeB, freeSlot = bkt, b, i
				}
				continue
			}
			if t != tag {
				continue
			}
			k, v := s.readItem(addr)
			trace = append(trace, Access{Addr: addr, Bytes: itemHdrBytes + len(k)})
			if !bytes.Equal(k, key) {
				continue // tag collision
			}
			// Update in place when the size class matches; reallocate
			// otherwise.
			oldClass, _ := classFor(itemBytes(k, v))
			newClass, err := classFor(itemBytes(key, val))
			if err != nil {
				return trace, err
			}
			if oldClass != newClass {
				s.slab.release(addr, itemBytes(k, v))
				addr, err = s.slab.alloc(itemBytes(key, val))
				if err != nil {
					return trace, err
				}
				writeSlot(b, i, tag, addr)
				trace = append(trace, Access{Addr: bkt, Bytes: slotBytes, Write: true})
			}
			s.writeItem(addr, key, val)
			trace = append(trace, Access{Addr: addr, Bytes: itemBytes(key, val), Write: true})
			return trace, nil
		}
		ct, next := readSlot(b, slotsPerBkt)
		if ct != chainTag {
			lastBkt, lastB = bkt, b
			break
		}
		bkt = next
	}

	// Not present: insert into the first free slot, growing the chain
	// if every bucket is full (paper: "another bucket with the same
	// format will be allocated and linked by a pointer").
	if freeSlot < 0 {
		nb, err := s.slab.alloc(bucketBytes)
		if err != nil {
			return trace, fmt.Errorf("kvs: chain allocation failed: %w", err)
		}
		freeB = s.pool.Slice(nb, bucketBytes)
		clear(freeB)
		writeSlot(lastB, slotsPerBkt, chainTag, nb)
		trace = append(trace, Access{Addr: lastBkt, Bytes: slotBytes, Write: true})
		s.chained++
		freeBkt, freeSlot = nb, 0
	}
	addr, err := s.slab.alloc(itemBytes(key, val))
	if err != nil {
		return trace, err
	}
	trace = append(trace, Access{Addr: addr, Bytes: slotBytes, Write: true}) // allocator metadata
	s.writeItem(addr, key, val)
	trace = append(trace, Access{Addr: addr, Bytes: itemBytes(key, val), Write: true})
	writeSlot(freeB, freeSlot, tag, addr)
	trace = append(trace, Access{Addr: freeBkt, Bytes: slotBytes, Write: true})
	return trace, nil
}

// Delete removes key, returning whether it was present.
//
// Deprecated: use DeleteInto with a reusable trace buffer.
func (s *Store) Delete(key []byte) ([]Access, bool) {
	return s.DeleteInto(nil, key)
}

// DeleteInto removes key, appending the memory accesses to the
// caller-provided trace (capacity retained across calls); ok reports
// whether the key was present.
func (s *Store) DeleteInto(trace []Access, key []byte) ([]Access, bool) {
	s.deletes++
	h := hashKey(key)
	tag := tagOf(h)
	bkt := s.bucketAddr(h)
	for {
		trace = append(trace, Access{Addr: bkt, Bytes: bucketBytes})
		b := s.bucket(bkt)
		for i := 0; i < slotsPerBkt; i++ {
			t, addr := readSlot(b, i)
			if t != tag {
				continue
			}
			k, v := s.readItem(addr)
			trace = append(trace, Access{Addr: addr, Bytes: itemHdrBytes + len(k)})
			if !bytes.Equal(k, key) {
				continue
			}
			s.slab.release(addr, itemBytes(k, v))
			writeSlot(b, i, 0, 0)
			trace = append(trace, Access{Addr: bkt, Bytes: slotBytes, Write: true})
			return trace, true
		}
		ct, next := readSlot(b, slotsPerBkt)
		if ct != chainTag {
			return trace, false
		}
		bkt = next
	}
}

// Stats summarizes store activity.
type Stats struct {
	Gets, Puts, Deletes, Misses int64
	ChainedBuckets              int64
	LiveItems                   int64
}

// Stats returns activity counters.
func (s *Store) Stats() Stats {
	return Stats{
		Gets: s.gets, Puts: s.puts, Deletes: s.deletes, Misses: s.misses,
		ChainedBuckets: s.chained, LiveItems: s.slab.liveBlocks(),
	}
}

// RegisterMetrics exposes the store's activity counters as gauges under
// prefix, including the derived GET hit rate.
func (s *Store) RegisterMetrics(reg *obs.Registry, prefix string) {
	reg.Gauge(prefix+".gets", func() float64 { return float64(s.gets) })
	reg.Gauge(prefix+".puts", func() float64 { return float64(s.puts) })
	reg.Gauge(prefix+".misses", func() float64 { return float64(s.misses) })
	reg.Gauge(prefix+".live_items", func() float64 { return float64(s.slab.liveBlocks()) })
	reg.Gauge(prefix+".hit_rate", func() float64 {
		if s.gets == 0 {
			return 0
		}
		return float64(s.gets-s.misses) / float64(s.gets)
	})
}
