package kvs

import (
	"encoding/binary"
	"sync"

	"rambda/internal/memspace"
)

// Benchmark kernels for the store's load paths, timed by the
// cmd/rambda-bench harness. One op is one whole load of a
// benchLoadKeys-key store shaped like the experiments' preload (18 B
// keys, 46 B values, a bucket per four keys), so the two kernels'
// ns/op compare directly.

const benchLoadKeys = 1 << 14

// benchFill returns a fill function for the kernels' pairs; it reuses
// its buffers across calls.
func benchFill() func(i int) ([]byte, []byte) {
	key := []byte("user00000000000000")
	val := make([]byte, 46)
	return func(i int) ([]byte, []byte) {
		binary.LittleEndian.PutUint64(val, uint64(i))
		for p := len(key) - 1; p >= len("user"); p-- {
			key[p] = byte('0' + i%10)
			i /= 10
		}
		return key, val
	}
}

// benchPreload is one fresh load: New, then a PutInto per pair.
func benchPreload() *Store {
	s := New(memspace.New(), Config{Buckets: benchLoadKeys / 4, PoolBytes: benchLoadKeys * 160})
	fill := benchFill()
	var trace []Access
	for i := 0; i < benchLoadKeys; i++ {
		k, v := fill(i)
		var err error
		if trace, err = s.PutInto(trace[:0], k, v); err != nil {
			panic(err)
		}
	}
	return s
}

// BenchPreload runs n fresh loads of the kernel store and returns the
// last one's chained-bucket count.
func BenchPreload(n int) int64 {
	var chained int64
	for i := 0; i < n; i++ {
		chained = benchPreload().Stats().ChainedBuckets
	}
	return chained
}

var benchImage = sync.OnceValue(func() *Image {
	img, err := benchPreload().Image()
	if err != nil {
		panic(err)
	}
	return img
})

// BenchImageLoad runs n FromImage loads of the same store BenchPreload
// builds (the image is recorded once, on the first call) and returns
// the last one's chained-bucket count.
func BenchImageLoad(n int) int64 {
	img := benchImage()
	var chained int64
	for i := 0; i < n; i++ {
		s, err := FromImage(memspace.New(), memspace.KindDRAM, img, benchFill())
		if err != nil {
			panic(err)
		}
		chained = s.Stats().ChainedBuckets
	}
	return chained
}
