package experiments

import (
	"fmt"
	"sync"
)

// shared is one sweep's table of work that several jobs need: the KVS
// preload image, each DLRM category's inferred query stream, and each
// distinct KVS operating point. An entry is computed once, by the first
// job that asks for it, while later askers wait for and read the same
// value. Entries are keyed by comparable values whose types tell the
// kinds apart.
//
// StandardSpecsObs gives every sweep its own table, and a standalone
// Spec or rows function gets a private one, so work is shared inside a
// sweep and never across sweeps: a repeated sweep redoes all of it.
// Values must be immutable once built, since every sharer reads them
// concurrently.
type shared struct {
	mu    sync.Mutex
	cells map[any]*sharedCell
}

type sharedCell struct {
	once  sync.Once
	v     any
	built bool
}

func newShared() *shared { return &shared{cells: make(map[any]*sharedCell)} }

// sharedGet returns the table's value for key, calling build to compute
// it if no job has yet. If build panics, the panic reaches the job that
// ran it; every other asker panics naming the key.
func sharedGet[K comparable, V any](s *shared, key K, build func() V) V {
	s.mu.Lock()
	c := s.cells[key]
	if c == nil {
		c = &sharedCell{}
		s.cells[key] = c
	}
	s.mu.Unlock()
	c.once.Do(func() {
		c.v = build()
		c.built = true
	})
	if !c.built {
		panic(fmt.Sprintf("experiments: shared %T %+v failed in the job that built it", key, key))
	}
	return c.v.(V)
}
