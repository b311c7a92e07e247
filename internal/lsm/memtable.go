package lsm

// memtable is one generation of the DRAM write buffer: an insert-only
// skiplist that keeps keys in order, so range scans seek and flushes
// walk it instead of sorting, plus a map from key to node so point
// reads stay one hash lookup. Each node holds its key's versions in
// ascending sequence order. Nodes never move or disappear, so a pinned
// snapshot holding this memtable keeps reading it while later writes
// insert around its cursors; their versions are newer than the pin and
// the sequence filter hides them.
type memtable struct {
	head   memNode // sentinel: head.next[l] starts level l
	height int     // levels in use
	index  map[string]*memNode
	rng    uint64 // level generator state, fixed seed

	// nodes and links are slabs that new nodes and their next pointers
	// are carved from: one allocation per chunk, not two per key.
	nodes []memNode
	links []*memNode
}

// memNode is one key of the memtable.
type memNode struct {
	key      string
	versions []entry // ascending seq
	next     []*memNode
	prev     *memNode // level-0 predecessor (nil at the first node), for reverse scans
}

const (
	// maxHeight bounds the skiplist; with a 1/4 promotion chance it
	// keeps O(log n) search up to 4^12 keys, far past any memtable here.
	maxHeight = 12
	// memtableSeed seeds every memtable's level generator, so the
	// shape of the list (and hence its host cost) is reproducible.
	memtableSeed = 0x9E3779B97F4A7C15
	// slabNodes is the node count of one slab chunk; a links chunk
	// holds twice as many pointers (mean height is 4/3).
	slabNodes = 64
)

func newMemtable() *memtable {
	m := &memtable{height: 1, index: make(map[string]*memNode), rng: memtableSeed}
	m.head.next = make([]*memNode, maxHeight)
	return m
}

// len reports the number of distinct keys.
func (m *memtable) len() int { return len(m.index) }

// versions returns key's version list, nil when the key is absent.
func (m *memtable) versions(key string) []entry {
	if n := m.index[key]; n != nil {
		return n.versions
	}
	return nil
}

// first returns the smallest node, nil when empty.
func (m *memtable) first() *memNode { return m.head.next[0] }

// add appends a version to key's node, linking a new node in key order
// when the key is new.
func (m *memtable) add(key string, e entry) {
	if n := m.index[key]; n != nil {
		n.versions = append(n.versions, e)
		return
	}
	var prev [maxHeight]*memNode
	x := &m.head
	for l := m.height - 1; l >= 0; l-- {
		for n := x.next[l]; n != nil && n.key < key; n = x.next[l] {
			x = n
		}
		prev[l] = x
	}
	h := m.randomHeight()
	for l := m.height; l < h; l++ {
		prev[l] = &m.head
	}
	if h > m.height {
		m.height = h
	}
	if len(m.nodes) == 0 {
		m.nodes = make([]memNode, slabNodes)
	}
	if len(m.links) < h {
		m.links = make([]*memNode, 2*slabNodes)
	}
	n := &m.nodes[0]
	m.nodes = m.nodes[1:]
	n.key, n.versions, n.next = key, []entry{e}, m.links[:h:h]
	m.links = m.links[h:]
	for l := 0; l < h; l++ {
		n.next[l] = prev[l].next[l]
		prev[l].next[l] = n
	}
	if prev[0] != &m.head {
		n.prev = prev[0]
	}
	if n.next[0] != nil {
		n.next[0].prev = n
	}
	m.index[key] = n
}

// randomHeight draws a node height: each extra level with chance 1/4.
func (m *memtable) randomHeight() int {
	// xorshift64* (Vigna), deterministic from the fixed seed.
	m.rng ^= m.rng >> 12
	m.rng ^= m.rng << 25
	m.rng ^= m.rng >> 27
	r := m.rng * 2685821657736338717
	h := 1
	for h < maxHeight && r&3 == 0 {
		h++
		r >>= 2
	}
	return h
}

// seek places a scan cursor: the first node with key >= start going
// forward, the last node with key <= start in reverse (an empty start
// means the last node in reverse, the first otherwise). It returns nil
// when no node qualifies.
func (m *memtable) seek(start string, reverse bool) *memNode {
	x := &m.head
	for l := m.height - 1; l >= 0; l-- {
		for n := x.next[l]; n != nil; n = x.next[l] {
			if reverse {
				if start != "" && n.key > start {
					break
				}
			} else if n.key >= start {
				break
			}
			x = n
		}
	}
	if reverse {
		if x == &m.head {
			return nil
		}
		return x
	}
	return x.next[0]
}
