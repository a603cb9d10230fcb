// Package lru is the fixed-capacity least-recently-used key set behind
// the simulator's two demand caches: the FTL's cached mapping table
// (DFTL) and the host's page cache. Both price a lookup by whether it
// hits, and the order in which they evict decides later hits, so the
// recency order is exact and deterministic.
//
// Nodes live in a flat slab indexed by int32 and linked by slab index
// rather than by pointer, so touching, inserting and evicting are O(1)
// and allocate nothing per entry once the slab and index have grown
// (freed slots are recycled through a free list threaded over next).
// Cloning — which every deployment fork does for the FTL's cache — is
// one slice copy plus one map copy instead of an allocation per entry.
package lru

// Cache is a fixed-capacity LRU set of keys.
type Cache[K comparable] struct {
	capacity int
	index    map[K]int32 // key -> slab slot
	nodes    []node[K]
	head     int32 // most recent, -1 if empty
	tail     int32 // least recent, -1 if empty
	free     int32 // free-slot list head (threaded through next), -1 if none
}

type node[K comparable] struct {
	key        K
	prev, next int32
}

// New returns an empty cache holding at most capacity keys (at least 1).
func New[K comparable](capacity int) *Cache[K] {
	if capacity < 1 {
		capacity = 1
	}
	return &Cache[K]{
		capacity: capacity,
		index:    make(map[K]int32),
		head:     -1, tail: -1, free: -1,
	}
}

// Clone copies the cache preserving the exact recency order.
func (c *Cache[K]) Clone() *Cache[K] {
	nc := *c
	nc.index = make(map[K]int32, len(c.index))
	for k, v := range c.index {
		nc.index[k] = v
	}
	nc.nodes = append([]node[K](nil), c.nodes...)
	return &nc
}

// Touch reports whether k is cached, making it the most recent if so.
func (c *Cache[K]) Touch(k K) bool {
	i, ok := c.index[k]
	if !ok {
		return false
	}
	c.unlink(i)
	c.pushFront(i)
	return true
}

// Insert makes k the most recently used key, caching it if absent. A
// new key on a full cache first evicts the least recently used key,
// which Insert returns with evicted set.
func (c *Cache[K]) Insert(k K) (victim K, evicted bool) {
	if c.Touch(k) {
		return victim, false
	}
	if len(c.index) >= c.capacity {
		lru := c.tail
		c.unlink(lru)
		victim, evicted = c.nodes[lru].key, true
		delete(c.index, victim)
		c.nodes[lru].next = c.free
		c.free = lru
	}
	i := c.alloc()
	c.nodes[i] = node[K]{key: k}
	c.index[k] = i
	c.pushFront(i)
	return victim, evicted
}

// alloc returns a free slab slot, growing the slab if none is free.
func (c *Cache[K]) alloc() int32 {
	if c.free != -1 {
		i := c.free
		c.free = c.nodes[i].next
		return i
	}
	c.nodes = append(c.nodes, node[K]{})
	return int32(len(c.nodes) - 1)
}

func (c *Cache[K]) unlink(i int32) {
	n := &c.nodes[i]
	if n.prev != -1 {
		c.nodes[n.prev].next = n.next
	} else {
		c.head = n.next
	}
	if n.next != -1 {
		c.nodes[n.next].prev = n.prev
	} else {
		c.tail = n.prev
	}
	n.prev, n.next = -1, -1
}

func (c *Cache[K]) pushFront(i int32) {
	n := &c.nodes[i]
	n.prev, n.next = -1, c.head
	if c.head != -1 {
		c.nodes[c.head].prev = i
	}
	c.head = i
	if c.tail == -1 {
		c.tail = i
	}
}
