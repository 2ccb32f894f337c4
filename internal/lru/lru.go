// Package lru is the one bounded, concurrency-safe least-recently-used
// map of the tree: a receiving client's key and trapdoor caches (rclient)
// and the depositor's g_ID cache and its hot identities' tables (bfibe)
// are each a Cache (DESIGN.md §9).
// It imports only the standard library, so the crypto core can use it.
package lru

import "sync"

// Cache maps keys to values, dropping the least recently used entries
// past the bound its caller passes to Put. The zero value is ready to use.
type Cache[K comparable, V any] struct {
	mu    sync.Mutex
	byKey map[K]*entry[K, V]
	ring  entry[K, V] // ring.next is the most recently used entry, ring.prev the least
}

// entry is a cached value in its cache's ring, in order of use.
type entry[K comparable, V any] struct {
	k          K
	v          V
	prev, next *entry[K, V]
}

// Get returns the value cached for k, as most recently used.
func (c *Cache[K, V]) Get(k K) (v V, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.byKey[k]; ok {
		c.front(e)
		return e.v, true
	}
	return v, false
}

// Put caches v under k as most recently used, then drops least recently
// used entries until at most bound remain. It returns how many it dropped.
func (c *Cache[K, V]) Put(k K, v V, bound int) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.byKey == nil {
		c.byKey = make(map[K]*entry[K, V])
		c.ring.prev, c.ring.next = &c.ring, &c.ring
	}
	e, ok := c.byKey[k]
	if !ok {
		e = &entry[K, V]{k: k}
		c.byKey[k] = e
	}
	e.v = v
	c.front(e)
	return c.trim(bound)
}

// Trim drops least recently used entries until at most bound remain.
func (c *Cache[K, V]) Trim(bound int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.trim(bound)
}

// Evict drops k from the cache.
func (c *Cache[K, V]) Evict(k K) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.byKey[k]; ok {
		c.drop(e)
	}
}

// trim is Trim under c.mu, returning how many entries it dropped.
func (c *Cache[K, V]) trim(bound int) int {
	n := 0
	for ; len(c.byKey) > max(bound, 0); n++ {
		c.drop(c.ring.prev)
	}
	return n
}

// front moves e, held or new, to the front of the ring. Callers hold c.mu.
func (c *Cache[K, V]) front(e *entry[K, V]) {
	if e.next != nil {
		e.prev.next, e.next.prev = e.next, e.prev
	}
	e.prev, e.next = &c.ring, c.ring.next
	e.next.prev, c.ring.next = e, e
}

// drop unlinks e from the ring and its key from the map. Callers hold c.mu.
func (c *Cache[K, V]) drop(e *entry[K, V]) {
	e.prev.next, e.next.prev = e.next, e.prev
	delete(c.byKey, e.k)
}
