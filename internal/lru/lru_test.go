package lru

import (
	"sync"
	"testing"
)

// TestCacheDropsLeastRecentlyUsed: past its bound a cache drops the
// least recently used key, where a Get or a second Put counts as a use,
// and an evicted key leaves the use order too.
func TestCacheDropsLeastRecentlyUsed(t *testing.T) {
	const bound = 128
	var c Cache[int, string]
	for i := range bound {
		if dropped := c.Put(i, "v", bound); dropped != 0 {
			t.Fatalf("put %d under the bound dropped %d", i, dropped)
		}
	}
	c.Put(0, "again", bound) // admitted again: the most recently used
	if dropped := c.Put(bound, "v", bound); dropped != 1 {
		t.Fatalf("a put past the bound dropped %d keys, want 1", dropped)
	}
	v, kept := c.Get(0)
	_, held1 := c.Get(1)
	if len(c.byKey) != bound || !kept || v != "again" || held1 {
		t.Fatal("the cache did not drop its least recently used key")
	}
	// Past the bound the cache drops the least recently used key it
	// holds, not the evicted one.
	c.Evict(2)
	c.Put(bound+1, "v", bound)
	c.Put(bound+2, "v", bound)
	_, held3 := c.Get(3)
	_, held4 := c.Get(4)
	if len(c.byKey) != bound || held3 || !held4 {
		t.Fatal("after an eviction the cache did not drop its least recently used key")
	}
	c.Get(5) // used: outlives 6 and 7 under a smaller bound
	c.Trim(2)
	_, held5 := c.Get(5)
	_, held6 := c.Get(6)
	if len(c.byKey) != 2 || !held5 || held6 {
		t.Fatalf("Trim(2) left %d keys (5 held: %v, 6 held: %v)", len(c.byKey), held5, held6)
	}
	c.Trim(0)
	if len(c.byKey) != 0 {
		t.Fatalf("Trim(0) left %d keys", len(c.byKey))
	}
	if dropped := c.Put(9, "v", 0); dropped != 1 || len(c.byKey) != 0 {
		t.Fatalf("a put under bound 0 dropped %d and left %d keys", dropped, len(c.byKey))
	}
}

// TestCacheConcurrent runs every operation from several goroutines under
// -race and checks the ring still accounts for every key the map holds.
func TestCacheConcurrent(t *testing.T) {
	var c Cache[int, int]
	var wg sync.WaitGroup
	for g := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range 2000 {
				k := (g*7 + i) % 24
				switch i % 4 {
				case 0:
					c.Put(k, i, 16)
				case 1:
					c.Get(k)
				case 2:
					c.Evict(k)
				default:
					c.Trim(8 + i%9)
				}
			}
		}()
	}
	wg.Wait()
	n := 0
	for e := c.ring.next; e != &c.ring; e = e.next {
		if c.byKey[e.k] != e {
			t.Fatalf("ring entry %d is not the map's", e.k)
		}
		n++
	}
	if n != len(c.byKey) || n > 16 {
		t.Fatalf("ring holds %d entries, map %d, bound 16", n, len(c.byKey))
	}
}
