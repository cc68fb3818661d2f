package serve

import (
	"container/list"
	"sync"
)

// Cache is the content-addressed result cache: verdicts keyed by the
// canonical problem/config hash, bounded by an LRU. Trust boundary: only
// definitive results may enter (Put refuses the rest), so a budget-starved
// or crashed run can never poison the answer a later tenant receives — a
// cache hit is always byte-identical to a completed cold solve of the same
// key.
type Cache struct {
	mu      sync.Mutex
	max     int
	lru     *list.List               // front = most recently used
	entries map[string]*list.Element // value: *cacheEntry
	hits    uint64
	misses  uint64
}

type cacheEntry struct {
	key string
	res *Result
}

// DefaultCacheEntries bounds the cache when the configuration does not.
const DefaultCacheEntries = 4096

// NewCache returns a cache holding at most max results (0 = default).
func NewCache(max int) *Cache {
	if max <= 0 {
		max = DefaultCacheEntries
	}
	return &Cache{max: max, lru: list.New(), entries: make(map[string]*list.Element)}
}

// Get returns the cached result for key, counting a hit or miss.
func (c *Cache) Get(key string) (*Result, bool) {
	return c.lookup(key, true)
}

// lookup is Get; count false skips the hit/miss count, for re-checking a
// key whose lookup was already counted when its job was submitted.
func (c *Cache) lookup(key string, count bool) (*Result, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if !ok {
		if count {
			c.misses++
		}
		return nil, false
	}
	if count {
		c.hits++
	}
	c.lru.MoveToFront(el)
	return el.Value.(*cacheEntry).res, true
}

// Put stores a definitive result, evicting the least recently used entry
// when full. It reports whether the result was admitted; non-definitive
// results and key mismatches are refused.
func (c *Cache) Put(key string, res *Result) bool {
	if res == nil || !res.Definitive || res.Key != key {
		return false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		el.Value.(*cacheEntry).res = res
		c.lru.MoveToFront(el)
		return true
	}
	c.entries[key] = c.lru.PushFront(&cacheEntry{key: key, res: res})
	for c.lru.Len() > c.max {
		last := c.lru.Back()
		c.lru.Remove(last)
		delete(c.entries, last.Value.(*cacheEntry).key)
	}
	return true
}

// CacheStats is a point-in-time cache counter snapshot.
type CacheStats struct {
	Entries int    `json:"entries"`
	Hits    uint64 `json:"hits"`
	Misses  uint64 `json:"misses"`
}

// Stats returns the current counters.
func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{Entries: c.lru.Len(), Hits: c.hits, Misses: c.misses}
}
