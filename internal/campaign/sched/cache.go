package sched

import (
	"container/list"
	"sync"
)

// Cache is a bounded LRU mapping point cache keys (Job.PointKey) to
// their encoded results. Values are immutable once stored: points are
// encoded deterministically, so a hit is byte-identical to
// recomputation by construction.
type Cache struct {
	mu       sync.Mutex
	max      int
	ll       *list.List // front = most recently used
	m        map[string]*list.Element
	fallback func(string) ([]byte, bool)
}

type cacheEntry struct {
	key string
	val []byte
}

// NewCache returns an LRU holding at most max entries (a non-positive
// max falls back to 1024).
func NewCache(max int) *Cache {
	if max <= 0 {
		max = 1024
	}
	return &Cache{max: max, ll: list.New(), m: make(map[string]*list.Element)}
}

// SetFallback installs a second-level lookup consulted on LRU miss —
// the durable point store's read path. A fallback hit is promoted into
// the LRU so repeat reads stay in memory. Call before serving.
func (c *Cache) SetFallback(fetch func(string) ([]byte, bool)) {
	c.mu.Lock()
	c.fallback = fetch
	c.mu.Unlock()
}

// Get returns the cached value for key and promotes it, consulting the
// fallback on a miss. Callers must not mutate the returned slice.
func (c *Cache) Get(key string) ([]byte, bool) {
	c.mu.Lock()
	el, ok := c.m[key]
	if ok {
		c.ll.MoveToFront(el)
		val := el.Value.(*cacheEntry).val
		c.mu.Unlock()
		return val, true
	}
	fetch := c.fallback
	c.mu.Unlock()
	if fetch == nil {
		return nil, false
	}
	val, ok := fetch(key)
	if !ok {
		return nil, false
	}
	c.Put(key, val)
	return val, true
}

// Put stores val under key, evicting the least recently used entry when
// the cache is full.
func (c *Cache) Put(key string, val []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.m[key]; ok {
		c.ll.MoveToFront(el)
		el.Value.(*cacheEntry).val = val
		return
	}
	c.m[key] = c.ll.PushFront(&cacheEntry{key: key, val: val})
	for c.ll.Len() > c.max {
		last := c.ll.Back()
		c.ll.Remove(last)
		delete(c.m, last.Value.(*cacheEntry).key)
	}
}
