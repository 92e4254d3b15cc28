package serve

import (
	"container/list"
	"sync"
	"sync/atomic"

	"mapsynth/pkg/client"
)

// lruCache is a bounded, mutex-guarded LRU for lookup responses — the
// serving hot path. A fresh cache is built per loaded snapshot (the cached
// answers are only valid against one mapping set), so hot reload invalidates
// it wholesale by swapping the state pointer; hit/miss counters live on the
// cache so /stats can report the live snapshot's hit rate.
type lruCache struct {
	mu    sync.Mutex
	cap   int
	ll    *list.List
	items map[string]*list.Element

	hits   atomic.Int64
	misses atomic.Int64
}

type lruEntry struct {
	key string
	val client.LookupResponse
}

// newLRU returns a cache bounded to capacity entries; capacity < 1 disables
// caching (every get misses, puts are dropped).
func newLRU(capacity int) *lruCache {
	return &lruCache{
		cap:   capacity,
		ll:    list.New(),
		items: make(map[string]*list.Element),
	}
}

func (c *lruCache) get(key string) (client.LookupResponse, bool) {
	if c.cap < 1 {
		c.misses.Add(1)
		return client.LookupResponse{}, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		c.misses.Add(1)
		return client.LookupResponse{}, false
	}
	c.ll.MoveToFront(el)
	c.hits.Add(1)
	return el.Value.(*lruEntry).val, true
}

func (c *lruCache) put(key string, val client.LookupResponse) {
	if c.cap < 1 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		el.Value.(*lruEntry).val = val
		return
	}
	c.items[key] = c.ll.PushFront(&lruEntry{key: key, val: val})
	if c.ll.Len() > c.cap {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.items, oldest.Value.(*lruEntry).key)
	}
}

func (c *lruCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}
