package kvs

import "container/list"

// valueCache is the NIC-local hot-value cache (KV-Direct style, the
// paper's reference [30]): an LRU of up to cap entries kept in the NIC's
// own memory. A cache hit serves a get without touching the data plane at
// all — the strongest form of "the CPU (and here even the SSD) is not
// involved".
//
// Consistency: the store is the file's only writer, so write-through
// updates on put and eviction on delete keep the cache exact (never
// stale). It is cleared on recovery because the rebuilt index may reflect
// a different prefix of the log than the cache observed.
type valueCache struct {
	cap     int
	entries map[string]*list.Element
	lru     *list.List // front = most recent
}

type cacheEntry struct {
	key string
	val []byte
}

func newValueCache(capacity int) *valueCache {
	return &valueCache{
		cap:     capacity,
		entries: make(map[string]*list.Element, capacity),
		lru:     list.New(),
	}
}

// get returns the cached value and marks it most recently used.
func (c *valueCache) get(key string) ([]byte, bool) {
	el, ok := c.entries[key]
	if !ok {
		return nil, false
	}
	c.lru.MoveToFront(el)
	return el.Value.(*cacheEntry).val, true
}

// put inserts or refreshes an entry, evicting the LRU tail as needed.
func (c *valueCache) put(key string, val []byte) {
	if el, ok := c.entries[key]; ok {
		el.Value.(*cacheEntry).val = val
		c.lru.MoveToFront(el)
		return
	}
	for len(c.entries) >= c.cap {
		tail := c.lru.Back()
		if tail == nil {
			break
		}
		c.lru.Remove(tail)
		delete(c.entries, tail.Value.(*cacheEntry).key)
	}
	c.entries[key] = c.lru.PushFront(&cacheEntry{key: key, val: val})
}

// drop removes an entry (delete path).
func (c *valueCache) drop(key string) {
	if el, ok := c.entries[key]; ok {
		c.lru.Remove(el)
		delete(c.entries, key)
	}
}

// clear empties the cache (recovery path).
func (c *valueCache) clear() {
	c.entries = make(map[string]*list.Element, c.cap)
	c.lru.Init()
}
