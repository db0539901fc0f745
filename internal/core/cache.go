package core

import (
	"container/list"
	"sync"
	"sync/atomic"

	"aft/internal/strhash"
)

// dataCache is the node's read cache for key-version payloads (§3.1): it
// stores values for a subset of the versions in the metadata cache, keyed
// by storage key, with LRU eviction. Because AFT never overwrites a key
// version in place, cached entries can never be stale — eviction exists
// purely to bound memory.
//
// The cache is sharded by storage-key hash so parallel readers do not
// serialize on one LRU lock; each shard keeps its own recency list and an
// equal slice of the capacity.
type dataCache struct {
	shards []*cacheShard
	mask   uint32
}

// cacheShardCount is the shard count (power of two) for large caches;
// enough to keep reader collisions rare at high core counts. Small caches stay on one shard: per-shard LRU is only a
// faithful approximation of global LRU when each shard holds many entries,
// and exact eviction order matters more than lock spread at tiny sizes.
const (
	cacheShardCount    = 16
	cacheShardMinTotal = 256
)

type cacheShard struct {
	mu      sync.Mutex
	cap     int
	entries map[string]*list.Element
	order   *list.List // front = most recently used
	// bytes sums cached key and value lengths; written under mu, read
	// atomically by cross-shard budget checks.
	bytes atomic.Int64
}

type cacheEntry struct {
	key   string
	value []byte
}

// newDataCache returns a cache bounded to capacity entries in total.
func newDataCache(capacity int) *dataCache {
	if capacity < 1 {
		capacity = 1
	}
	nshards := 1
	if capacity >= cacheShardMinTotal {
		nshards = cacheShardCount
	}
	perShard := capacity / nshards
	c := &dataCache{shards: make([]*cacheShard, nshards), mask: uint32(nshards - 1)}
	for i := range c.shards {
		c.shards[i] = &cacheShard{
			cap:     perShard,
			entries: make(map[string]*list.Element),
			order:   list.New(),
		}
	}
	return c
}

func (c *dataCache) shardFor(storageKey string) *cacheShard {
	return c.shards[strhash.FNV32a(storageKey)&c.mask]
}

// get returns a copy of the cached value, if present.
func (c *dataCache) get(storageKey string) ([]byte, bool) {
	if c == nil {
		return nil, false
	}
	s := c.shardFor(storageKey)
	s.mu.Lock()
	defer s.mu.Unlock()
	el, ok := s.entries[storageKey]
	if !ok {
		return nil, false
	}
	s.order.MoveToFront(el)
	v := el.Value.(*cacheEntry).value
	out := make([]byte, len(v))
	copy(out, v)
	return out, true
}

// put inserts a copy of value, evicting the shard's least recently used
// entry when full.
func (c *dataCache) put(storageKey string, value []byte) {
	if c == nil {
		return
	}
	v := make([]byte, len(value))
	copy(v, value)
	s := c.shardFor(storageKey)
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.entries[storageKey]; ok {
		e := el.Value.(*cacheEntry)
		s.bytes.Add(int64(len(v) - len(e.value)))
		e.value = v
		s.order.MoveToFront(el)
		return
	}
	for len(s.entries) >= s.cap {
		if !s.dropOldestLocked() {
			break
		}
	}
	s.entries[storageKey] = s.order.PushFront(&cacheEntry{key: storageKey, value: v})
	s.bytes.Add(int64(len(storageKey) + len(v)))
}

// dropOldestLocked evicts the shard's least recently used entry,
// reporting whether one existed. Callers hold s.mu.
func (s *cacheShard) dropOldestLocked() bool {
	back := s.order.Back()
	if back == nil {
		return false
	}
	e := back.Value.(*cacheEntry)
	s.order.Remove(back)
	delete(s.entries, e.key)
	s.bytes.Add(-int64(len(e.key) + len(e.value)))
	return true
}

// evict removes storageKey if cached.
func (c *dataCache) evict(storageKey string) {
	if c == nil {
		return
	}
	s := c.shardFor(storageKey)
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.entries[storageKey]; ok {
		e := el.Value.(*cacheEntry)
		s.order.Remove(el)
		delete(s.entries, storageKey)
		s.bytes.Add(-int64(len(e.key) + len(e.value)))
	}
}

// len returns the number of cached entries.
func (c *dataCache) len() int {
	if c == nil {
		return 0
	}
	total := 0
	for _, s := range c.shards {
		s.mu.Lock()
		total += len(s.entries)
		s.mu.Unlock()
	}
	return total
}

// byteSize returns the approximate bytes held by cached payloads.
func (c *dataCache) byteSize() int64 {
	if c == nil {
		return 0
	}
	var total int64
	for _, s := range c.shards {
		total += s.bytes.Load()
	}
	return total
}

// shrink evicts least-recently-used entries, round-robin across shards,
// until the cache holds at most maxBytes of payload (or is empty). It
// returns the number of entries evicted. Cached payloads are pure
// re-fetchable copies of durable storage state, so shrinking never loses
// anything — it is the memory budget's cheapest relief valve.
func (c *dataCache) shrink(maxBytes int64) int {
	if c == nil {
		return 0
	}
	evicted := 0
	for c.byteSize() > maxBytes {
		progressed := false
		for _, s := range c.shards {
			s.mu.Lock()
			if s.bytes.Load() > maxBytes/int64(len(c.shards)) && s.dropOldestLocked() {
				evicted++
				progressed = true
			}
			s.mu.Unlock()
		}
		if !progressed {
			// Remaining bytes are spread below the per-shard share;
			// finish with a global pass so tiny budgets still converge.
			for _, s := range c.shards {
				s.mu.Lock()
				for s.bytes.Load() > 0 && c.byteSize() > maxBytes && s.dropOldestLocked() {
					evicted++
				}
				s.mu.Unlock()
			}
			break
		}
	}
	return evicted
}
