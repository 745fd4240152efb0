package engine

import (
	"container/list"
	"sync"
)

// resultCache is a sharded LRU map from cache keys (release ID + canonical
// query signature, see signature.go) to estimates. Sharding bounds lock
// contention: a key is pinned to one shard by a string hash, and each
// shard serializes its own map and recency list behind a private mutex,
// so concurrent batches mostly touch disjoint locks.
//
// There is deliberately no invalidation path. Release IDs name immutable
// versions — a release's content never changes after it becomes ready,
// and IDs are never reused — so an entry can only ever be correct or
// evicted, never stale.
type resultCache struct {
	shards []cacheShard
	mask   uint64
}

type cacheShard struct {
	mu  sync.Mutex
	cap int
	m   map[string]*list.Element
	ll  *list.List // front = most recently used
}

type cacheEntry struct {
	key string
	val float64
}

// cacheShards is the shard count, a power of two so that a key's shard is
// its hash masked.
const cacheShards = 16

// newResultCache sizes a cache holding ~total entries across its shards
// (at least 1 entry per shard). total ≤ 0 returns nil: a nil *resultCache
// is a valid always-miss cache, so a disabled cache costs no branches
// beyond the nil checks.
func newResultCache(total int) *resultCache {
	if total <= 0 {
		return nil
	}
	perShard := (total + cacheShards - 1) / cacheShards
	c := &resultCache{shards: make([]cacheShard, cacheShards), mask: cacheShards - 1}
	for i := range c.shards {
		c.shards[i] = cacheShard{
			cap: perShard,
			m:   make(map[string]*list.Element, perShard),
			ll:  list.New(),
		}
	}
	return c
}

// hashKey is FNV-1a; dependency-free and good enough to spread signatures
// evenly across shards.
func hashKey(s string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime64
	}
	return h
}

func (c *resultCache) shard(key string) *cacheShard {
	return &c.shards[hashKey(key)&c.mask]
}

// get returns the cached estimate and refreshes its recency.
func (c *resultCache) get(key string) (float64, bool) {
	if c == nil {
		return 0, false
	}
	sh := c.shard(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	el, ok := sh.m[key]
	if !ok {
		return 0, false
	}
	sh.ll.MoveToFront(el)
	return el.Value.(*cacheEntry).val, true
}

// put inserts or refreshes an entry, evicting the shard's least recently
// used entry when full.
func (c *resultCache) put(key string, val float64) {
	if c == nil {
		return
	}
	sh := c.shard(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if el, ok := sh.m[key]; ok {
		el.Value.(*cacheEntry).val = val
		sh.ll.MoveToFront(el)
		return
	}
	if sh.ll.Len() >= sh.cap {
		back := sh.ll.Back()
		sh.ll.Remove(back)
		delete(sh.m, back.Value.(*cacheEntry).key)
	}
	sh.m[key] = sh.ll.PushFront(&cacheEntry{key: key, val: val})
}

// len returns the number of cached entries across all shards.
func (c *resultCache) len() int {
	if c == nil {
		return 0
	}
	n := 0
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		n += sh.ll.Len()
		sh.mu.Unlock()
	}
	return n
}
