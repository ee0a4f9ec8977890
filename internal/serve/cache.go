package serve

import (
	"container/list"
	"sync"
	"sync/atomic"
)

// cache is the single-flight LRU behind both served caches: resolvers
// (the O(n^3/eps) Theorem 3 locator is the expensive occupant) and
// schedules. Its keys name the registry slot (*netEntry), never the
// network name: a re-created name gets a new slot, so nothing a deleted
// network built — not even a build still in flight across the DELETE —
// can match a key of its namesake.
//
// The properties the rest of the package relies on:
//
//  1. Single flight: while a key's entry is in the map, exactly one
//     caller runs its build; every other get of the key waits for that
//     build and shares its value or its error. A caller with a fresh
//     predicate cannot tell which generation a failure was for, so it
//     goes round instead, joining or starting the retry.
//  2. Only completed entries are LRU-evicted. An in-flight build is
//     never evicted, so the cache can transiently exceed its capacity
//     under a burst of distinct first-time keys.
//  3. drop removes a slot's entries, in-flight ones included. Their
//     waiters keep the entry pointer and complete normally; the entry
//     just stops being findable, and a finished build touches the map
//     only if the map still points at its entry.
//  4. A failed build is removed, so a later get retries it.
//  5. A completed value the caller's fresh predicate rejects is handed
//     to a new build as prev (the schedule path repairs it); waiters
//     on that rebuild join it as in 1.
//
// Every get is counted once, either as a hit or as a build.
type cache[K slotKey, V any] struct {
	mu      sync.Mutex
	cap     int
	entries map[K]*list.Element
	lru     *list.List // of *flight[K, V], front = most recently used
	hits    atomic.Int64
	builds  atomic.Int64
	evicted atomic.Int64 // LRU evictions (capacity pressure)
	dropped atomic.Int64 // entries removed by drop
}

// slotKey is a cache key: it names the registry slot its entry belongs
// to and, for per-generation entries, the slot's version (0 otherwise).
type slotKey interface {
	comparable
	slotVersion() (*netEntry, uint64)
}

// flight is one cached (possibly still building) value. ready is closed
// when val/err are final; done mirrors the close under the cache mutex
// so eviction can skip in-flight builds without waiting.
type flight[K slotKey, V any] struct {
	key   K
	ready chan struct{}
	done  bool
	val   V
	err   error
}

func newCache[K slotKey, V any](capacity int) *cache[K, V] {
	return &cache[K, V]{cap: capacity, entries: make(map[K]*list.Element), lru: list.New()}
}

// get returns the value for key and whether it came without a build.
// On a miss — or when fresh is non-nil and rejects the completed value
// — the caller runs build, which receives the rejected value as prev
// (the zero V on a plain miss).
func (c *cache[K, V]) get(key K, fresh func(V) bool, build func(prev V) (V, error)) (V, bool, error) {
	for {
		c.mu.Lock()
		el, ok := c.entries[key]
		if !ok {
			f := &flight[K, V]{key: key, ready: make(chan struct{})}
			c.entries[key] = c.lru.PushFront(f)
			c.evictLocked()
			c.mu.Unlock()
			var zero V
			return c.run(f, zero, build)
		}
		f := el.Value.(*flight[K, V])
		c.lru.MoveToFront(el)
		c.mu.Unlock()
		<-f.ready
		if fresh == nil || f.err == nil && fresh(f.val) {
			c.hits.Add(1)
			return f.val, true, f.err
		}
		// Superseded: replace the entry with a fresh in-flight one if no
		// one else has yet, otherwise go round and join the winner's. A
		// failed entry has already left the map, so its waiters go round.
		c.mu.Lock()
		if el2, ok := c.entries[key]; ok && el2.Value.(*flight[K, V]) == f {
			nf := &flight[K, V]{key: key, ready: make(chan struct{})}
			el2.Value = nf
			c.mu.Unlock()
			return c.run(nf, f.val, build)
		}
		c.mu.Unlock()
	}
}

// run executes build outside the lock and publishes the outcome to
// every waiter on f.
func (c *cache[K, V]) run(f *flight[K, V], prev V, build func(prev V) (V, error)) (V, bool, error) {
	c.builds.Add(1)
	val, err := build(prev)
	c.mu.Lock()
	f.val, f.err, f.done = val, err, true
	if el, ok := c.entries[f.key]; ok && err != nil && el.Value.(*flight[K, V]) == f {
		c.lru.Remove(el)
		delete(c.entries, f.key)
	}
	c.mu.Unlock()
	close(f.ready)
	return val, false, err
}

// evictLocked removes completed least-recently-used entries until the
// cache is within capacity. Callers hold c.mu.
func (c *cache[K, V]) evictLocked() {
	for el := c.lru.Back(); el != nil && len(c.entries) > c.cap; {
		prev := el.Prev()
		if f := el.Value.(*flight[K, V]); f.done {
			c.lru.Remove(el)
			delete(c.entries, f.key)
			c.evicted.Add(1)
		}
		el = prev
	}
}

// drop removes every entry of slot with a version below before,
// in-flight builds included.
func (c *cache[K, V]) drop(slot *netEntry, before uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for el := c.lru.Front(); el != nil; {
		next := el.Next()
		f := el.Value.(*flight[K, V])
		if s, v := f.key.slotVersion(); s == slot && v < before {
			c.lru.Remove(el)
			delete(c.entries, f.key)
			c.dropped.Add(1)
		}
		el = next
	}
}

// Len returns the number of cached (or building) entries.
func (c *cache[K, V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}
