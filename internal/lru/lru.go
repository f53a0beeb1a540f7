// Package lru provides the bounded, concurrency-safe cache behind
// every structure-keyed memoization layer in the measurement pipeline
// (device kernel plans, profiler measurements and tables, trimmed
// networks).
//
// The unbounded sync.Map caches of the figure-reproduction pipeline are
// fine for the paper's fixed zoo, but a planning service measuring a
// stream of arbitrary user graphs sees an unbounded set of distinct
// structures; Cache caps each layer so the service runs in constant
// memory.
//
// Determinism contract: a Cache is *transparent* — every value it holds
// is a pure function of its key, so evicting an entry can never change
// a result, only the cost of recomputing it. Eviction order itself is
// deterministic given the operation order (strict least-recently-used),
// but because concurrent schedules permute the operation order, nothing
// downstream is allowed to depend on *which* entries are resident —
// only on the recompute-equals-original property, which the
// eviction-correctness tests pin.
package lru

import (
	"container/list"
	"sync"
)

// Cache is a bounded LRU map from K to V. The zero value is not usable;
// use New. A cap <= 0 means unbounded (the paper-pipeline default,
// where the working set is the fixed 7-network zoo and its 148 TRNs).
type Cache[K comparable, V any] struct {
	mu    sync.Mutex
	cap   int
	items map[K]*list.Element
	order *list.List // front = most recently used

	hits      uint64
	misses    uint64
	evictions uint64
}

type entry[K comparable, V any] struct {
	key K
	val V
}

// New returns a Cache holding at most cap entries; cap <= 0 means
// unbounded.
func New[K comparable, V any](cap int) *Cache[K, V] {
	return &Cache[K, V]{
		cap:   cap,
		items: make(map[K]*list.Element),
		order: list.New(),
	}
}

// Get returns the cached value for key, marking it most recently used.
func (c *Cache[K, V]) Get(key K) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		c.order.MoveToFront(el)
		c.hits++
		return el.Value.(*entry[K, V]).val, true
	}
	c.misses++
	var zero V
	return zero, false
}

// Add inserts or refreshes key -> val and returns the resident value:
// the existing one if a concurrent caller stored first (so all callers
// share one canonical value, the way sync.Map.LoadOrStore does), else
// val. Inserting beyond the cap evicts the least recently used entry.
func (c *Cache[K, V]) Add(key K, val V) V {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		c.order.MoveToFront(el)
		return el.Value.(*entry[K, V]).val
	}
	el := c.order.PushFront(&entry[K, V]{key: key, val: val})
	c.items[key] = el
	if c.cap > 0 && c.order.Len() > c.cap {
		c.evictOldest()
	}
	return val
}

// evictOldest removes the back of the recency list. Caller holds mu.
func (c *Cache[K, V]) evictOldest() {
	el := c.order.Back()
	if el == nil {
		return
	}
	c.order.Remove(el)
	delete(c.items, el.Value.(*entry[K, V]).key)
	c.evictions++
}

// GetOrCompute returns the cached value for key, computing and
// inserting it on a miss. compute runs outside the cache lock, so
// concurrent misses on the same key may compute concurrently; callers
// rely on compute being a pure function of key (the package-wide
// transparency contract), so whichever insert lands first becomes the
// canonical value and every caller receives it.
func (c *Cache[K, V]) GetOrCompute(key K, compute func() V) V {
	if v, ok := c.Get(key); ok {
		return v
	}
	return c.Add(key, compute())
}

// Contains reports whether key is resident, without touching recency
// order or the hit/miss counters — a pure peek, usable for metrics
// classification without perturbing what it observes.
func (c *Cache[K, V]) Contains(key K) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.items[key]
	return ok
}

// Len returns the number of resident entries.
func (c *Cache[K, V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}

// Cap returns the configured capacity (<= 0 means unbounded).
func (c *Cache[K, V]) Cap() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.cap
}

// Purge drops every entry (counted as evictions), keeping the cap.
// Values are pure functions of their keys, so a purge — like any
// eviction — only restores recompute cost; benchmarks use it to
// measure genuinely cold paths through process-wide caches.
func (c *Cache[K, V]) Purge() {
	c.mu.Lock()
	defer c.mu.Unlock()
	for c.order.Len() > 0 {
		c.evictOldest()
	}
}

// Entry is one key/value pair of a Snapshot.
type Entry[K comparable, V any] struct {
	Key K
	Val V
}

// Snapshot returns every resident entry in LRU order — least recently
// used first — so that replaying the slice through Restore reproduces
// both the contents and the eviction order of the cache. The snapshot
// is taken under the cache lock (point-in-time consistent) and does not
// touch recency order or the hit/miss counters. Values are shared, not
// copied: the package-wide convention that cached values are immutable
// pure functions of their keys is what makes sharing safe.
func (c *Cache[K, V]) Snapshot() []Entry[K, V] {
	return c.SnapshotAppend(nil)
}

// SnapshotAppend is Snapshot appending into dst, so a caller draining
// many caches (a sharded snapshot, a section writer) fills one
// preallocated slice instead of allocating and copying per cache.
func (c *Cache[K, V]) SnapshotAppend(dst []Entry[K, V]) []Entry[K, V] {
	c.mu.Lock()
	defer c.mu.Unlock()
	if dst == nil {
		dst = make([]Entry[K, V], 0, c.order.Len())
	}
	for el := c.order.Back(); el != nil; el = el.Prev() {
		e := el.Value.(*entry[K, V])
		dst = append(dst, Entry[K, V]{Key: e.key, Val: e.val})
	}
	return dst
}

// Restore inserts entries in slice order, so the last entry becomes the
// most recently used — the inverse of Snapshot. It adds to whatever is
// already resident (callers wanting an exact replica Purge first) and
// respects the cap: restoring more entries than fit evicts from the
// front of the slice, exactly as live inserts in that order would.
func (c *Cache[K, V]) Restore(entries []Entry[K, V]) {
	for _, e := range entries {
		c.Add(e.Key, e.Val)
	}
}

// Resize changes the capacity, evicting least-recently-used entries if
// the new cap is below the current size. cap <= 0 means unbounded.
func (c *Cache[K, V]) Resize(cap int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.cap = cap
	if cap > 0 {
		for c.order.Len() > cap {
			c.evictOldest()
		}
	}
}

// Stats is a point-in-time snapshot of cache effectiveness counters.
type Stats struct {
	Len       int
	Cap       int
	Hits      uint64
	Misses    uint64
	Evictions uint64
}

// HitRate returns Hits / (Hits + Misses), or 0 before any lookup.
func (s Stats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// Stats returns a snapshot of the cache counters.
func (c *Cache[K, V]) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{
		Len:       c.order.Len(),
		Cap:       c.cap,
		Hits:      c.hits,
		Misses:    c.misses,
		Evictions: c.evictions,
	}
}
