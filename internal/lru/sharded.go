package lru

import "sync/atomic"

// Sharded is a Cache split into fixed shards by a caller-provided key
// hash, so concurrent load on distinct keys does not serialize on one
// mutex. The per-shard caps sum exactly to the configured total, so a
// Sharded cache bounds the same number of entries as the flat Cache it
// replaces; only the eviction locality changes (strict LRU within a
// shard, approximate LRU across shards). Every value remains a pure
// function of its key, so the transparency contract — eviction can
// change only recompute cost, never results — carries over unchanged.
//
// A bounded total smaller than the shard count routes keys over only
// `total` active shards (each with cap >= 1), because a zero per-shard
// cap would mean unbounded under the package convention; resizing
// across that threshold re-routes keys, which at worst turns a few
// hits into transparent recomputes.
type Sharded[K comparable, V any] struct {
	shards []*Cache[K, V]
	hash   func(K) uint64
	// active is the number of shards keys currently route to; it only
	// drops below len(shards) for bounded totals smaller than the shard
	// count. Atomic so Resize can re-route concurrently with lookups.
	active atomic.Int32
}

// NewSharded returns a cache of `shards` shards whose caps sum to
// totalCap (totalCap <= 0 means every shard is unbounded). hash maps a
// key to its shard; it must be a pure function of the key. Keys that
// should share a shard (e.g. all cuts of one parent graph) should hash
// to the same value.
func NewSharded[K comparable, V any](shards, totalCap int, hash func(K) uint64) *Sharded[K, V] {
	if shards < 1 {
		shards = 1
	}
	s := &Sharded[K, V]{
		shards: make([]*Cache[K, V], shards),
		hash:   hash,
	}
	for i := range s.shards {
		s.shards[i] = New[K, V](0)
	}
	s.Resize(totalCap)
	return s
}

// shardCaps splits totalCap across n active shards so the parts sum
// exactly to totalCap: the first totalCap%n shards get one extra entry.
// A non-positive total makes every shard unbounded. Callers pass
// n <= totalCap for bounded totals, so no part is ever zero.
func shardCaps(n, totalCap int) []int {
	caps := make([]int, n)
	if totalCap <= 0 {
		return caps
	}
	base, rem := totalCap/n, totalCap%n
	for i := range caps {
		caps[i] = base
		if i < rem {
			caps[i]++
		}
	}
	return caps
}

func (s *Sharded[K, V]) shard(key K) *Cache[K, V] {
	return s.shards[int(s.hash(key)%uint64(s.active.Load()))]
}

// Get returns the cached value for key, marking it most recently used
// within its shard.
func (s *Sharded[K, V]) Get(key K) (V, bool) { return s.shard(key).Get(key) }

// Add inserts or refreshes key -> val in its shard and returns the
// resident value (the existing one if a concurrent caller stored first).
func (s *Sharded[K, V]) Add(key K, val V) V { return s.shard(key).Add(key, val) }

// GetOrCompute returns the cached value for key, computing and
// inserting it on a miss; compute runs outside the shard lock.
func (s *Sharded[K, V]) GetOrCompute(key K, compute func() V) V {
	return s.shard(key).GetOrCompute(key, compute)
}

// Len returns the total resident entries across all shards.
func (s *Sharded[K, V]) Len() int {
	n := 0
	for _, sh := range s.shards {
		n += sh.Len()
	}
	return n
}

// Shards returns the configured shard count.
func (s *Sharded[K, V]) Shards() int { return len(s.shards) }

// Purge drops every entry from every shard.
func (s *Sharded[K, V]) Purge() {
	for _, sh := range s.shards {
		sh.Purge()
	}
}

// Snapshot returns every resident entry, iterating shards in index
// order and each shard's entries in LRU order (least recently used
// first). Replaying the slice through Restore reproduces the contents
// and per-shard eviction order, because routing is a pure function of
// the key. The snapshot is per-shard-atomic, like Stats.
func (s *Sharded[K, V]) Snapshot() []Entry[K, V] {
	out := make([]Entry[K, V], 0, s.Len())
	for _, sh := range s.shards {
		out = sh.SnapshotAppend(out)
	}
	return out
}

// Restore inserts entries in slice order, routing each to its shard by
// the key hash; within a shard, later entries end up more recently
// used, the inverse of Snapshot.
func (s *Sharded[K, V]) Restore(entries []Entry[K, V]) {
	for _, e := range entries {
		s.Add(e.Key, e.Val)
	}
}

// Resize redistributes a new total capacity across the shards (parts
// summing exactly to totalCap; <= 0 unbounds every shard), evicting
// least-recently-used entries per shard as needed. Concurrent lookups
// during a resize across the active-shard threshold may transiently
// route to the old shard of a key — a miss that recomputes the same
// value, per the transparency contract.
func (s *Sharded[K, V]) Resize(totalCap int) {
	n := len(s.shards)
	active := n
	if totalCap > 0 && totalCap < n {
		active = totalCap
	}
	caps := shardCaps(active, totalCap)
	for i, sh := range s.shards {
		if i < active {
			sh.Resize(caps[i])
		} else {
			// Inactive shards hold at most one stray entry from a
			// concurrent racer, never unbounded residue.
			sh.Resize(1)
		}
	}
	s.active.Store(int32(active))
	for _, sh := range s.shards[active:] {
		sh.Purge()
	}
}

// Stats aggregates the counters of the active shards (Len additionally
// counts any transient strays in inactive shards): Len, Hits, Misses
// and Evictions sum across shards; Cap is the configured total (0 when
// unbounded). The snapshot is per-shard-atomic, not global.
func (s *Sharded[K, V]) Stats() Stats {
	var out Stats
	active := int(s.active.Load())
	for i, sh := range s.shards {
		st := sh.Stats()
		out.Len += st.Len
		out.Hits += st.Hits
		out.Misses += st.Misses
		out.Evictions += st.Evictions
		if i < active {
			out.Cap += st.Cap
		}
	}
	return out
}

// ShardStats returns each shard's own counters, for tests pinning the
// per-shard bounds and for telemetry that wants the distribution.
func (s *Sharded[K, V]) ShardStats() []Stats {
	out := make([]Stats, len(s.shards))
	for i, sh := range s.shards {
		out[i] = sh.Stats()
	}
	return out
}
