package lru

import (
	"fmt"
	"sync"
	"testing"
)

func TestGetAddBasics(t *testing.T) {
	c := New[string, int](0)
	if _, ok := c.Get("a"); ok {
		t.Fatal("empty cache reported a hit")
	}
	c.Add("a", 1)
	if v, ok := c.Get("a"); !ok || v != 1 {
		t.Fatalf("Get(a) = %d, %v; want 1, true", v, ok)
	}
	// Add on an existing key keeps the canonical first value.
	if v := c.Add("a", 2); v != 1 {
		t.Fatalf("Add on existing key returned %d; want canonical 1", v)
	}
	if v, _ := c.Get("a"); v != 1 {
		t.Fatalf("existing value overwritten: got %d", v)
	}
}

func TestCapNeverExceeded(t *testing.T) {
	const cap = 8
	c := New[int, int](cap)
	for i := 0; i < 10*cap; i++ {
		c.Add(i, i)
		if n := c.Len(); n > cap {
			t.Fatalf("after %d inserts Len = %d exceeds cap %d", i+1, n, cap)
		}
	}
	if n := c.Len(); n != cap {
		t.Fatalf("steady-state Len = %d; want %d", n, cap)
	}
	if s := c.Stats(); s.Evictions != 10*cap-cap {
		t.Fatalf("evictions = %d; want %d", s.Evictions, 10*cap-cap)
	}
}

func TestLRUOrder(t *testing.T) {
	c := New[int, int](2)
	c.Add(1, 1)
	c.Add(2, 2)
	c.Get(1)    // 1 becomes most recent
	c.Add(3, 3) // evicts 2
	if _, ok := c.Get(2); ok {
		t.Fatal("2 should have been evicted (1 was refreshed)")
	}
	for _, k := range []int{1, 3} {
		if _, ok := c.Get(k); !ok {
			t.Fatalf("%d should be resident", k)
		}
	}
}

// TestEvictionTransparency pins the package contract: recomputing an
// evicted key yields a value identical to the one first cached.
func TestEvictionTransparency(t *testing.T) {
	compute := func(k int) string { return fmt.Sprintf("value-%d", k*k) }
	c := New[int, string](4)
	first := make(map[int]string)
	for k := 0; k < 32; k++ {
		first[k] = c.GetOrCompute(k, func() string { return compute(k) })
	}
	// Everything below 28 has been evicted; recompute must reproduce.
	for k := 0; k < 32; k++ {
		got := c.GetOrCompute(k, func() string { return compute(k) })
		if got != first[k] {
			t.Fatalf("key %d: post-eviction value %q differs from original %q", k, got, first[k])
		}
	}
}

func TestPurge(t *testing.T) {
	c := New[int, int](8)
	for i := 0; i < 8; i++ {
		c.Add(i, i)
	}
	c.Purge()
	if n := c.Len(); n != 0 {
		t.Fatalf("Len = %d after Purge", n)
	}
	if s := c.Stats(); s.Evictions != 8 || s.Cap != 8 {
		t.Fatalf("stats after Purge = %+v", s)
	}
	if v := c.GetOrCompute(3, func() int { return 33 }); v != 33 {
		t.Fatalf("recompute after Purge returned %d", v)
	}
}

func TestResize(t *testing.T) {
	c := New[int, int](0)
	for i := 0; i < 100; i++ {
		c.Add(i, i)
	}
	c.Resize(10)
	if n := c.Len(); n != 10 {
		t.Fatalf("after Resize(10) Len = %d", n)
	}
	// The 10 most recently inserted survive.
	for i := 90; i < 100; i++ {
		if _, ok := c.Get(i); !ok {
			t.Fatalf("recently used key %d evicted by Resize", i)
		}
	}
	c.Resize(0)
	for i := 0; i < 100; i++ {
		c.Add(1000+i, i)
	}
	if n := c.Len(); n != 110 {
		t.Fatalf("unbounded after Resize(0): Len = %d; want 110", n)
	}
}

func TestStatsCounters(t *testing.T) {
	c := New[int, int](2)
	c.Get(1)    // miss
	c.Add(1, 1) //
	c.Get(1)    // hit
	c.Add(2, 2) //
	c.Add(3, 3) // evicts 1
	c.Get(1)    // miss
	s := c.Stats()
	if s.Hits != 1 || s.Misses != 2 || s.Evictions != 1 || s.Len != 2 || s.Cap != 2 {
		t.Fatalf("stats = %+v", s)
	}
	if got := s.HitRate(); got != 1.0/3 {
		t.Fatalf("hit rate = %v", got)
	}
}

// TestConcurrentCanonicalValue checks that racing GetOrCompute calls on
// one key all observe a single canonical value, and that concurrent use
// under -race is clean with evictions in flight.
func TestConcurrentCanonicalValue(t *testing.T) {
	c := New[int, *int](16)
	const workers = 8
	const keys = 64
	var wg sync.WaitGroup
	got := make([][]*int, workers)
	for w := 0; w < workers; w++ {
		got[w] = make([]*int, keys)
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := 0; k < keys; k++ {
				v := k
				got[w][k] = c.GetOrCompute(k%7, func() *int { return &v })
			}
		}(w)
	}
	wg.Wait()
	if n := c.Len(); n > 16 {
		t.Fatalf("cap exceeded under concurrency: %d", n)
	}
	// Keys 0..6 never evict (only 7 distinct keys, cap 16) and Add keeps
	// the first-resident value, so every GetOrCompute return for a key —
	// including the racing first round — must be the canonical pointer.
	for k := 0; k < 7; k++ {
		canon, ok := c.Get(k)
		if !ok {
			t.Fatalf("key %d missing", k)
		}
		for w := 0; w < workers; w++ {
			for i := k; i < keys; i += 7 {
				if got[w][i] != canon {
					t.Fatalf("worker %d iteration %d saw non-canonical value for key %d", w, i, k)
				}
			}
		}
	}
}
