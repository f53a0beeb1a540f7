package lru

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"netcut/internal/telemetry"
)

func TestShardCapsSumExactly(t *testing.T) {
	for _, tc := range []struct{ n, total int }{
		{16, 8192}, {16, 8191}, {3, 10}, {5, 5}, {1, 100},
	} {
		caps := shardCaps(tc.n, tc.total)
		sum := 0
		for _, c := range caps {
			sum += c
			if c < 0 {
				t.Fatalf("n=%d total=%d: negative shard cap %d", tc.n, tc.total, c)
			}
		}
		if sum != tc.total {
			t.Fatalf("n=%d total=%d: caps sum to %d", tc.n, tc.total, sum)
		}
	}
	for _, c := range shardCaps(4, 0) {
		if c != 0 {
			t.Fatalf("unbounded total produced bounded shard cap %d", c)
		}
	}
}

func TestShardedBasicsAndBounds(t *testing.T) {
	const shards, total = 4, 8
	s := NewSharded[int, string](shards, total, func(k int) uint64 { return uint64(k) })
	if s.Shards() != shards {
		t.Fatalf("shards = %d", s.Shards())
	}
	for i := 0; i < 64; i++ {
		s.Add(i, fmt.Sprint(i))
	}
	if s.Len() > total {
		t.Fatalf("len %d exceeds total cap %d", s.Len(), total)
	}
	for i, st := range s.ShardStats() {
		if st.Len > st.Cap {
			t.Fatalf("shard %d holds %d > cap %d", i, st.Len, st.Cap)
		}
	}
	agg := s.Stats()
	if agg.Cap != total {
		t.Fatalf("aggregate cap = %d, want %d", agg.Cap, total)
	}
	if agg.Evictions == 0 {
		t.Fatal("64 inserts into cap 8 produced no evictions")
	}
	// Most-recent keys per shard are resident.
	if v, ok := s.Get(63); !ok || v != "63" {
		t.Fatalf("Get(63) = %q, %v", v, ok)
	}
}

func TestShardedSameHashSameShard(t *testing.T) {
	s := NewSharded[int, int](8, 80, func(k int) uint64 { return uint64(k % 3) })
	for i := 0; i < 30; i++ {
		s.Add(i, i)
	}
	used := 0
	for _, st := range s.ShardStats() {
		if st.Len > 0 {
			used++
		}
	}
	if used != 3 {
		t.Fatalf("3 hash classes landed in %d shards", used)
	}
}

// TestShardedTinyTotalStaysBounded pins the active-shard routing: a
// bounded total below the shard count must still bound the cache at
// exactly that total (a zero per-shard cap would mean unbounded).
func TestShardedTinyTotalStaysBounded(t *testing.T) {
	s := NewSharded[int, int](16, 3, func(k int) uint64 { return uint64(k) })
	for i := 0; i < 64; i++ {
		s.Add(i, i)
	}
	if s.Len() > 3 {
		t.Fatalf("len %d exceeds tiny total cap 3", s.Len())
	}
	if got := s.Stats().Cap; got != 3 {
		t.Fatalf("aggregate cap = %d, want 3", got)
	}
	// Growing back across the threshold re-activates every shard.
	s.Resize(32)
	for i := 0; i < 32; i++ {
		s.Add(i, i)
	}
	if s.Len() > 32 {
		t.Fatalf("len %d exceeds cap 32 after regrow", s.Len())
	}
	if got := s.Stats().Cap; got != 32 {
		t.Fatalf("aggregate cap = %d, want 32 after regrow", got)
	}
}

func TestShardedGetOrComputeSingleValue(t *testing.T) {
	s := NewSharded[int, *int](4, 16, func(k int) uint64 { return uint64(k) })
	var wg sync.WaitGroup
	vals := make([]*int, 16)
	for i := range vals {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			vals[i] = s.GetOrCompute(7, func() *int { v := 7; return &v })
		}(i)
	}
	wg.Wait()
	for i := 1; i < len(vals); i++ {
		if vals[i] != vals[0] {
			t.Fatal("concurrent GetOrCompute returned distinct canonical values")
		}
	}
}

func TestShardedResizeAndPurge(t *testing.T) {
	s := NewSharded[int, int](4, 100, func(k int) uint64 { return uint64(k) })
	for i := 0; i < 100; i++ {
		s.Add(i, i)
	}
	s.Resize(8)
	if s.Len() > 8 {
		t.Fatalf("len %d after resize to 8", s.Len())
	}
	if got := s.Stats().Cap; got != 8 {
		t.Fatalf("cap %d after resize, want 8", got)
	}
	s.Purge()
	if s.Len() != 0 {
		t.Fatalf("len %d after purge", s.Len())
	}
	s.Resize(0)
	for i := 0; i < 50; i++ {
		s.Add(i, i)
	}
	if s.Len() != 50 {
		t.Fatalf("unbounded resize still evicting: len %d", s.Len())
	}
}

func TestInstrumentRegistersStandardSeries(t *testing.T) {
	reg := telemetry.NewRegistry()
	c := New[int, int](4)
	Instrument(reg, "test_cache", c)
	c.Add(1, 1)
	c.Get(1)
	c.Get(2)
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"test_cache_entries 1",
		"test_cache_cap 4",
		"test_cache_hits_total 1",
		"test_cache_misses_total 1",
		"test_cache_evictions_total 0",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
	// Sharded satisfies the same source interface.
	Instrument(reg, "test_sharded", NewSharded[int, int](2, 4, func(k int) uint64 { return uint64(k) }))
}
