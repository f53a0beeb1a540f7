package trim

import (
	"testing"

	"netcut/internal/graph"
	"netcut/internal/zoo"
)

// TestCutScopedNonzeroBypassesCache pins the benchmark shim: a nonzero
// scope builds the cut without reading or filling the cut cache, so
// every call is a cold build, and it returns the same TRN that Cut
// caches.
func TestCutScopedNonzeroBypassesCache(t *testing.T) {
	PurgeCutCache()
	t.Cleanup(PurgeCutCache)
	g := zoo.MobileNetV1(0.5)
	want, err := Cut(g, 3, DefaultHead)
	if err != nil {
		t.Fatal(err)
	}
	before := CutCacheStats()
	for scope := uint64(1); scope <= 3; scope++ {
		got, err := CutScoped(scope, g, 3, DefaultHead)
		if err != nil {
			t.Fatal(err)
		}
		if got == want {
			t.Fatalf("scope %d returned the cached *TRN", scope)
		}
		if got.Name() != want.Name() || graph.Fingerprint(got.Graph) != graph.Fingerprint(want.Graph) {
			t.Fatalf("scope %d built %s, Cut built %s", scope, got.Name(), want.Name())
		}
	}
	after := CutCacheStats()
	if after.Len != before.Len || after.Hits != before.Hits || after.Misses != before.Misses {
		t.Fatalf("nonzero-scope cuts touched the cache: %+v -> %+v", before, after)
	}
	if got, err := CutScoped(0, g, 3, DefaultHead); err != nil || got != want {
		t.Fatalf("scope 0 = %p, %v; want Cut's cached %p", got, err, want)
	}
}

// TestEnumerateBlockwiseScopedIgnoresScope pins the other benchmark
// shim: any scope enumerates the cached blockwise family itself.
func TestEnumerateBlockwiseScopedIgnoresScope(t *testing.T) {
	PurgeCutCache()
	t.Cleanup(PurgeCutCache)
	g := zoo.MobileNetV1(0.5)
	want, err := EnumerateBlockwise(g, DefaultHead, true)
	if err != nil {
		t.Fatal(err)
	}
	got, err := EnumerateBlockwiseScoped(0xA11CE, g, DefaultHead, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("%d TRNs, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("TRN %d is not EnumerateBlockwise's *TRN", i)
		}
	}
}
