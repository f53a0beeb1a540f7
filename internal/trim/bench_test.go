package trim

import (
	"runtime"
	"testing"

	"netcut/internal/graph"
	"netcut/internal/zoo"
)

// BenchmarkCut times one blockwise cut of ResNet-50 (9 blocks removed)
// on a cut-cache miss (cold: every op uses a fresh cache scope, so the
// cut is derived from scratch) and on a hit (warm). Both report
// retained_B/cut: the live heap one cached cut holds, measured after
// runtime.GC() with retainedCuts distinct cuts of the shared parent in
// the cache.
func BenchmarkCut(b *testing.B) {
	g := zoo.ResNet50()
	b.Run("cold", func(b *testing.B) {
		b.ReportAllocs()
		scope := uint64(0)
		for b.Loop() {
			scope++
			if _, err := CutScoped(scope, g, 9, DefaultHead); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		b.ReportMetric(retainedPerCut(b, g), "retained_B/cut")
	})
	b.Run("warm", func(b *testing.B) {
		if _, err := Cut(g, 9, DefaultHead); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		for b.Loop() {
			if _, err := Cut(g, 9, DefaultHead); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		b.ReportMetric(retainedPerCut(b, g), "retained_B/cut")
	})
}

// retainedCuts is how many cuts retainedPerCut caches: well under one
// shard's share of the default cap, so none is evicted.
const retainedCuts = 256

// retainedPerCut caches retainedCuts distinct cuts of g (one per cache
// scope) into an empty cut cache and returns the live-heap growth per
// cut. The parent is shared and already live, so it is not counted.
func retainedPerCut(b *testing.B, g *graph.Graph) float64 {
	PurgeCutCache()
	defer PurgeCutCache()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 1; i <= retainedCuts; i++ {
		if _, err := CutScoped(uint64(i), g, 9, DefaultHead); err != nil {
			b.Fatal(err)
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	return float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / retainedCuts
}

func BenchmarkEnumerateBlockwiseDenseNet(b *testing.B) {
	g := zoo.DenseNet121()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := EnumerateBlockwise(g, DefaultHead, false); err != nil {
			b.Fatal(err)
		}
	}
}
