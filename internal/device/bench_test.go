package device

import (
	"testing"

	"netcut/internal/zoo"
)

func BenchmarkPlanDenseNet(b *testing.B) {
	cfg := Xavier()
	g, _ := zoo.ByName("DenseNet-121")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg.Plan(g)
	}
}

func BenchmarkLatencyResNet(b *testing.B) {
	d := New(Xavier())
	g, _ := zoo.ByName("ResNet-50")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.LatencyMs(g)
	}
}

func BenchmarkInferMs(b *testing.B) {
	d := New(Xavier())
	g, _ := zoo.ByName("InceptionV3")
	s := d.Open(g, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.InferMs()
	}
}

func BenchmarkInferProfiledAdd(b *testing.B) {
	d := New(Xavier())
	g, _ := zoo.ByName("InceptionV3")
	s := d.Open(g, 1)
	sums := make([]float64, len(s.ProfiledLayers()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.InferProfiledAdd(sums)
	}
}

func BenchmarkInferProfiledAddDenseNet(b *testing.B) {
	// DenseNet-121 is the worst case: the most layers, the most kernels
	// (concat blocks fusion), so the most rows per profiled run.
	d := New(Xavier())
	g, _ := zoo.ByName("DenseNet-121")
	s := d.Open(g, 1)
	sums := make([]float64, len(s.ProfiledLayers()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.InferProfiledAdd(sums)
	}
}

func BenchmarkOpenCachedPlan(b *testing.B) {
	// After the first Open the fused plan, kernel times and MAC shares
	// come from the device's memoized plan cache.
	d := New(Xavier())
	g, _ := zoo.ByName("DenseNet-121")
	d.Open(g, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Open(g, int64(i))
	}
}

func BenchmarkLatencyMsCached(b *testing.B) {
	// Steady-state latency of an already-planned graph: one fingerprint
	// plus one cache hit.
	d := New(Xavier())
	g, _ := zoo.ByName("DenseNet-121")
	d.LatencyMs(g)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.LatencyMs(g)
	}
}
