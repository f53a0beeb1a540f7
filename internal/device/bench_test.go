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

// timedRuns is the paper protocol's timed-run count.
const timedRuns = 800

// inferRuns runs b.N inferences on s through Infer, timedRuns per call
// as the profiler does, so ns/op is the cost of one run on the block
// path: its share of a block's NormFill plus its formula.
func inferRuns(b *testing.B, s *Session, lat, sums []float64) {
	b.ReportAllocs()
	b.ResetTimer()
	for done := 0; done < b.N; done += timedRuns {
		s.Infer(min(timedRuns, b.N-done), lat, sums)
	}
}

func BenchmarkInferMs(b *testing.B) {
	d := New(Xavier())
	g, _ := zoo.ByName("InceptionV3")
	inferRuns(b, d.Open(g, 1), make([]float64, timedRuns), nil)
}

func BenchmarkInferProfiledAdd(b *testing.B) {
	d := New(Xavier())
	g, _ := zoo.ByName("InceptionV3")
	s := d.Open(g, 1)
	inferRuns(b, s, nil, make([]float64, len(s.ProfiledLayers())))
}

func BenchmarkInferProfiledAddDenseNet(b *testing.B) {
	// DenseNet-121 is the worst case: the most layers, the most kernels
	// (concat blocks fusion), so the most rows per profiled run.
	d := New(Xavier())
	g, _ := zoo.ByName("DenseNet-121")
	s := d.Open(g, 1)
	inferRuns(b, s, nil, make([]float64, len(s.ProfiledLayers())))
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
