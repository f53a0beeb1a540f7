package profiler

import (
	"testing"

	"netcut/internal/device"
	"netcut/internal/graph"
)

// BenchmarkProfile times the profiler's protocol runs on a cold graph:
// "profile" is a fresh profiler's per-layer table build, "measure" is
// one end-to-end Measure, and "measure_profile" is both in one
// MeasureProfile, which is the cold measure phase of a
// profiler-estimator request: one shared warm-up, then the two timed
// phases as two tasks, side by side when GOMAXPROCS > 1 (compare with
// -cpu 1 for the serial schedule). Every iteration starts from a fresh
// device and profiler, so no plan, table or measurement is cached, as
// for a never-seen graph posted to the gateway.
func BenchmarkProfile(b *testing.B) {
	g := coldGraph()
	fresh := func(b *testing.B) *Profiler {
		p, err := New(device.New(device.Xavier()), PaperProtocol(), 11)
		if err != nil {
			b.Fatal(err)
		}
		return p
	}
	b.Run("profile", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			fresh(b).Profile(g)
		}
	})
	b.Run("measure", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			fresh(b).Measure(g)
		}
	})
	b.Run("measure_profile", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			fresh(b).MeasureProfile(g)
		}
	})
}

// coldGraph is a 59-node residual network, the size of the graphs the
// cold-graphs benchmark workload posts.
func coldGraph() *graph.Graph {
	b := graph.NewBuilder("cold-bench-net", graph.Shape{H: 32, W: 32, C: 3}, 10)
	x := b.Input()
	x = b.ConvBNReLU(x, 3, 16, 2, graph.Same)
	for i := 0; i < 13; i++ {
		b.BeginBlock("")
		y := b.ConvBNReLU(x, 3, 16, 1, graph.Same)
		x = b.Add(y, x)
		b.EndBlock()
	}
	b.BeginHead()
	x = b.GlobalAvgPool(x)
	x = b.Dense(x, 10)
	b.Softmax(x)
	return b.MustFinish()
}
