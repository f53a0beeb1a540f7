package profiler

import (
	"fmt"
	"reflect"
	"testing"

	"netcut/internal/device"
	"netcut/internal/graph"
)

func variantNet(i int) *graph.Graph {
	b := graph.NewBuilder(fmt.Sprintf("variant-%d", i), graph.Shape{H: 16, W: 16, C: 3}, 4)
	x := b.Input()
	x = b.ConvBNReLU(x, 3, 8+i%5, 1, graph.Same)
	b.BeginHead()
	x = b.GlobalAvgPool(x)
	x = b.Dense(x, 4)
	b.Softmax(x)
	return b.MustFinish()
}

// TestMeasurementEvictionTransparent forces the measurement and table
// caches to evict and checks that re-measuring an evicted network
// reproduces the pre-eviction Measurement and Table exactly, and that
// the caches never exceed their caps.
func TestMeasurementEvictionTransparent(t *testing.T) {
	p, err := New(device.New(device.Xavier()), Protocol{WarmupRuns: 5, TimedRuns: 20}, 7)
	if err != nil {
		t.Fatal(err)
	}
	const cap = 3
	p.SetCacheCaps(cap, cap)

	g0 := variantNet(0)
	wantM := p.Measure(g0)
	wantT := p.Profile(g0)

	for i := 1; i < 12; i++ { // evict variant-0 from both caches
		g := variantNet(i)
		p.Measure(g)
		p.Profile(g)
		mStats, tStats := p.CacheStats()
		if mStats.Len > cap || tStats.Len > cap {
			t.Fatalf("cache size exceeded cap: measurements %d, tables %d > %d", mStats.Len, tStats.Len, cap)
		}
	}
	mStats, tStats := p.CacheStats()
	if mStats.Evictions == 0 || tStats.Evictions == 0 {
		t.Fatalf("expected evictions; stats %+v / %+v", mStats, tStats)
	}

	// Fresh copies of the evicted structure: a structural re-measure.
	gotM := p.Measure(variantNet(0))
	gotT := p.Profile(variantNet(0))
	if gotM != wantM {
		t.Fatalf("post-eviction Measurement %+v differs from original %+v", gotM, wantM)
	}
	if !reflect.DeepEqual(gotT, wantT) {
		t.Fatalf("post-eviction Table differs from original:\n got %+v\nwant %+v", gotT, wantT)
	}
}
