package device

import (
	"fmt"
	"testing"

	"netcut/internal/graph"
)

// variantNet builds a structurally distinct small network per index, so
// tests can stream "arbitrary user graphs" through the caches.
func variantNet(i int) *graph.Graph {
	b := graph.NewBuilder(fmt.Sprintf("variant-%d", i), graph.Shape{H: 16, W: 16, C: 3}, 4)
	x := b.Input()
	x = b.ConvBNReLU(x, 3, 8+i%5, 1, graph.Same)
	b.BeginBlock("b0")
	x = b.ConvBNReLU(x, 3, 8+i%5, 1, graph.Same)
	b.EndBlock()
	b.BeginHead()
	x = b.GlobalAvgPool(x)
	x = b.Dense(x, 4)
	b.Softmax(x)
	return b.MustFinish()
}

// TestPlanCacheCapNeverExceeded streams many distinct structures
// through a small plan cache and checks the bound holds throughout.
func TestPlanCacheCapNeverExceeded(t *testing.T) {
	d := New(Xavier())
	const cap = 4
	d.SetPlanCacheCap(cap)
	for i := 0; i < 10*cap; i++ {
		d.LatencyMs(variantNet(i))
		if n := d.PlanCacheStats().Len; n > cap {
			t.Fatalf("after %d distinct graphs plan cache holds %d > cap %d", i+1, n, cap)
		}
	}
	if s := d.PlanCacheStats(); s.Evictions == 0 {
		t.Fatal("expected evictions under pressure")
	}
}

// TestPlanEvictionTransparent pins cache transparency: after an entry
// is evicted, re-querying a freshly built copy of the same structure
// reproduces the pre-eviction latency exactly.
func TestPlanEvictionTransparent(t *testing.T) {
	d := New(Xavier())
	d.SetPlanCacheCap(2)
	before := d.LatencyMs(variantNet(0))
	for i := 1; i < 8; i++ { // evict variant-0
		d.LatencyMs(variantNet(i))
	}
	if _, ok := d.byPrint.Get(planKey(d.print, graph.Fingerprint(variantNet(0)))); ok {
		t.Fatal("variant-0 plan unexpectedly still resident")
	}
	after := d.LatencyMs(variantNet(0))
	if before != after {
		t.Fatalf("post-eviction latency %v differs from original %v", after, before)
	}
}
