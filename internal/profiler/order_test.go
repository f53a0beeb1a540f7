package profiler

import (
	"math"
	"testing"

	"netcut/internal/graph"
	"netcut/internal/zoo"
)

// sameBits fails unless two measurement/table pairs agree in every bit
// the profiler emits.
func sameBits(t *testing.T, label string, ma, mb Measurement, ta, tb *Table) {
	t.Helper()
	if ma.Network != mb.Network || ma.Runs != mb.Runs ||
		math.Float64bits(ma.MeanMs) != math.Float64bits(mb.MeanMs) ||
		math.Float64bits(ma.StdMs) != math.Float64bits(mb.StdMs) {
		t.Fatalf("%s: measurements differ: %+v vs %+v", label, ma, mb)
	}
	if ta.Network != tb.Network || len(ta.Layers) != len(tb.Layers) ||
		math.Float64bits(ta.EndToEndMs) != math.Float64bits(tb.EndToEndMs) {
		t.Fatalf("%s: tables differ: %s/%d/%v vs %s/%d/%v", label,
			ta.Network, len(ta.Layers), ta.EndToEndMs, tb.Network, len(tb.Layers), tb.EndToEndMs)
	}
	for i := range ta.Layers {
		a, b := ta.Layers[i], tb.Layers[i]
		if a.NodeID != b.NodeID || a.Name != b.Name || a.Kind != b.Kind ||
			math.Float64bits(a.MeanMs) != math.Float64bits(b.MeanMs) {
			t.Fatalf("%s: row %d differs: %+v vs %+v", label, i, a, b)
		}
	}
}

// oneMissEach fails unless p has seen exactly one miss and no hit in
// each of its caches.
func oneMissEach(t *testing.T, label string, p *Profiler) {
	t.Helper()
	ms, ts := p.CacheStats()
	if ms.Misses != 1 || ms.Hits != 0 || ts.Misses != 1 || ts.Hits != 0 {
		t.Fatalf("%s: measurements %d hits/%d misses, tables %d hits/%d misses; want 0/1 each",
			label, ms.Hits, ms.Misses, ts.Hits, ts.Misses)
	}
}

func orderNets(t *testing.T) []*graph.Graph {
	t.Helper()
	var nets []*graph.Graph
	for _, name := range []string{"MobileNetV1 (0.5)", "ResNet-50"} {
		g, err := zoo.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		nets = append(nets, g)
	}
	return append(nets, coldGraph())
}

// TestMeasureProfileOrderIndependent pins that a network's measurement
// and table do not depend on which of the two a fresh profiler builds
// first: each runs the protocol from its own freshly seeded session.
func TestMeasureProfileOrderIndependent(t *testing.T) {
	for _, g := range orderNets(t) {
		a := newProfiler(t, PaperProtocol())
		ma := a.Measure(g)
		ta := a.Profile(g)
		oneMissEach(t, g.Name+" measure→profile", a)

		b := newProfiler(t, PaperProtocol())
		tb := b.Profile(g)
		mb := b.Measure(g)
		oneMissEach(t, g.Name+" profile→measure", b)

		sameBits(t, g.Name, ma, mb, ta, tb)
	}
}

// TestMeasureProfileMatchesSeparateCalls checks MeasureProfile against
// Measure followed by Profile on fresh profilers: the same bits and
// the same cache counters when both caches miss (the warm-up is
// shared), when only the table misses, and when only the measurement
// misses.
func TestMeasureProfileMatchesSeparateCalls(t *testing.T) {
	for _, g := range orderNets(t) {
		ref := newProfiler(t, PaperProtocol())
		mr, tr := ref.Measure(g), ref.Profile(g)

		both := newProfiler(t, PaperProtocol())
		m, tbl := both.MeasureProfile(g)
		oneMissEach(t, g.Name+" MeasureProfile", both)
		sameBits(t, g.Name+" both missing", mr, m, tr, tbl)

		for _, prime := range []string{"measure", "profile"} {
			p := newProfiler(t, PaperProtocol())
			var wantMeasureHits, wantTableHits uint64
			if prime == "measure" {
				p.Measure(g)
				wantMeasureHits = 1
			} else {
				p.Profile(g)
				wantTableHits = 1
			}
			m, tbl := p.MeasureProfile(g)
			sameBits(t, g.Name+" after "+prime, mr, m, tr, tbl)
			ms, ts := p.CacheStats()
			if ms.Misses != 1 || ms.Hits != wantMeasureHits || ts.Misses != 1 || ts.Hits != wantTableHits {
				t.Fatalf("%s after %s: measurements %d hits/%d misses, tables %d hits/%d misses",
					g.Name, prime, ms.Hits, ms.Misses, ts.Hits, ts.Misses)
			}
		}
	}
}
