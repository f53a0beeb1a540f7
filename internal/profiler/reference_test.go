package profiler

import (
	"fmt"
	"hash/fnv"
	"io"
	"strings"
	"testing"

	"netcut/internal/device"
	"netcut/internal/graph"
	"netcut/internal/metric"
	"netcut/internal/zoo"
)

// refMeasureProfile is MeasureProfile's both-miss path as it was before
// the one-pass block loop, one run per call: a warm-up through InferMs,
// a fork of the warmed session, then the measurement's timed runs
// through InferMs on the session and the table's through
// InferProfiledAdd on the fork. It runs the two in turn rather than as
// two tasks, which changed no bit. The fork is a copy of the session
// value, which is all Session.Fork was; the copy shares the session's
// draw buffer, which each call fills and reads before it returns.
func refMeasureProfile(p *Profiler, g *graph.Graph) (Measurement, *Table) {
	s := p.dev.Open(g, sessionSeed(p.seed, g.Name))
	for i := 0; i < p.proto.WarmupRuns; i++ {
		s.InferMs()
	}
	forked := *s
	fork := &forked

	lat := make([]float64, p.proto.TimedRuns)
	for i := range lat {
		lat[i] = s.InferMs()
	}
	measured := Measurement{
		Network: s.Graph().Name,
		MeanMs:  metric.Mean(lat),
		StdMs:   metric.Std(lat),
		Runs:    p.proto.TimedRuns,
	}

	layers := fork.ProfiledLayers()
	sums := make([]float64, len(layers))
	var endToEnd float64
	for i := 0; i < p.proto.TimedRuns; i++ {
		endToEnd += fork.InferProfiledAdd(sums)
	}
	tbl := &Table{
		Network:    g.Name,
		EndToEndMs: endToEnd / float64(p.proto.TimedRuns),
		Layers:     make([]LayerStat, len(layers)),
	}
	for ri, l := range layers {
		tbl.Layers[ri] = LayerStat{
			NodeID: l.NodeID,
			Name:   l.Name,
			Kind:   l.Kind,
			MeanMs: sums[ri] / float64(p.proto.TimedRuns),
		}
	}
	if err := tbl.indexRows(); err != nil {
		panic(fmt.Sprintf("profiler: profiling %s: %v", g.Name, err))
	}
	return measured, tbl
}

// TestMeasureProfileMatchesPerRunReference checks the one-pass block
// loop against refMeasureProfile, bit for bit, on every zoo network and
// the cold benchmark graph, on every registered device. The protocols
// are {0, 1}; {3, 17}, whose 17 timed runs are not a multiple of the
// draw block, so plain runs straddle blocks; and {200, 1500}, which
// runs past the device's table of warm-up factors. Each pair is built
// by MeasureProfile with both caches missing, and in both cache-fill
// orders: Measure, then MeasureProfile building the table alone, and
// Profile, then MeasureProfile building the measurement alone.
func TestMeasureProfileMatchesPerRunReference(t *testing.T) {
	protos := []Protocol{{WarmupRuns: 0, TimedRuns: 1}, {WarmupRuns: 3, TimedRuns: 17}, {WarmupRuns: 200, TimedRuns: 1500}}
	nets := append(zoo.Paper7(), coldGraph())
	for _, cfg := range device.Profiles() {
		dev := device.New(cfg)
		for _, proto := range protos {
			fresh := func() *Profiler {
				p, err := New(dev, proto, 11)
				if err != nil {
					t.Fatal(err)
				}
				return p
			}
			for _, g := range nets {
				label := fmt.Sprintf("%s on %s, protocol %+v", g.Name, cfg.Name, proto)
				mr, tr := refMeasureProfile(fresh(), g)

				m, tbl := fresh().MeasureProfile(g)
				sameBits(t, label+", both missing", mr, m, tr, tbl)

				p := fresh()
				m = p.Measure(g)
				_, tbl = p.MeasureProfile(g)
				sameBits(t, label+", measurement first", mr, m, tr, tbl)

				p = fresh()
				tbl = p.Profile(g)
				m, _ = p.MeasureProfile(g)
				sameBits(t, label+", table first", mr, m, tr, tbl)
			}
		}
	}
}

// TestSessionSeedMatchesHashFNV pins the inline FNV-1a session seed to
// the hash/fnv spelling it replaced, so every network's noise stream
// keeps its bits: empty, non-ASCII, invalid-UTF-8 and 3300-byte names
// against zero, negative and extreme base seeds. It allocates nothing.
func TestSessionSeedMatchesHashFNV(t *testing.T) {
	names := []string{"", "ResNet-50", "réseau|网络", "\xff\xfe", strings.Repeat("user-graph/", 300)}
	for _, name := range names {
		h := fnv.New64a()
		io.WriteString(h, name)
		for _, base := range []int64{0, 11, -3, 1 << 62, -1 << 63} {
			if got, want := sessionSeed(base, name), base^int64(h.Sum64()); got != want {
				t.Fatalf("sessionSeed(%d, %q) = %d, want %d", base, name, got, want)
			}
		}
	}
	if a := testing.AllocsPerRun(100, func() { sessionSeed(11, "MobileNetV2 (1.4)") }); a != 0 {
		t.Fatalf("sessionSeed allocates %v times per call, want 0", a)
	}
}
