package serve

import (
	"testing"

	"netcut/internal/telemetry"
	"netcut/internal/trim"
	"netcut/internal/zoo"
)

// TestWarmSelectBuildsNoGraph runs BenchmarkPlannerSelectWarm's request
// (ResNet-50, 0.9 ms, profiler estimator, seed 1) on a warmed planner:
// repeats miss neither the cut cache nor the device plan cache, and
// each allocates fewer objects than building one cut graph does.
func TestWarmSelectBuildsNoGraph(t *testing.T) {
	p, err := New(Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	g := zoo.ResNet50()
	req := Request{Graph: g, DeadlineMs: 0.9}
	if _, err := p.Select(req); err != nil {
		t.Fatal(err)
	}
	before := p.Stats()
	warm := testing.AllocsPerRun(20, func() {
		if _, err := p.Select(req); err != nil {
			t.Fatal(err)
		}
	})
	after := p.Stats()
	if after.Cuts.Misses != before.Cuts.Misses {
		t.Fatalf("warm requests missed the cut cache %d times", after.Cuts.Misses-before.Cuts.Misses)
	}
	if after.Plans.Misses != before.Plans.Misses {
		t.Fatalf("warm requests missed the plan cache %d times", after.Plans.Misses-before.Plans.Misses)
	}

	// One cut-cache miss of the same parent (a new head class count
	// per run), for scale.
	head := trim.DefaultHead
	cut := testing.AllocsPerRun(5, func() {
		head.Classes++
		if _, err := trim.Cut(g, 9, head); err != nil {
			t.Fatal(err)
		}
	})
	if warm >= cut {
		t.Fatalf("a warm select allocates %.0f objects, one cut build %.0f", warm, cut)
	}
}

// TestTableColdRequestIsTimedCold checks the warm/cold split of the
// execution-latency histograms for a profiler request whose graph is
// measured but not yet profiled, the state an analytical or linear
// request (or a table eviction) leaves behind. That request builds the
// whole per-layer table, so it must be timed as cold: the warm
// histogram feeds budget shedding, auto routing and the drift signal.
func TestTableColdRequestIsTimedCold(t *testing.T) {
	p, err := New(Config{Seed: 1, Protocol: quickProto})
	if err != nil {
		t.Fatal(err)
	}
	p.Instrument(telemetry.NewRegistry())
	g := userNet(1)
	p.Profiler().Measure(g)
	req := Request{Graph: g, DeadlineMs: 0.35, Estimator: "profiler"}
	if _, err := p.Select(req); err != nil {
		t.Fatal(err)
	}
	if _, n := p.WarmQuantile(0.5); n != 0 {
		t.Fatalf("a request that built its profiler table was timed as warm (%d warm samples)", n)
	}
	if _, err := p.Select(req); err != nil {
		t.Fatal(err)
	}
	if _, n := p.WarmQuantile(0.5); n != 1 {
		t.Fatalf("a repeat with measurement and table cached: %d warm samples, want 1", n)
	}
}
