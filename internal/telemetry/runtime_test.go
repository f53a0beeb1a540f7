package telemetry

import (
	"runtime"
	"strings"
	"testing"
)

func TestRegisterRuntimeFamilies(t *testing.T) {
	r := NewRegistry()
	RegisterRuntime(r)
	var b strings.Builder
	r.WritePrometheus(&b)
	out := b.String()
	for _, fam := range []string{
		"netcut_runtime_goroutines",
		"netcut_runtime_heap_bytes",
		"netcut_runtime_gc_pause_p99_ms",
		"netcut_runtime_uptime_seconds",
		"netcut_build_info",
	} {
		if !strings.Contains(out, "\n"+fam) && !strings.HasPrefix(out, fam) {
			t.Fatalf("scrape missing family %s:\n%s", fam, out)
		}
	}
	if !strings.Contains(out, `go_version="`+runtime.Version()+`"`) {
		t.Fatalf("build_info missing go_version label:\n%s", out)
	}
	if !strings.Contains(out, "netcut_build_info{") {
		t.Fatal("build_info has no labels")
	}
}

func TestRuntimeGaugesSane(t *testing.T) {
	r := NewRegistry()
	RegisterRuntime(r)
	snap := r.Snapshot()
	vals := map[string]float64{}
	for name, v := range snap {
		if f, ok := v.(float64); ok {
			vals[name] = f
		}
	}
	if vals["netcut_runtime_goroutines"] < 1 {
		t.Fatalf("goroutines = %v, want >= 1", vals["netcut_runtime_goroutines"])
	}
	if vals["netcut_runtime_heap_bytes"] <= 0 {
		t.Fatalf("heap_bytes = %v, want > 0", vals["netcut_runtime_heap_bytes"])
	}
	if vals["netcut_runtime_uptime_seconds"] < 0 {
		t.Fatalf("uptime = %v, want >= 0", vals["netcut_runtime_uptime_seconds"])
	}
	if vals["netcut_runtime_gc_pause_p99_ms"] < 0 {
		t.Fatalf("gc pause p99 = %v, want >= 0", vals["netcut_runtime_gc_pause_p99_ms"])
	}
}

func TestGCPauseP99Conservative(t *testing.T) {
	var ms runtime.MemStats
	if got := gcPauseP99(&ms); got != 0 {
		t.Fatalf("p99 with no GCs = %v, want 0", got)
	}
	// Below 100 samples the max must be reported (over-report, never
	// under-report).
	ms.NumGC = 5
	ms.PauseNs[0], ms.PauseNs[1], ms.PauseNs[2], ms.PauseNs[3], ms.PauseNs[4] =
		1e6, 2e6, 3e6, 4e6, 9e6
	if got := gcPauseP99(&ms); got != 9 {
		t.Fatalf("p99 with 5 samples = %v, want max 9", got)
	}
	// With a full window the p99 sits at or above the 99th percentile.
	ms.NumGC = 256
	for i := range ms.PauseNs {
		ms.PauseNs[i] = uint64(i+1) * 1e5 // 0.1ms .. 25.6ms
	}
	got := gcPauseP99(&ms)
	if got < 25.3 || got > 25.6 {
		t.Fatalf("p99 over full window = %v, want in [25.3, 25.6]", got)
	}
}
