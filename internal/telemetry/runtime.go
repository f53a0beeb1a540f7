package telemetry

import (
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"time"
)

// memSampleTTL bounds how often a scrape re-runs runtime.ReadMemStats.
// ReadMemStats stops the world briefly; memoizing it keeps a tight
// scrape loop (or several gauges sampled in one scrape) from paying
// that cost per gauge.
const memSampleTTL = time.Second

// memSampler memoizes runtime.ReadMemStats across the runtime gauges
// that sample it (heap bytes and GC pause p99), so a tight scrape loop
// never pays the stop-the-world more than once per TTL. The zero value
// is ready to use.
type memSampler struct {
	mu   sync.Mutex
	at   time.Time
	stat runtime.MemStats
}

// Read returns the memoized MemStats, refreshing it when the TTL has
// elapsed.
func (m *memSampler) Read() runtime.MemStats {
	m.mu.Lock()
	defer m.mu.Unlock()
	if now := time.Now(); m.at.IsZero() || now.Sub(m.at) >= memSampleTTL {
		runtime.ReadMemStats(&m.stat)
		m.at = now
	}
	return m.stat
}

// gcPauseP99 reports a conservative p99 over the runtime's ring of the
// last 256 GC pauses: with fewer than 100 samples the max is returned,
// matching the repo-wide rule that approximate quantiles over-report
// rather than under-report.
func gcPauseP99(ms *runtime.MemStats) float64 {
	n := int(ms.NumGC)
	if n == 0 {
		return 0
	}
	if n > len(ms.PauseNs) {
		n = len(ms.PauseNs)
	}
	pauses := make([]uint64, n)
	copy(pauses, ms.PauseNs[:n])
	sort.Slice(pauses, func(i, j int) bool { return pauses[i] < pauses[j] })
	idx := (99*n + 99) / 100 // ceil(0.99*n), 1-based
	if idx > n {
		idx = n
	}
	return float64(pauses[idx-1]) / 1e6
}

// RegisterRuntime adds Go runtime health gauges to the registry:
//
//	netcut_runtime_goroutines      current goroutine count
//	netcut_runtime_heap_bytes      live heap (HeapAlloc)
//	netcut_runtime_gc_pause_p99_ms p99 GC stop-the-world pause (recent window)
//	netcut_runtime_uptime_seconds  seconds since RegisterRuntime
//	netcut_build_info{go_version}  constant 1, labels carry the build
//
// All are sampled at scrape time; registration itself reads no state.
func RegisterRuntime(r *Registry) {
	start := time.Now()
	ms := &memSampler{}

	r.GaugeFunc("netcut_runtime_goroutines",
		"Current number of goroutines.",
		func() float64 { return float64(runtime.NumGoroutine()) })
	r.GaugeFunc("netcut_runtime_heap_bytes",
		"Bytes of live heap memory (runtime.MemStats.HeapAlloc).",
		func() float64 {
			stat := ms.Read()
			return float64(stat.HeapAlloc)
		})
	r.GaugeFunc("netcut_runtime_gc_pause_p99_ms",
		"p99 GC stop-the-world pause over the runtime's recent pause window, milliseconds (conservative: reports max below 100 samples).",
		func() float64 {
			stat := ms.Read()
			return gcPauseP99(&stat)
		})
	r.GaugeFunc("netcut_runtime_uptime_seconds",
		"Seconds since the process registered runtime metrics.",
		func() float64 { return time.Since(start).Seconds() })

	labels := []Label{{Key: "go_version", Value: runtime.Version()}}
	if bi, ok := debug.ReadBuildInfo(); ok && bi.Main.Version != "" {
		labels = append(labels, Label{Key: "version", Value: bi.Main.Version})
	}
	r.GaugeFuncWith("netcut_build_info",
		"Build metadata; the value is always 1 and the labels carry the information.",
		labels, func() float64 { return 1 })
}
