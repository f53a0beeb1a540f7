package telemetry

import (
	"encoding/json"
	"math"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("reqs_total", "requests")
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Fatalf("counter = %d, want 5", c.Value())
	}
	if again := r.Counter("reqs_total", ""); again != c {
		t.Fatal("re-registering a counter returned a different instance")
	}
	g := r.Gauge("depth", "queue depth")
	g.Set(3.5)
	if g.Value() != 3.5 {
		t.Fatalf("gauge = %v, want 3.5", g.Value())
	}
}

func TestRegistryKindConflictPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("x", "")
	defer func() {
		if recover() == nil {
			t.Fatal("registering x as gauge after counter did not panic")
		}
	}()
	r.Gauge("x", "")
}

func TestRegistryRejectsUnsafeNames(t *testing.T) {
	r := NewRegistry()
	defer func() {
		if recover() == nil {
			t.Fatal("name with spaces accepted")
		}
	}()
	r.Counter("bad name", "")
}

func TestHistogramBucketsAndQuantile(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat_ms", "latency", []float64{1, 2, 4, 8})
	for _, v := range []float64{0.5, 1, 1.5, 3, 5, 100} {
		h.Observe(v)
	}
	if h.Count() != 6 {
		t.Fatalf("count = %d, want 6", h.Count())
	}
	if got, want := h.Sum(), 111.0; math.Abs(got-want) > 1e-9 {
		t.Fatalf("sum = %v, want %v", got, want)
	}
	// p50 of 6 observations: rank 3 falls in the (1,2] bucket.
	if q := h.Quantile(0.5); q < 1 || q > 2 {
		t.Fatalf("p50 = %v, want within (1,2]", q)
	}
	// The +Inf observation reports the tracked overflow max — finite
	// and conservative, never an underestimating clamp to the last
	// bound.
	if q := h.Quantile(1.0); q != 100 {
		t.Fatalf("p100 = %v, want the overflow max 100", q)
	}
}

func TestHistogramEmptyQuantileIsZero(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("empty_ms", "", nil)
	if q := h.Quantile(0.99); q != 0 {
		t.Fatalf("empty histogram p99 = %v, want 0", q)
	}
}

func TestPrometheusFormat(t *testing.T) {
	r := NewRegistry()
	r.Counter("b_total", "bees").Add(2)
	r.Gauge("a_gauge", "").Set(1.25)
	r.Histogram("h_ms", "hist", []float64{1, 2}).Observe(1.5)
	r.CounterFunc("c_sampled_total", "", func() uint64 { return 7 })
	r.GaugeFunc("d_sampled", "", func() float64 { return 9 })

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# TYPE a_gauge gauge\na_gauge 1.25\n",
		"# HELP b_total bees\n# TYPE b_total counter\nb_total 2\n",
		"# TYPE c_sampled_total counter\nc_sampled_total 7\n",
		"# TYPE d_sampled gauge\nd_sampled 9\n",
		"h_ms_bucket{le=\"1\"} 0\n",
		"h_ms_bucket{le=\"2\"} 1\n",
		"h_ms_bucket{le=\"+Inf\"} 1\n",
		"h_ms_sum 1.5\nh_ms_count 1\n",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
	// Sorted by name: a_gauge before b_total before c before d before h.
	if !(strings.Index(out, "a_gauge") < strings.Index(out, "b_total") &&
		strings.Index(out, "b_total") < strings.Index(out, "c_sampled") &&
		strings.Index(out, "d_sampled") < strings.Index(out, "h_ms")) {
		t.Fatalf("series not sorted:\n%s", out)
	}
}

func TestSnapshotIsJSONMarshalable(t *testing.T) {
	r := NewRegistry()
	r.Counter("n_total", "").Add(3)
	r.Histogram("h_ms", "", []float64{1, 2, 4}).Observe(1.5)
	b, err := json.Marshal(r.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(b, &m); err != nil {
		t.Fatal(err)
	}
	if m["n_total"].(float64) != 3 {
		t.Fatalf("snapshot n_total = %v", m["n_total"])
	}
	h := m["h_ms"].(map[string]any)
	if h["count"].(float64) != 1 {
		t.Fatalf("snapshot histogram count = %v", h["count"])
	}
}

// TestConcurrentWrites is the -race probe: many goroutines hammer every
// metric kind while a reader scrapes.
func TestConcurrentWrites(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "")
	g := r.Gauge("g", "")
	h := r.Histogram("h_ms", "", nil)
	var wg sync.WaitGroup
	const workers, loops = 8, 500
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < loops; i++ {
				// Re-registration from every goroutine must hand back
				// the one shared instance, atomically with scrapes.
				if r.Counter("c_total", "") != c {
					t.Error("concurrent Counter registration returned a different instance")
					return
				}
				r.CounterFunc("cf_total", "", func() uint64 { return uint64(w) })
				c.Inc()
				g.Set(float64(i))
				h.Observe(float64(w) + 0.1)
				if i%100 == 0 {
					var sb strings.Builder
					r.WritePrometheus(&sb)
					r.Snapshot()
				}
			}
		}(w)
	}
	wg.Wait()
	if c.Value() != workers*loops {
		t.Fatalf("counter = %d, want %d", c.Value(), workers*loops)
	}
	if h.Count() != workers*loops {
		t.Fatalf("histogram count = %d, want %d", h.Count(), workers*loops)
	}
}

func TestLabeledSeries(t *testing.T) {
	r := NewRegistry()
	dev := func(name string) []Label { return []Label{{Key: "device", Value: name}} }
	r.CounterWith("exec_total", "executions", dev("sim-xavier")).Add(3)
	r.CounterWith("exec_total", "executions", dev("sim-server-gpu")).Add(5)
	r.HistogramWith("lat_ms", "latency", []float64{1, 2}, dev("sim-xavier")).Observe(1.5)
	r.GaugeFuncWith("occ", "", dev("sim-xavier"), func() float64 { return 4 })

	// Same (name, labels) returns the same series.
	if got := r.CounterWith("exec_total", "executions", dev("sim-xavier")).Value(); got != 3 {
		t.Fatalf("re-registration did not return the existing series: %d", got)
	}

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"exec_total{device=\"sim-server-gpu\"} 5\n",
		"exec_total{device=\"sim-xavier\"} 3\n",
		"lat_ms_bucket{device=\"sim-xavier\",le=\"2\"} 1\n",
		"lat_ms_sum{device=\"sim-xavier\"} 1.5\n",
		"lat_ms_count{device=\"sim-xavier\"} 1\n",
		"occ{device=\"sim-xavier\"} 4\n",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
	// One TYPE line per metric family, adjacent label sets.
	if strings.Count(out, "# TYPE exec_total counter") != 1 {
		t.Fatalf("TYPE not deduplicated per family:\n%s", out)
	}

	snap := r.Snapshot()
	if snap[`exec_total{device="sim-server-gpu"}`] != uint64(5) {
		t.Fatalf("snapshot missing labeled counter: %v", snap)
	}

	// Escaping: quotes and backslashes in label values must not break
	// the exposition line.
	r2 := NewRegistry()
	r2.CounterWith("esc_total", "", []Label{{Key: "device", Value: `a"b\c`}}).Inc()
	sb.Reset()
	if err := r2.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), `esc_total{device="a\"b\\c"} 1`) {
		t.Fatalf("label escaping broken:\n%s", sb.String())
	}
}

func TestLabeledKindConflictPanics(t *testing.T) {
	r := NewRegistry()
	r.CounterWith("x_total", "", []Label{{Key: "device", Value: "a"}})
	defer func() {
		if recover() == nil {
			t.Fatal("gauge under a counter family did not panic")
		}
	}()
	r.GaugeWith("x_total", "", []Label{{Key: "device", Value: "b"}})
}

// TestHistogramOverflowQuantileConservative pins the +Inf-bucket fix:
// when observations drift past the last finite bound, a quantile that
// lands in the overflow mass must report the largest overflowed
// observation (an upper bound on the truth), not clamp to the last
// bound and underestimate — budget shedding admits against this number.
func TestHistogramOverflowQuantileConservative(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("overflow_ms", "", []float64{1, 2})
	for _, v := range []float64{100, 200, 300} {
		h.Observe(v)
	}
	for _, q := range []float64{0.5, 0.9, 0.99} {
		if got := h.Quantile(q); got != 300 {
			t.Fatalf("Quantile(%v) = %v with all samples overflowed; want max observation 300", q, got)
		}
	}
	if n := h.OverflowCount(); n != 3 {
		t.Fatalf("OverflowCount = %d; want 3", n)
	}
	// Mixed mass: quantiles inside finite buckets keep the interpolated
	// estimate; only the overflow tail reports the tracked max.
	h2 := r.Histogram("overflow_mixed_ms", "", []float64{1, 2})
	for _, v := range []float64{0.5, 0.5, 0.5, 50} {
		h2.Observe(v)
	}
	if got := h2.Quantile(0.5); got >= 1 {
		t.Fatalf("Quantile(0.5) = %v; want an interpolated value inside the first bucket", got)
	}
	if got := h2.Quantile(0.99); got != 50 {
		t.Fatalf("Quantile(0.99) = %v with an overflowed tail; want 50", got)
	}
	if math.IsInf(h2.Quantile(0.99), 1) {
		t.Fatal("overflow quantile must stay finite")
	}
}

// TestPrometheusLabelEscaping pins the text-exposition escaping rules:
// backslashes, double quotes, and newlines in label values must be
// escaped exactly as \\, \", and \n — a raw newline would split the
// sample line and corrupt the whole scrape.
func TestPrometheusLabelEscaping(t *testing.T) {
	r := NewRegistry()
	r.CounterWith("esc_total", "escaping fixture", []Label{
		{Key: "quote", Value: `say "hi"`},
		{Key: "slash", Value: `a\b`},
		{Key: "newline", Value: "line1\nline2"},
	}).Inc()

	var b strings.Builder
	r.WritePrometheus(&b)
	out := b.String()

	want := `esc_total{quote="say \"hi\"",slash="a\\b",newline="line1\nline2"} 1`
	if !strings.Contains(out, want) {
		t.Fatalf("escaped sample line missing.\nwant substring: %s\ngot:\n%s", want, out)
	}
	// No label value may leak a raw newline into the exposition: every
	// line must start with a metric name or a # comment.
	for _, line := range strings.Split(strings.TrimRight(out, "\n"), "\n") {
		if line == "" {
			t.Fatal("blank line in exposition")
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		if !strings.Contains(line, " ") {
			t.Fatalf("malformed sample line (raw newline leaked?): %q", line)
		}
	}
}

// TestPrometheusLabelEscapingRoundTrip checks that two label values
// that differ only in escapable characters stay distinct series.
func TestPrometheusLabelEscapingRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.CounterWith("pair_total", "", []Label{{Key: "v", Value: "a\nb"}}).Add(1)
	r.CounterWith("pair_total", "", []Label{{Key: "v", Value: `a\nb`}}).Add(2)

	var b strings.Builder
	r.WritePrometheus(&b)
	out := b.String()
	if !strings.Contains(out, `pair_total{v="a\nb"} 1`) {
		t.Fatalf("newline-valued series missing:\n%s", out)
	}
	if !strings.Contains(out, `pair_total{v="a\\nb"} 2`) {
		t.Fatalf("literal-backslash series missing:\n%s", out)
	}
}

// TestRenderLabelsLiteral pins renderLabels' output for plain, escaped
// (backslash, double quote, newline), non-ASCII and invalid-UTF-8
// values: escapes are applied, other runes pass through and invalid
// bytes become U+FFFD.
func TestRenderLabelsLiteral(t *testing.T) {
	for _, tc := range []struct{ value, want string }{
		{"sim-xavier", `sim-xavier`},
		{"", ``},
		{`a\b`, `a\\b`},
		{`say "hi"`, `say \"hi\"`},
		{"line1\nline2", `line1\nline2`},
		{"Ünïcode-网络\t", "Ünïcode-网络\t"},
		{"bad\xffutf8", "bad\uFFFDutf8"},
		{"bad\xff\"quote\"", "bad\uFFFD\\\"quote\\\""},
	} {
		got := renderLabels([]Label{{Key: "device", Value: tc.value}, {Key: "stage", Value: tc.value}})
		want := `device="` + tc.want + `",stage="` + tc.want + `"`
		if got != want {
			t.Errorf("value %q: renderLabels %q; want %q", tc.value, got, want)
		}
	}
}
