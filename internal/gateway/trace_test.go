package gateway

// Tests for the request-tracing surfaces: the X-Netcut-Trace header and
// injected trace_id body field, GET /debug/trace (ring + filters), GET
// /debug/requests (in-flight), slow-request logging, the explicit
// Content-Types on every debug surface, and the writeWithTraceID /
// StripTraceID pair the byte-identity tests lean on.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"log"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"sync"
	"testing"

	"netcut/internal/trace"
)

// traceIDFormat pins the wire format of a trace ID: 16 lowercase hex
// characters, always.
var traceIDFormat = regexp.MustCompile(`^[0-9a-f]{16}$`)

// traceDump decodes a /debug/trace or /debug/requests response body.
type traceDump struct {
	Traces   []trace.View `json:"traces"`
	Requests []trace.View `json:"requests"`
}

func getDump(t *testing.T, g *Gateway, path string) traceDump {
	t.Helper()
	rec := get(g, path)
	if rec.Code != http.StatusOK {
		t.Fatalf("%s: status %d: %s", path, rec.Code, rec.Body.String())
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("%s: Content-Type %q, want application/json", path, ct)
	}
	var d traceDump
	if err := json.Unmarshal(rec.Body.Bytes(), &d); err != nil {
		t.Fatalf("%s: %v:\n%s", path, err, rec.Body.String())
	}
	return d
}

// stages returns the stage names of a view's spans, in order.
func stages(v trace.View) []string {
	out := make([]string, len(v.Spans))
	for i, sp := range v.Spans {
		out[i] = sp.Stage
	}
	return out
}

func hasStage(v trace.View, stage string) bool { return spanOf(v, stage) != nil }

// spanOf returns a view's first span of the stage, or nil.
func spanOf(v trace.View, stage string) *trace.Span {
	for i := range v.Spans {
		if v.Spans[i].Stage == stage {
			return &v.Spans[i]
		}
	}
	return nil
}

// checkPlanPhases pins the planner's phase sub-spans in a delivered
// trace: plan_measure, plan_estimate and plan_explore each lie inside
// the exec window, in pipeline order.
func checkPlanPhases(t *testing.T, who string, v trace.View) {
	t.Helper()
	const slack = 1e-6 // ms: float rounding of the span offsets
	exec := spanOf(v, stageExec)
	if exec == nil {
		t.Fatalf("%s trace has no exec span: %v", who, stages(v))
	}
	prevEnd := exec.StartMs
	for _, phase := range []string{"plan_measure", "plan_estimate", "plan_explore"} {
		sp := spanOf(v, phase)
		if sp == nil {
			t.Fatalf("%s trace missing %q span; have %v", who, phase, stages(v))
		}
		if sp.StartMs < prevEnd-slack || sp.StartMs+sp.DurMs > exec.StartMs+exec.DurMs+slack {
			t.Fatalf("%s trace: %s [%v, +%v] escapes exec [%v, +%v] or its predecessor's end %v",
				who, phase, sp.StartMs, sp.DurMs, exec.StartMs, exec.DurMs, prevEnd)
		}
		prevEnd = sp.StartMs + sp.DurMs
	}
}

// TestTraceHeaderMatchesBody pins the ID plumbing on both the success
// and the error path: the response carries X-Netcut-Trace in the
// expected format, the body's trace_id matches it, and stripping the
// field restores the canonical rendering.
func TestTraceHeaderMatchesBody(t *testing.T) {
	g, err := New(quickConfig(71))
	if err != nil {
		t.Fatal(err)
	}
	defer mustShutdown(t, g)

	ok := post(g, graphBody(t, userNet(0), 0.35, ""))
	bad := post(g, `{"deadline_ms":0.35}`) // no graph: decode refusal
	for name, rec := range map[string]*httptest.ResponseRecorder{"ok": ok, "refused": bad} {
		id := rec.Header().Get(TraceHeader)
		if !traceIDFormat.MatchString(id) {
			t.Fatalf("%s: header %q is not 16 lowercase hex", name, id)
		}
		if !bytes.Contains(rec.Body.Bytes(), []byte(`"trace_id":"`+id+`"`)) {
			t.Fatalf("%s: body trace_id does not match header %q:\n%s", name, id, rec.Body.String())
		}
		if bytes.Contains(stripped(rec.Body.Bytes()), []byte("trace_id")) {
			t.Fatalf("%s: StripTraceID left a trace_id behind:\n%s", name, stripped(rec.Body.Bytes()))
		}
	}
	if ok.Header().Get(TraceHeader) == bad.Header().Get(TraceHeader) {
		t.Fatal("two requests share a trace ID")
	}
}

// TestDebugTraceTimeline pins the acceptance criterion: fetching a
// delivered request's trace by ID returns its per-stage timeline with
// queue-wait and planner execution as separate spans, plus the
// admission-gate verdicts in pipeline order.
func TestDebugTraceTimeline(t *testing.T) {
	g, err := New(quickConfig(73))
	if err != nil {
		t.Fatal(err)
	}
	defer mustShutdown(t, g)

	rec := post(g, graphBody(t, userNet(1), 0.35, ""))
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	id := rec.Header().Get(TraceHeader)
	d := getDump(t, g, "/debug/trace?id="+id)
	if len(d.Traces) != 1 {
		t.Fatalf("lookup by id returned %d traces, want 1", len(d.Traces))
	}
	v := d.Traces[0]
	if v.ID != id || !v.Done || v.Status != http.StatusOK {
		t.Fatalf("trace %+v, want id %s done with status 200", v, id)
	}
	for _, stage := range []string{
		stageDecode, stageDrain, stageQuarantine, stageRoute, stageHealth,
		stageResident, stageCoalesce, stageShed, stageEnqueue,
		stageQueueWait, stageExec, stageDeliver,
	} {
		if !hasStage(v, stage) {
			t.Fatalf("trace missing %q span; have %v", stage, stages(v))
		}
	}
	// Queue wait and execution are separate, correctly ordered windows.
	wait, exec := spanOf(v, stageQueueWait), spanOf(v, stageExec)
	if wait.StartMs > exec.StartMs {
		t.Fatalf("queue_wait starts at %vms after exec at %vms", wait.StartMs, exec.StartMs)
	}
	if v.DurMs <= 0 {
		t.Fatalf("completed trace has non-positive duration %v", v.DurMs)
	}
	checkPlanPhases(t, "cold leader", v)

	// A resident answer records the hit verdict instead of executing.
	rec2 := post(g, graphBody(t, userNet(1), 0.35, ""))
	d2 := getDump(t, g, "/debug/trace?id="+rec2.Header().Get(TraceHeader))
	if len(d2.Traces) != 1 {
		t.Fatalf("resident trace lookup returned %d traces", len(d2.Traces))
	}
	hit := d2.Traces[0]
	if rs := spanOf(hit, stageResident); rs == nil || rs.Verdict != "hit" {
		t.Fatalf("resident trace span %+v, want verdict hit; have %v", rs, stages(hit))
	}
	if hasStage(hit, stageExec) || hasStage(hit, stageCoalesce) {
		t.Fatalf("resident trace ran past the resident gate: %v", stages(hit))
	}

	// A coalesced follower reads the leader's phases after done closes:
	// hold the leader's pass until the follower has joined.
	gate := make(chan struct{})
	entered := make(chan struct{}, 1)
	var once sync.Once
	g.testHookPass = func(string) {
		once.Do(func() { entered <- struct{}{}; <-gate })
	}
	body := graphBody(t, userNet(2), 0.35, "")
	leader, follower := make(chan *httptest.ResponseRecorder, 1), make(chan *httptest.ResponseRecorder, 1)
	go func() { leader <- post(g, body) }()
	<-entered
	go func() { follower <- post(g, body) }()
	waitFor(t, "follower to coalesce", func() bool { return g.coalesced.Value() == 1 })
	close(gate)
	<-leader
	rec3 := <-follower
	if rec3.Code != http.StatusOK {
		t.Fatalf("follower: status %d: %s", rec3.Code, rec3.Body.String())
	}
	d3 := getDump(t, g, "/debug/trace?id="+rec3.Header().Get(TraceHeader))
	if len(d3.Traces) != 1 {
		t.Fatalf("follower trace lookup returned %d traces", len(d3.Traces))
	}
	if cs := spanOf(d3.Traces[0], stageCoalesce); cs == nil || cs.Verdict != "follower" {
		t.Fatalf("follower coalesce span %+v; have %v", cs, stages(d3.Traces[0]))
	}
	checkPlanPhases(t, "coalesced follower", d3.Traces[0])
}

// TestDebugTraceFilters pins the query vocabulary: device, status,
// min_ms and limit each narrow the dump, and a bad value is a 400.
func TestDebugTraceFilters(t *testing.T) {
	g, err := New(quickConfig(79))
	if err != nil {
		t.Fatal(err)
	}
	defer mustShutdown(t, g)

	if rec := post(g, graphBody(t, userNet(0), 0.35, `,"target":"sim-xavier"`)); rec.Code != http.StatusOK {
		t.Fatalf("seed request: %d", rec.Code)
	}
	if rec := post(g, `{"deadline_ms":1}`); rec.Code != http.StatusBadRequest {
		t.Fatalf("refused request: %d", rec.Code)
	}

	if d := getDump(t, g, "/debug/trace"); len(d.Traces) != 2 {
		t.Fatalf("unfiltered dump has %d traces, want 2", len(d.Traces))
	}
	if d := getDump(t, g, "/debug/trace?device=sim-xavier"); len(d.Traces) != 1 || d.Traces[0].Device != "sim-xavier" {
		t.Fatalf("device filter returned %+v", d.Traces)
	}
	if d := getDump(t, g, "/debug/trace?status=400"); len(d.Traces) != 1 || d.Traces[0].Status != 400 {
		t.Fatalf("status filter returned %+v", d.Traces)
	}
	if d := getDump(t, g, "/debug/trace?min_ms=1e12"); len(d.Traces) != 0 {
		t.Fatalf("absurd min_ms still returned %d traces", len(d.Traces))
	}
	if d := getDump(t, g, "/debug/trace?limit=1"); len(d.Traces) != 1 || d.Traces[0].Status != 400 {
		t.Fatalf("limit=1 did not keep only the newest trace: %+v", d.Traces)
	}
	for _, q := range []string{"?min_ms=x", "?status=x", "?limit=-1"} {
		if rec := get(g, "/debug/trace"+q); rec.Code != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400", q, rec.Code)
		}
	}
}

// TestDebugRequestsShowsInflight pins the live table: while a request
// is wedged inside a planner pass it appears at /debug/requests with
// its spans so far, and disappears once delivered.
func TestDebugRequestsShowsInflight(t *testing.T) {
	cfg := quickConfig(83)
	cfg.Workers = 1
	g, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer mustShutdown(t, g)

	gate := make(chan struct{})
	entered := make(chan struct{}, 1)
	var once sync.Once
	g.testHookPass = func(string) {
		once.Do(func() { entered <- struct{}{}; <-gate })
	}
	done := make(chan *httptest.ResponseRecorder, 1)
	go func() { done <- post(g, graphBody(t, userNet(2), 0.35, "")) }()
	<-entered

	d := getDump(t, g, "/debug/requests")
	if len(d.Requests) != 1 {
		t.Fatalf("in-flight dump has %d requests, want 1", len(d.Requests))
	}
	v := d.Requests[0]
	if v.Done {
		t.Fatalf("in-flight trace claims done: %+v", v)
	}
	if !traceIDFormat.MatchString(v.ID) {
		t.Fatalf("in-flight trace ID %q", v.ID)
	}
	if !hasStage(v, stageEnqueue) {
		t.Fatalf("in-flight trace missing enqueue span: %v", stages(v))
	}
	if v.DurMs <= 0 {
		t.Fatalf("live view elapsed %v, want > 0", v.DurMs)
	}

	close(gate)
	rec := <-done
	if rec.Code != http.StatusOK {
		t.Fatalf("released request: %d", rec.Code)
	}
	if d := getDump(t, g, "/debug/requests"); len(d.Requests) != 0 {
		t.Fatalf("delivered request still live: %+v", d.Requests)
	}
	// And its completed trace landed in the ring.
	if d := getDump(t, g, "/debug/trace?id="+rec.Header().Get(TraceHeader)); len(d.Traces) != 1 {
		t.Fatal("delivered request's trace missing from the ring")
	}
}

// TestSlowTraceLogging pins the slow-request log line: a request over
// Config.SlowTraceMs emits one structured warning on the default
// logger with the trace ID, per-stage durations and the threshold, and
// bumps the counter; with the threshold at 0 nothing is logged.
func TestSlowTraceLogging(t *testing.T) {
	var buf bytes.Buffer
	mu := &sync.Mutex{}
	// slog.SetDefault also points the log package at the new handler;
	// the cleanup puts both back.
	prev, logOut, logFlags := slog.Default(), log.Writer(), log.Flags()
	slog.SetDefault(slog.New(slog.NewJSONHandler(&lockedWriter{mu: mu, w: &buf}, nil)))
	t.Cleanup(func() {
		slog.SetDefault(prev)
		log.SetOutput(logOut)
		log.SetFlags(logFlags)
	})
	cfg := quickConfig(89)
	cfg.SlowTraceMs = 1e-9 // every request is slow
	g, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer mustShutdown(t, g)

	rec := post(g, graphBody(t, userNet(3), 0.35, ""))
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}
	mu.Lock()
	line := buf.String()
	mu.Unlock()
	var entry map[string]any
	if err := json.Unmarshal([]byte(line), &entry); err != nil {
		t.Fatalf("slow log is not one JSON line: %v:\n%s", err, line)
	}
	if entry["msg"] != "slow request" || entry["trace_id"] != rec.Header().Get(TraceHeader) {
		t.Fatalf("slow log entry %v", entry)
	}
	if _, ok := entry["stages"].(map[string]any); !ok {
		t.Fatalf("slow log has no stages group: %v", entry)
	}
	if entry["threshold_ms"].(float64) != cfg.SlowTraceMs {
		t.Fatalf("threshold_ms %v", entry["threshold_ms"])
	}
	if g.slowTraces.Value() != 1 {
		t.Fatalf("slow_traces_total = %d, want 1", g.slowTraces.Value())
	}
	if !strings.Contains(get(g, "/metrics").Body.String(), "netcut_gateway_slow_traces_total 1\n") {
		t.Fatal("slow_traces_total missing from /metrics")
	}

	// Threshold 0 disables the log entirely.
	g2, err := New(quickConfig(89))
	if err != nil {
		t.Fatal(err)
	}
	defer mustShutdown(t, g2)
	mu.Lock()
	buf.Reset()
	mu.Unlock()
	post(g2, graphBody(t, userNet(3), 0.35, ""))
	mu.Lock()
	defer mu.Unlock()
	if buf.Len() != 0 {
		t.Fatalf("SlowTraceMs=0 still logged: %s", buf.String())
	}
}

// lockedWriter serialises slog output so the test can read the buffer
// without racing the handler.
type lockedWriter struct {
	mu *sync.Mutex
	w  *bytes.Buffer
}

func (l *lockedWriter) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.w.Write(p)
}

// TestDebugContentTypes pins the explicit Content-Type on every
// observability surface: Prometheus text on /metrics, JSON on the
// debug endpoints.
func TestDebugContentTypes(t *testing.T) {
	g, err := New(quickConfig(101))
	if err != nil {
		t.Fatal(err)
	}
	defer mustShutdown(t, g)

	for path, want := range map[string]string{
		"/metrics":        "text/plain; version=0.0.4; charset=utf-8",
		"/debug/stats":    "application/json",
		"/debug/trace":    "application/json",
		"/debug/requests": "application/json",
	} {
		rec := get(g, path)
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: status %d", path, rec.Code)
		}
		if ct := rec.Header().Get("Content-Type"); ct != want {
			t.Fatalf("%s: Content-Type %q, want %q", path, ct, want)
		}
	}
}

// TestPprofGated pins the satellite: net/http/pprof mounts only when
// Config.Pprof is set — off by default, it 404s.
func TestPprofGated(t *testing.T) {
	off, err := New(quickConfig(103))
	if err != nil {
		t.Fatal(err)
	}
	defer mustShutdown(t, off)
	if rec := get(off, "/debug/pprof/"); rec.Code != http.StatusNotFound {
		t.Fatalf("pprof off: status %d, want 404", rec.Code)
	}

	cfg := quickConfig(103)
	cfg.Pprof = true
	on, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer mustShutdown(t, on)
	rec := get(on, "/debug/pprof/")
	if rec.Code != http.StatusOK {
		t.Fatalf("pprof on: status %d", rec.Code)
	}
	if rec = get(on, "/debug/pprof/cmdline"); rec.Code != http.StatusOK {
		t.Fatalf("pprof cmdline: status %d", rec.Code)
	}
}

// TestStageHistogramsInMetrics pins the netcut_gateway_stage_ms
// families: after one delivered request the timed stages appear with
// the device label (queue_wait and exec as distinct series), a
// resident answer then prices the fast path in the resident series
// and no lane stage, the ring/live gauges are exported, and a request
// refused before routing lands in the only two device="none" series.
func TestStageHistogramsInMetrics(t *testing.T) {
	g, err := New(quickConfig(107))
	if err != nil {
		t.Fatal(err)
	}
	defer mustShutdown(t, g)

	body := graphBody(t, userNet(4), 0.35, "")
	if rec := post(g, body); rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}
	count := func(stage string, n int) string {
		return fmt.Sprintf(`netcut_gateway_stage_ms_count{stage="%s",device="sim-xavier"} %d`, stage, n)
	}
	out := get(g, "/metrics").Body.String()
	for _, stage := range timedStages {
		// One delivered request: every timed stage observed exactly once,
		// all attributed to the resolved device.
		if want := count(stage, 1); !strings.Contains(out, want) {
			t.Fatalf("/metrics missing %q", want)
		}
	}
	// The repeat is a resident answer: decode, resident and deliver
	// observe it; the lane stages do not.
	if rec := post(g, body); rec.Code != http.StatusOK {
		t.Fatalf("resident repeat: status %d", rec.Code)
	}
	out = get(g, "/metrics").Body.String()
	for _, stage := range timedStages {
		n := 1
		if stage == stageDecode || stage == stageResident || stage == stageDeliver {
			n = 2
		}
		if want := count(stage, n); !strings.Contains(out, want) {
			t.Fatalf("/metrics missing %q after a resident answer", want)
		}
	}
	for _, fam := range []string{"netcut_gateway_trace_ring_entries 2", "netcut_gateway_traces_inflight 0"} {
		if !strings.Contains(out, fam) {
			t.Fatalf("/metrics missing %q", fam)
		}
	}

	// A malformed request is refused before routing: it is counted under
	// device="none", which carries only the decode and deliver series —
	// the other timed stages need a resolved device.
	if rec := post(g, `{"network":`); rec.Code != http.StatusBadRequest {
		t.Fatalf("malformed request: status %d", rec.Code)
	}
	out = get(g, "/metrics").Body.String()
	for _, stage := range []string{stageDecode, stageDeliver} {
		if want := fmt.Sprintf(`netcut_gateway_stage_ms_count{stage="%s",device="none"} 1`, stage); !strings.Contains(out, want) {
			t.Fatalf("/metrics missing %q", want)
		}
	}
	for _, stage := range []string{stageResident, stageQueueWait, stageExec, stageEncode} {
		if series := fmt.Sprintf(`{stage="%s",device="none"}`, stage); strings.Contains(out, series) {
			t.Fatalf("/metrics exports a %s series no request can record", series)
		}
	}
}

// TestInjectAndStripTraceID pins the splice round-trip on every body
// shape the gateway writes (plus the degenerate ones it never does).
func TestInjectAndStripTraceID(t *testing.T) {
	const id = "0123456789abcdef"
	cases := []struct{ in, want string }{
		{"{\"a\":1}\n", "{\"a\":1,\"trace_id\":\"" + id + "\"}\n"},
		{"{}\n", "{\"trace_id\":\"" + id + "\"}\n"},
		{"{\"nested\":{\"b\":2}}\n", "{\"nested\":{\"b\":2},\"trace_id\":\"" + id + "\"}\n"},
		{"not json", "not json"}, // no closing brace: left alone
	}
	for _, c := range cases {
		rec := httptest.NewRecorder()
		writeWithTraceID(rec, []byte(c.in), id)
		got := rec.Body.Bytes()
		if string(got) != c.want {
			t.Fatalf("inject(%q) = %q, want %q", c.in, got, c.want)
		}
		if back := StripTraceID(got); string(back) != c.in {
			t.Fatalf("strip(inject(%q)) = %q", c.in, back)
		}
	}
	// Strip is a no-op on bodies without the field.
	if got := StripTraceID([]byte("{\"a\":1}\n")); string(got) != "{\"a\":1}\n" {
		t.Fatalf("strip without field = %q", got)
	}
}

// TestTraceIDsDeterministicSequence pins the acceptance criterion that
// trace IDs are deterministic in format and, for a fixed seed and
// serial admission order, in value: two gateways with the same seed
// hand out the same ID sequence.
func TestTraceIDsDeterministicSequence(t *testing.T) {
	ids := func() []string {
		g, err := New(quickConfig(109))
		if err != nil {
			t.Fatal(err)
		}
		defer mustShutdown(t, g)
		var out []string
		for i := 0; i < 3; i++ {
			rec := post(g, graphBody(t, userNet(i), 0.35, ""))
			out = append(out, rec.Header().Get(TraceHeader))
		}
		return out
	}
	a, b := ids(), ids()
	for i := range a {
		if !traceIDFormat.MatchString(a[i]) {
			t.Fatalf("id %q", a[i])
		}
		if a[i] != b[i] {
			t.Fatalf("serial ID sequence not deterministic: %v vs %v", a, b)
		}
	}
	if a[0] == a[1] || a[1] == a[2] {
		t.Fatalf("duplicate IDs in sequence %v", a)
	}
}

// TestCancelledRequestTraced pins the 499 convention: a client that
// disconnects while queued leaves a completed trace with status 499 in
// the ring, even though no response was written.
func TestCancelledRequestTraced(t *testing.T) {
	cfg := quickConfig(113)
	cfg.Workers = 1
	g, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer mustShutdown(t, g)

	gate := make(chan struct{})
	entered := make(chan struct{}, 1)
	var once sync.Once
	g.testHookPass = func(string) {
		once.Do(func() { entered <- struct{}{}; <-gate })
	}
	// Wedge the worker with a sacrificial request...
	go post(g, graphBody(t, userNet(0), 0.35, ""))
	<-entered
	// ...then cancel a second, queued request before it can run.
	ctx, cancel := context.WithCancel(context.Background())
	req := httptest.NewRequest(http.MethodPost, "/v1/plan",
		strings.NewReader(graphBody(t, userNet(1), 0.35, ""))).WithContext(ctx)
	recCh := make(chan *httptest.ResponseRecorder, 1)
	go func() {
		rec := httptest.NewRecorder()
		g.Handler().ServeHTTP(rec, req)
		recCh <- rec
	}()
	waitFor(t, "both requests in flight", func() bool {
		return len(getDump(t, g, "/debug/requests").Requests) == 2
	})
	cancel()
	<-recCh
	close(gate)

	waitFor(t, "a 499 trace in the ring", func() bool {
		return len(getDump(t, g, "/debug/trace?status=499").Traces) == 1
	})
}
