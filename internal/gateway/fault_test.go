package gateway

// Fault-containment suite: every test here drives the gateway through
// the deterministic faultinject harness (run in CI under -race as a
// dedicated job). The tests arm compiled-in fault points by key and
// assert the containment contract: structured errors for exactly the
// faulting request, byte-identical responses for everyone else, bounded
// blast radius (quarantine, per-device health), zero planner work for
// cancelled calls, and crash-safe persistence with .bak fallback.

import (
	"context"
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"netcut/internal/device"
	"netcut/internal/faultinject"
	"netcut/internal/graph"
	"netcut/internal/par"
	"netcut/internal/serve"
	"netcut/internal/zoo"
)

// poisonNet is userNet(i) under its own name, so the TrimPanic fault
// point — keyed by graph name — matches it and nothing else.
func poisonNet(i int, name string) *graph.Graph { return namedNet(name, i) }

// errCode decodes the structured error body's code field.
func errCode(t *testing.T, rec *httptest.ResponseRecorder) string {
	t.Helper()
	var e ErrorWire
	if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil {
		t.Fatalf("decoding error body %q: %v", rec.Body.String(), err)
	}
	return e.Code
}

// wantRetryAfter derives the only header value the body's
// retry_after_ms hint is allowed to round to: whole seconds, ceiling,
// never below 1 — the same clamp the gateway applies. Fails if the body
// carries no positive hint.
func wantRetryAfter(t *testing.T, rec *httptest.ResponseRecorder) string {
	t.Helper()
	var e ErrorWire
	if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil {
		t.Fatalf("decoding error body %q: %v", rec.Body.String(), err)
	}
	if e.RetryAfterMs <= 0 {
		t.Fatalf("error body %q carries no retry_after_ms hint", rec.Body.String())
	}
	s := int(math.Ceil(e.RetryAfterMs / 1000))
	if s < 1 {
		s = 1
	}
	return strconv.Itoa(s)
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestFaultPanicIsolation pins the tentpole acceptance criterion: a
// request whose planning execution panics deep in the trim layer gets a
// structured 500, while requests served concurrently on the same
// device return bodies byte-identical to a solo planner's — the panic
// is contained to the request that caused it, and the lane keeps
// serving afterwards.
func TestFaultPanicIsolation(t *testing.T) {
	defer faultinject.Reset()
	xavier := device.Xavier()
	cfg := quickConfig(9)
	cfg.Devices = []device.Config{xavier}
	g, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer mustShutdown(t, g)

	solo, err := serve.New(serve.Config{Seed: 9, Protocol: quickProto, Device: &xavier})
	if err != nil {
		t.Fatal(err)
	}

	faultinject.Arm(faultinject.TrimPanic, "poison-iso", 0)
	poison := poisonNet(5, "poison-iso")

	const innocents = 4
	type result struct {
		i   int
		rec *httptest.ResponseRecorder
	}
	results := make(chan result, innocents+1)
	go func() { results <- result{-1, post(g, graphBody(t, poison, 0.35, ""))} }()
	for i := 0; i < innocents; i++ {
		go func(i int) { results <- result{i, post(g, graphBody(t, userNet(i), 0.35, ""))} }(i)
	}
	for n := 0; n < innocents+1; n++ {
		r := <-results
		if r.i < 0 {
			if r.rec.Code != http.StatusInternalServerError || errCode(t, r.rec) != "internal_panic" {
				t.Fatalf("poison request: status %d code %q body %s",
					r.rec.Code, errCode(t, r.rec), r.rec.Body.String())
			}
			continue
		}
		if r.rec.Code != http.StatusOK {
			t.Fatalf("innocent %d: status %d: %s", r.i, r.rec.Code, r.rec.Body.String())
		}
		want, err := solo.Select(serve.Request{Graph: userNet(r.i), DeadlineMs: 0.35})
		if err != nil {
			t.Fatal(err)
		}
		if string(stripped(r.rec.Body.Bytes())) != string(EncodeResponse(want)) {
			t.Fatalf("innocent %d served next to a panic diverges from solo planner:\n gw  %s solo %s",
				r.i, r.rec.Body.String(), EncodeResponse(want))
		}
	}
	if got := g.lanes["sim-xavier"].panics.Value(); got < 1 {
		t.Fatalf("netcut_gateway_panics_total{sim-xavier} = %d, want >= 1", got)
	}
	// The lane survived: a fresh request plans normally.
	if rec := post(g, graphBody(t, userNet(0), 0.35, "")); rec.Code != http.StatusOK {
		t.Fatalf("post-panic request: status %d: %s", rec.Code, rec.Body.String())
	}
}

// TestFaultPanicStackNamesSite pins what the contained-panic log
// reports: the original panic value and the stack of the frame that
// panicked. A planner panic reaches the pass wrapped in a
// *par.TaskPanic by core's exploration fan-out, whose own re-raise
// stack names only par.
func TestFaultPanicStackNamesSite(t *testing.T) {
	defer faultinject.Reset()
	p, err := serve.New(serve.Config{Seed: 14, Protocol: quickProto})
	if err != nil {
		t.Fatal(err)
	}
	faultinject.Arm(faultinject.TrimPanic, "poison-site", 0)
	res := runPass(p, serve.Request{Graph: poisonNet(7, "poison-site"), DeadlineMs: 0.35})
	if !res.panicked {
		t.Fatal("armed TrimPanic did not panic the pass")
	}
	if _, wrapped := res.pval.(*par.TaskPanic); wrapped {
		t.Fatalf("panic value still wrapped: %v", res.pval)
	}
	if !strings.Contains(string(res.stack), "netcut/internal/trim.") {
		t.Fatalf("contained-panic stack does not name the trim panic site:\n%s", res.stack)
	}
}

// TestFaultQuarantine pins the bounded-LRU quarantine: after
// quarantineAfter panics from one request identity, further spellings
// of it are rejected at admission — structured 500, no worker touched,
// zero additional planner executions. quarantineAfter is below
// unhealthyAfter, so the device keeps admitting throughout.
func TestFaultQuarantine(t *testing.T) {
	defer faultinject.Reset()
	cfg := quickConfig(10)
	cfg.Devices = []device.Config{device.Xavier()}
	g, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer mustShutdown(t, g)

	faultinject.Arm(faultinject.TrimPanic, "poison-quar", 0)
	body := graphBody(t, poisonNet(6, "poison-quar"), 0.35, "")

	for i := 0; i < quarantineAfter; i++ {
		if rec := post(g, body); rec.Code != http.StatusInternalServerError || errCode(t, rec) != "internal_panic" {
			t.Fatalf("panic %d: status %d code %q", i, rec.Code, errCode(t, rec))
		}
	}
	execs := g.Planner().Executions()
	rec := post(g, body)
	if rec.Code != http.StatusInternalServerError || errCode(t, rec) != "quarantined" {
		t.Fatalf("quarantined request: status %d code %q body %s", rec.Code, errCode(t, rec), rec.Body.String())
	}
	if got := g.Planner().Executions(); got != execs {
		t.Fatalf("quarantined request consumed planner work: executions %d -> %d", execs, got)
	}
	if got := g.quarantined.Value(); got != 1 {
		t.Fatalf("netcut_gateway_quarantined_total = %d, want 1", got)
	}
	// Other identities still plan: the quarantine is per key, not per lane.
	if rec := post(g, graphBody(t, userNet(1), 0.35, "")); rec.Code != http.StatusOK {
		t.Fatalf("innocent after quarantine: status %d", rec.Code)
	}
}

// TestFaultCancelledQueuedRequestNoExecution pins the cancellation
// acceptance criterion: a queued call whose only waiter disconnects
// before a worker reaches it is cancelled without ever incrementing
// netcut_planner_executions_total.
func TestFaultCancelledQueuedRequestNoExecution(t *testing.T) {
	cfg := quickConfig(12)
	cfg.Devices = []device.Config{device.Xavier()}
	cfg.Workers = 1 // one lane, one worker: the hook below wedges all execution
	g, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer mustShutdown(t, g)

	entered := make(chan struct{}, 4)
	release := make(chan struct{})
	var releaseOnce atomic.Bool
	g.testHookPass = func(string) {
		entered <- struct{}{}
		if !releaseOnce.Load() {
			<-release
		}
	}

	// Request A occupies the lone worker inside the hook, before any
	// planner work happens.
	aDone := make(chan *httptest.ResponseRecorder, 1)
	go func() { aDone <- post(g, graphBody(t, userNet(0), 0.35, "")) }()
	<-entered

	// Request B is admitted and queued behind A, then its only client
	// disconnects while it waits.
	ctx, cancel := context.WithCancel(context.Background())
	reqB := httptest.NewRequest(http.MethodPost, "/v1/plan",
		strings.NewReader(graphBody(t, userNet(1), 0.35, ""))).WithContext(ctx)
	bDone := make(chan struct{})
	go func() {
		g.Handler().ServeHTTP(httptest.NewRecorder(), reqB)
		close(bDone)
	}()
	waitFor(t, "request B to be admitted", func() bool {
		g.mu.Lock()
		defer g.mu.Unlock()
		return len(g.inflight) == 2
	})
	cancel()
	<-bDone // the handler has decremented B's waiter count

	if got := g.Planner().Executions(); got != 0 {
		t.Fatalf("planner executed %d times before the worker was released", got)
	}
	releaseOnce.Store(true)
	close(release)
	if rec := <-aDone; rec.Code != http.StatusOK {
		t.Fatalf("request A: status %d: %s", rec.Code, rec.Body.String())
	}
	waitFor(t, "request B to be cancelled", func() bool { return g.cancelled.Value() == 1 })
	if got := g.Planner().Executions(); got != 1 {
		t.Fatalf("planner executions = %d after cancellation, want 1 (request A only)", got)
	}
}

// TestFaultCancelledLatencyRecorded pins the telemetry fix: a request
// whose client disconnects before delivery must land in the dedicated
// netcut_gateway_request_cancelled_lat_ms series — before the fix the
// handler returned without observing anything, so cancellations were
// invisible in latency telemetry — and must stay out of
// netcut_gateway_request_ms, whose quantiles feed budget shedding.
func TestFaultCancelledLatencyRecorded(t *testing.T) {
	cfg := quickConfig(13)
	cfg.Devices = []device.Config{device.Xavier()}
	cfg.Workers = 1
	g, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer mustShutdown(t, g)

	entered := make(chan struct{}, 4)
	release := make(chan struct{})
	var releaseOnce atomic.Bool
	g.testHookPass = func(string) {
		entered <- struct{}{}
		if !releaseOnce.Load() {
			<-release
		}
	}

	aDone := make(chan *httptest.ResponseRecorder, 1)
	go func() { aDone <- post(g, graphBody(t, userNet(0), 0.35, "")) }()
	<-entered

	ctx, cancel := context.WithCancel(context.Background())
	reqB := httptest.NewRequest(http.MethodPost, "/v1/plan",
		strings.NewReader(graphBody(t, userNet(1), 0.35, ""))).WithContext(ctx)
	bDone := make(chan struct{})
	go func() {
		g.Handler().ServeHTTP(httptest.NewRecorder(), reqB)
		close(bDone)
	}()
	waitFor(t, "request B to be admitted", func() bool {
		g.mu.Lock()
		defer g.mu.Unlock()
		return len(g.inflight) == 2
	})
	cancel()
	<-bDone // the handler has observed B's fate before returning

	if got := g.cancelledLatMs.Count(); got != 1 {
		t.Fatalf("netcut_gateway_request_cancelled_lat_ms count = %d after disconnect, want 1", got)
	}
	if got := g.requestLatMs.Count(); got != 0 {
		t.Fatalf("netcut_gateway_request_ms count = %d, want 0: cancellations must not skew shed quantiles", got)
	}
	releaseOnce.Store(true)
	close(release)
	if rec := <-aDone; rec.Code != http.StatusOK {
		t.Fatalf("request A: status %d: %s", rec.Code, rec.Body.String())
	}
	if got, want := g.requestLatMs.Count(), uint64(1); got != want {
		t.Fatalf("netcut_gateway_request_ms count = %d after delivery, want %d (request A only)", got, want)
	}
	if got := g.cancelledLatMs.Count(); got != 1 {
		t.Fatalf("netcut_gateway_request_cancelled_lat_ms count = %d after delivery, want still 1", got)
	}
}

// TestFaultUnhealthyDeviceSkippedAndRecovers pins per-device health:
// consecutive panics trip a device unhealthy — "auto" routes around it,
// explicit requests get 503 + Retry-After, GET /v1/devices reports it —
// and the background probe restores it once the fault clears. Each
// poison is a distinct identity, so none is quarantined first.
func TestFaultUnhealthyDeviceSkippedAndRecovers(t *testing.T) {
	defer faultinject.Reset()
	cfg := quickConfig(13)
	cfg.Devices = []device.Config{device.Xavier(), device.EdgeCPU()}
	g, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer mustShutdown(t, g)

	// The poison graphs panic on any device; the probe's zoo plan
	// (zoo.Names[0]) is armed too, so the device stays down until the
	// harness resets.
	faultinject.Arm(faultinject.TrimPanic, "poison-health", 0)
	faultinject.Arm(faultinject.TrimPanic, zoo.Names[0], 0)

	for i := 0; i < unhealthyAfter; i++ {
		body := graphBody(t, poisonNet(i, "poison-health-"+string(rune('a'+i))), 0.35, `,"target":"sim-xavier"`)
		if rec := post(g, body); rec.Code != http.StatusInternalServerError {
			t.Fatalf("poison %d: status %d: %s", i, rec.Code, rec.Body.String())
		}
	}

	// Tripped: explicit requests are refused with a retryable 503...
	rec := post(g, graphBody(t, userNet(0), 0.35, `,"target":"sim-xavier"`))
	if rec.Code != http.StatusServiceUnavailable || errCode(t, rec) != "device_unhealthy" {
		t.Fatalf("explicit request on unhealthy device: status %d code %q", rec.Code, errCode(t, rec))
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Fatal("unhealthy 503 carries no Retry-After header")
	}
	// ...auto routing skips the tripped device...
	rec = post(g, graphBody(t, userNet(1), 0.35, `,"target":"auto"`))
	if rec.Code != http.StatusOK {
		t.Fatalf("auto request with one unhealthy device: status %d: %s", rec.Code, rec.Body.String())
	}
	var resp PlanResponseWire
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Device != "sim-edge-cpu" {
		t.Fatalf("auto routed to %q, want the healthy sim-edge-cpu", resp.Device)
	}
	// ...and the fleet view reports the state.
	devs := struct{ Devices []DeviceWire }{}
	if err := json.Unmarshal(get(g, "/v1/devices").Body.Bytes(), &devs); err != nil {
		t.Fatal(err)
	}
	for _, d := range devs.Devices {
		if want := d.Name != "sim-xavier"; d.Healthy != want {
			t.Fatalf("device %s healthy=%v, want %v", d.Name, d.Healthy, want)
		}
	}

	// Clear the fault: the next probe succeeds and restores the device.
	faultinject.Reset()
	waitFor(t, "probe to restore sim-xavier", func() bool { return g.deviceEligible("sim-xavier") })
	if g.lanes["sim-xavier"].probes.Value() == 0 {
		t.Fatal("device recovered without any probe recorded")
	}
	if rec := post(g, graphBody(t, userNet(0), 0.35, `,"target":"sim-xavier"`)); rec.Code != http.StatusOK {
		t.Fatalf("explicit request after recovery: status %d: %s", rec.Code, rec.Body.String())
	}
}

// TestFaultSnapshotWriteAndBakFallback pins crash-safe persistence: a
// failed snapshot write leaves the previous generation (and no temp
// file) in place, a corrupted primary is rejected on restore, and
// LoadStateFile falls back to the .bak previous-good generation.
func TestFaultSnapshotWriteAndBakFallback(t *testing.T) {
	defer faultinject.Reset()
	dir := t.TempDir()
	path := filepath.Join(dir, "state.bin")
	cfg := quickConfig(14)
	cfg.Devices = []device.Config{device.Xavier()}
	cfg.StatePath = path
	g, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer mustShutdown(t, g)

	if rec := post(g, graphBody(t, userNet(0), 0.35, "")); rec.Code != http.StatusOK {
		t.Fatal(rec.Body.String())
	}
	if _, err := g.SaveStateFile(); err != nil {
		t.Fatalf("good save: %v", err)
	}

	// Injected write error: the save fails as a branchable Injected
	// error, the temp file is cleaned up, the good generation stands.
	faultinject.Arm(faultinject.SnapshotWrite, path, 1)
	if _, err := g.SaveStateFile(); err == nil {
		t.Fatal("snapshot write fault did not surface")
	} else {
		var inj faultinject.Injected
		if !errors.As(err, &inj) || inj.Point != faultinject.SnapshotWrite {
			t.Fatalf("save error %v is not the injected fault", err)
		}
	}
	assertNoTempFiles(t, dir)

	// Corrupted save: the write "succeeds" but the primary is torn; the
	// rotation has preserved the good generation as .bak.
	if rec := post(g, graphBody(t, userNet(1), 0.35, "")); rec.Code != http.StatusOK {
		t.Fatal(rec.Body.String())
	}
	faultinject.Arm(faultinject.StateCorrupt, path, 1)
	if _, err := g.SaveStateFile(); err != nil {
		t.Fatalf("corrupting save: %v", err)
	}

	g2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer mustShutdown(t, g2)
	used, err := g2.LoadStateFile()
	if err != nil {
		t.Fatalf("restore with corrupt primary: %v", err)
	}
	if used != path+".bak" {
		t.Fatalf("restored from %q, want the .bak fallback", used)
	}
	if g2.restoreFallbck.Value() != 1 {
		t.Fatalf("netcut_gateway_state_restore_fallback_total = %d, want 1", g2.restoreFallbck.Value())
	}
	if g2.Planner().Stats().Measurements.Len == 0 {
		t.Fatal("fallback restore populated no measurement cache")
	}
}

// TestFaultAutosaveLoopAndDrain pins the autosave loop and its drain
// ordering: snapshots accumulate on the jittered cadence, Shutdown
// stops the loop before returning, no temp file survives the drain, and
// the surviving snapshot restores cleanly.
func TestFaultAutosaveLoopAndDrain(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "state.bin")
	cfg := quickConfig(15)
	cfg.Devices = []device.Config{device.Xavier()}
	cfg.StatePath = path
	cfg.AutosaveInterval = 5 * time.Millisecond
	g, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rec := post(g, graphBody(t, userNet(0), 0.35, "")); rec.Code != http.StatusOK {
		t.Fatal(rec.Body.String())
	}
	// Two generations, so both the primary and .bak exist.
	waitFor(t, "two autosaves", func() bool { return g.autosaves.Value() >= 2 })
	mustShutdown(t, g)

	saves := g.autosaves.Value()
	time.Sleep(30 * time.Millisecond)
	if got := g.autosaves.Value(); got != saves {
		t.Fatalf("autosave loop still running after drain: %d -> %d", saves, got)
	}
	assertNoTempFiles(t, dir)

	cfg2 := cfg
	cfg2.AutosaveInterval = 0
	g2, err := New(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	defer mustShutdown(t, g2)
	if used, err := g2.LoadStateFile(); err != nil || used != path {
		t.Fatalf("restore after drained autosave: path %q err %v", used, err)
	}
}

// TestFaultDrainRacesPrewarm pins the drain-vs-prewarm race: a prewarm
// sweep in flight when Shutdown begins winds down before the drain
// completes, and a prewarm started after the drain is a closed no-op.
func TestFaultDrainRacesPrewarm(t *testing.T) {
	cfg := quickConfig(16)
	cfg.Devices = []device.Config{device.Xavier(), device.EdgeCPU()}
	g, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	done := g.Prewarm()
	mustShutdown(t, g) // Shutdown waits for background work: no timeout means no leak
	select {
	case <-done:
	default:
		t.Fatal("prewarm channel still open after a completed drain")
	}
	select {
	case <-g.Prewarm():
	case <-time.After(time.Second):
		t.Fatal("prewarm started after drain did not close immediately")
	}
}

// TestFaultRetryAfterEveryRejection audits the satellite contract:
// every 429/503 rejection path carries a Retry-After header, and the
// header is the body's retry_after_ms hint rounded up to whole seconds
// (clamped to at least 1) — not a hardcoded constant.
func TestFaultRetryAfterEveryRejection(t *testing.T) {
	defer faultinject.Reset()

	// Path 1: draining. The header must reflect the remaining drain
	// budget, so a 7-second DrainTimeout with an instant drain reads
	// back as "7" — the old code said "1" here no matter the budget.
	cfg1 := quickConfig(17)
	cfg1.DrainTimeout = 7 * time.Second
	g1, err := New(cfg1)
	if err != nil {
		t.Fatal(err)
	}
	// Shutdown with no context deadline so DrainTimeout is the budget
	// (a context deadline would win). The drain is instant: no inflight.
	if err := g1.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	rec := post(g1, `{"network":"ResNet-50"}`)
	if rec.Code != http.StatusServiceUnavailable || rec.Header().Get("Retry-After") != "7" {
		t.Fatalf("draining: status %d retry-after %q, want 503 with %q",
			rec.Code, rec.Header().Get("Retry-After"), "7")
	}
	if got := wantRetryAfter(t, rec); got != "7" {
		t.Fatalf("draining body hint rounds to %q, want %q", got, "7")
	}

	// Paths 2+3: queue_full and budget_too_small on one gateway.
	cfg := quickConfig(18)
	cfg.Devices = []device.Config{device.Xavier()}
	cfg.Workers = 1
	cfg.QueueDepth = 1
	g2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer mustShutdown(t, g2)
	// Warm the histogram so budget shedding activates; the shed
	// request is lane work, since a resident answer beats the shed.
	w := warmExecutions(t, g2, "sim-xavier", userNet(0), shedMinSamples)
	rec = post(g2, w.body(`,"budget_ms":0.000001`))
	if rec.Code != http.StatusTooManyRequests || errCode(t, rec) != "budget_too_small" ||
		rec.Header().Get("Retry-After") != wantRetryAfter(t, rec) {
		t.Fatalf("budget shed: status %d code %q retry-after %q, want hint %q",
			rec.Code, errCode(t, rec), rec.Header().Get("Retry-After"), wantRetryAfter(t, rec))
	}
	entered := make(chan struct{}, 4)
	release := make(chan struct{})
	var releaseOnce atomic.Bool
	g2.testHookPass = func(string) {
		entered <- struct{}{}
		if !releaseOnce.Load() {
			<-release
		}
	}
	aDone := make(chan *httptest.ResponseRecorder, 1)
	go func() { aDone <- post(g2, graphBody(t, userNet(1), 0.35, "")) }()
	<-entered // the worker is wedged; the 1-slot queue is empty
	bDone := make(chan *httptest.ResponseRecorder, 1)
	go func() { bDone <- post(g2, graphBody(t, userNet(2), 0.35, "")) }()
	waitFor(t, "request B to occupy the queue", func() bool {
		g2.mu.Lock()
		defer g2.mu.Unlock()
		return len(g2.inflight) == 2
	})
	// No executions can complete while the worker is wedged, so the
	// p99 read here is exactly the one the rejection's hint will use.
	p2, err := g2.pool.Planner("sim-xavier")
	if err != nil {
		t.Fatal(err)
	}
	p99, _ := p2.WarmQuantile(0.99)
	rec = post(g2, graphBody(t, userNet(3), 0.35, ""))
	if rec.Code != http.StatusTooManyRequests || errCode(t, rec) != "queue_full" ||
		rec.Header().Get("Retry-After") != wantRetryAfter(t, rec) {
		t.Fatalf("queue full: status %d code %q retry-after %q, want hint %q",
			rec.Code, errCode(t, rec), rec.Header().Get("Retry-After"), wantRetryAfter(t, rec))
	}
	// The hint must be backlog-honest: one request (B) queued behind
	// one worker is one execution wave of p99 — and the arithmetic must
	// be the wave product, not a flat per-request estimate.
	var qf ErrorWire
	if err := json.Unmarshal(rec.Body.Bytes(), &qf); err != nil {
		t.Fatal(err)
	}
	if want := math.Max(laneWaves(1, g2.laneWorkers)*p99, 1); qf.RetryAfterMs != want {
		t.Fatalf("queue-full hint %v, want ceil(backlog/workers)*p99 = %v", qf.RetryAfterMs, want)
	}
	releaseOnce.Store(true)
	close(release)
	<-aDone
	<-bDone

	// Paths 4+5: device_unhealthy and no_healthy_device.
	cfg3 := quickConfig(19)
	cfg3.Devices = []device.Config{device.Xavier()}
	g3, err := New(cfg3)
	if err != nil {
		t.Fatal(err)
	}
	defer mustShutdown(t, g3)
	tripDevice(t, g3, 7, "sim-xavier")
	// Retry hints for unhealthy devices are the probe interval, the
	// soonest a probe could restore the device.
	probeMs := float64(probeInterval) / float64(time.Millisecond)
	rec = post(g3, graphBody(t, userNet(0), 0.35, `,"target":"sim-xavier"`))
	if rec.Code != http.StatusServiceUnavailable || errCode(t, rec) != "device_unhealthy" ||
		retryAfterMs(t, rec) != probeMs || rec.Header().Get("Retry-After") != wantRetryAfter(t, rec) {
		t.Fatalf("device_unhealthy: status %d code %q retry-after %q, want hint %v ms",
			rec.Code, errCode(t, rec), rec.Header().Get("Retry-After"), probeMs)
	}
	rec = post(g3, graphBody(t, userNet(0), 0.35, `,"target":"auto"`))
	if rec.Code != http.StatusServiceUnavailable || errCode(t, rec) != "no_healthy_device" ||
		retryAfterMs(t, rec) != probeMs || rec.Header().Get("Retry-After") != wantRetryAfter(t, rec) {
		t.Fatalf("no_healthy_device: status %d code %q retry-after %q, want hint %v ms",
			rec.Code, errCode(t, rec), rec.Header().Get("Retry-After"), probeMs)
	}
}

// TestFaultReadyz pins readiness as distinct from liveness: not ready
// before MarkReady, ready after, not ready again while draining — with
// /healthz staying 200 throughout.
func TestFaultReadyz(t *testing.T) {
	cfg := quickConfig(20)
	cfg.Devices = []device.Config{device.Xavier()}
	g, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rec := get(g, "/readyz"); rec.Code != http.StatusServiceUnavailable ||
		rec.Header().Get("Retry-After") == "" {
		t.Fatalf("pre-restore readyz: status %d retry-after %q", rec.Code, rec.Header().Get("Retry-After"))
	}
	if rec := get(g, "/healthz"); rec.Code != http.StatusOK {
		t.Fatalf("healthz: status %d", rec.Code)
	}
	g.MarkReady()
	if rec := get(g, "/readyz"); rec.Code != http.StatusOK {
		t.Fatalf("post-MarkReady readyz: status %d", rec.Code)
	}
	mustShutdown(t, g)
	if rec := get(g, "/readyz"); rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("draining readyz: status %d", rec.Code)
	}
	if rec := get(g, "/healthz"); rec.Code != http.StatusOK {
		t.Fatalf("draining healthz: status %d (liveness must outlast readiness)", rec.Code)
	}
}

func assertNoTempFiles(t *testing.T, dir string) {
	t.Helper()
	tmp, err := filepath.Glob(filepath.Join(dir, "*.tmp*"))
	if err != nil {
		t.Fatal(err)
	}
	if len(tmp) != 0 {
		t.Fatalf("temp files left behind: %v", tmp)
	}
}
