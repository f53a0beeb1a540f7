package gateway

// Overload-control suite: the load-level ladder (driven
// deterministically through the faultinject QueueStall/HeapPressure
// points), the emergency admission gate, AIMD lane concurrency, the
// opt-in degraded-serving fallback, the backlog-honest retry hints,
// and the -race soak that pushes ~4x the queue capacity through a
// tiny gateway. The TestFault* names put the heavyweight tests in the
// CI fault job's -race -run 'Fault' selection alongside the
// containment suite.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"netcut/internal/device"
	"netcut/internal/faultinject"
	"netcut/internal/zoo"
)

// retryAfterMs decodes the structured error body's retry hint.
func retryAfterMs(t *testing.T, rec *httptest.ResponseRecorder) float64 {
	t.Helper()
	var e ErrorWire
	if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil {
		t.Fatalf("decoding error body %q: %v", rec.Body.String(), err)
	}
	return e.RetryAfterMs
}

// TestFaultOverloadLadderQueueStall pins the ladder's contract at
// level 2 end to end, deterministically: the QueueStall point reads
// the lane as completely full, so the controller must report
// emergency within one interval; byte-cache hits and coalesce joins
// keep serving; a cold miss is shed pre-execution with the
// level-scaled backlog-honest hint; and one tick after the signal
// clears the level is back to 0 and cold misses serve again.
func TestFaultOverloadLadderQueueStall(t *testing.T) {
	defer faultinject.Reset()
	cfg := quickConfig(31)
	cfg.Devices = []device.Config{device.Xavier()}
	cfg.OverloadInterval = 2 * time.Millisecond
	cfg.ShedMinSamples = 1 << 30 // no budget shedding in this test
	g, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer mustShutdown(t, g)

	if lvl := g.LoadLevel(); lvl != levelNormal {
		t.Fatalf("fresh gateway at load level %d, want 0", lvl)
	}

	// Warm one identity into the byte cache while the gateway is calm.
	hitBody := graphBody(t, userNet(0), 0.35, "")
	if rec := post(g, hitBody); rec.Code != http.StatusOK {
		t.Fatal(rec.Body.String())
	}

	// Wedge the lane worker mid-pass so an in-flight leader exists for
	// the coalesce-join assertion below.
	entered := make(chan struct{}, 8)
	release := make(chan struct{})
	var releaseOnce atomic.Bool
	g.testHookBatch = func(string, int) {
		entered <- struct{}{}
		if !releaseOnce.Load() {
			<-release
		}
	}
	leaderBody := graphBody(t, userNet(1), 0.35, "")
	leaderDone := make(chan *httptest.ResponseRecorder, 1)
	go func() { leaderDone <- post(g, leaderBody) }()
	<-entered

	// Stall signal on: the next tick must report emergency.
	faultinject.Arm(faultinject.QueueStall, "sim-xavier", 0)
	waitFor(t, "load level 2", func() bool { return g.LoadLevel() == levelEmergency })
	if g.loadTransitions.Value() == 0 {
		t.Fatal("level moved to 2 without a recorded transition")
	}

	// Byte-cache hits still serve at level 2.
	if rec := post(g, hitBody); rec.Code != http.StatusOK {
		t.Fatalf("byte-cache hit at level 2: status %d: %s", rec.Code, rec.Body.String())
	}
	// Coalesce joins still serve: an identical spelling of the wedged
	// leader must join its in-flight execution, not be shed.
	joined := g.coalesced.Value()
	followerDone := make(chan *httptest.ResponseRecorder, 1)
	go func() { followerDone <- post(g, leaderBody) }()
	waitFor(t, "follower to coalesce at level 2", func() bool { return g.coalesced.Value() > joined })

	// A cold miss is shed pre-execution with the level-scaled,
	// backlog-honest hint: level x ceil(backlog/workers) x (p99+window).
	p, err := g.pool.Planner("sim-xavier")
	if err != nil {
		t.Fatal(err)
	}
	p99, _ := p.WarmQuantile(0.99)
	backlog := len(g.lanes["sim-xavier"].queue)
	rec := post(g, graphBody(t, userNet(2), 0.35, ""))
	if rec.Code != http.StatusTooManyRequests || errCode(t, rec) != "overload_shed" {
		t.Fatalf("cold miss at level 2: status %d code %q, want 429 overload_shed", rec.Code, errCode(t, rec))
	}
	want := math.Max(float64(levelEmergency)*laneWaves(backlog, g.laneWorkers)*(p99+g.windowMs()), 1)
	if got := retryAfterMs(t, rec); got != want {
		t.Fatalf("overload_shed hint %v, want level-scaled %v", got, want)
	}
	if hdr := rec.Header().Get("Retry-After"); hdr != wantRetryAfter(t, rec) {
		t.Fatalf("overload_shed Retry-After header %q does not round the body hint %q", hdr, wantRetryAfter(t, rec))
	}
	if g.shedOverload.Value() == 0 {
		t.Fatal("overload shed not counted")
	}

	// The level is visible on both surfaces.
	if m := get(g, "/metrics").Body.String(); !strings.Contains(m, "netcut_gateway_load_level 2") {
		t.Fatalf("/metrics does not report netcut_gateway_load_level 2:\n%s", m)
	}
	if s := get(g, "/debug/stats").Body.String(); !strings.Contains(s, `"overload"`) {
		t.Fatalf("/debug/stats carries no overload document: %s", s)
	}

	// Release the wedge: leader and follower deliver byte-identical
	// bodies — admission at level 2 refused new work, never changed
	// in-flight results.
	releaseOnce.Store(true)
	close(release)
	lRec, fRec := <-leaderDone, <-followerDone
	if lRec.Code != http.StatusOK || fRec.Code != http.StatusOK {
		t.Fatalf("leader/follower status %d/%d: %s / %s", lRec.Code, fRec.Code, lRec.Body.String(), fRec.Body.String())
	}
	if !bytes.Equal(stripped(lRec.Body.Bytes()), stripped(fRec.Body.Bytes())) {
		t.Fatalf("coalesced bodies diverged:\n%s\n%s", lRec.Body.String(), fRec.Body.String())
	}

	// Signal off: back to 0 within a tick, cold misses serve again.
	faultinject.Reset()
	waitFor(t, "load level 0 after the stall clears", func() bool { return g.LoadLevel() == levelNormal })
	if rec := post(g, graphBody(t, userNet(3), 0.35, "")); rec.Code != http.StatusOK {
		t.Fatalf("cold miss after recovery: status %d: %s", rec.Code, rec.Body.String())
	}
}

// TestFaultOverloadHeapPressure pins the memory signal's escalation:
// the HeapPressure point reads the heap as over the configured limit,
// which is an emergency on the next tick, and clears with the signal.
func TestFaultOverloadHeapPressure(t *testing.T) {
	defer faultinject.Reset()
	cfg := quickConfig(32)
	cfg.Devices = []device.Config{device.Xavier()}
	cfg.OverloadInterval = 2 * time.Millisecond
	g, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer mustShutdown(t, g)

	faultinject.Arm(faultinject.HeapPressure, "heap", 0)
	waitFor(t, "heap pressure to force level 2", func() bool { return g.LoadLevel() == levelEmergency })
	faultinject.Reset()
	waitFor(t, "level 0 after heap pressure clears", func() bool { return g.LoadLevel() == levelNormal })
}

// TestOverloadConfigValidation pins the new knobs' edges: negative
// heap limits and out-of-range ladder fractions are configuration
// errors, and a negative OverloadInterval disables the controller —
// the level stays 0 even with a stall signal armed, and nothing is
// shed.
func TestOverloadConfigValidation(t *testing.T) {
	defer faultinject.Reset()
	for name, mutate := range map[string]func(*Config){
		"negative heap limit":      func(c *Config) { c.HeapLimitBytes = -1 },
		"brownout frac above one":  func(c *Config) { c.BrownoutQueueFrac = 1.5 },
		"negative emergency frac":  func(c *Config) { c.EmergencyQueueFrac = -0.2 },
		"emergency frac above one": func(c *Config) { c.EmergencyQueueFrac = 2 },
	} {
		cfg := quickConfig(33)
		cfg.Devices = []device.Config{device.Xavier()}
		mutate(&cfg)
		if _, err := New(cfg); err == nil {
			t.Fatalf("%s: config accepted", name)
		}
	}

	cfg := quickConfig(33)
	cfg.Devices = []device.Config{device.Xavier()}
	cfg.OverloadInterval = -1
	g, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer mustShutdown(t, g)
	faultinject.Arm(faultinject.QueueStall, "sim-xavier", 0)
	time.Sleep(20 * time.Millisecond)
	if lvl := g.LoadLevel(); lvl != levelNormal {
		t.Fatalf("disabled controller reports level %d", lvl)
	}
	if rec := post(g, graphBody(t, userNet(0), 0.35, "")); rec.Code != http.StatusOK {
		t.Fatalf("cold miss with controller disabled: status %d: %s", rec.Code, rec.Body.String())
	}
}

// TestOverloadBrownoutWindowAndTraceSampling pins the brownout cuts
// that have no wire-visible effect: the effective batch window halves
// at level 1 and drops at level 2, and the trace ring keeps a
// deterministic 1-in-4 sample under brownout (the sampled-out
// remainder is counted, and requests themselves are unaffected).
func TestOverloadBrownoutWindowAndTraceSampling(t *testing.T) {
	cfg := quickConfig(34)
	cfg.Devices = []device.Config{device.Xavier()}
	cfg.BatchWindow = 4 * time.Millisecond
	cfg.OverloadInterval = -1 // manual level control below
	g, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer mustShutdown(t, g)

	for lvl, want := range map[int32]time.Duration{
		levelNormal:    cfg.BatchWindow,
		levelBrownout:  cfg.BatchWindow / 2,
		levelEmergency: 0,
	} {
		g.loadLevel.Store(lvl)
		if got := g.effectiveBatchWindow(); got != want {
			t.Fatalf("effective window at level %d = %v, want %v", lvl, got, want)
		}
	}

	g.loadLevel.Store(levelBrownout)
	for i := 0; i < 8; i++ {
		if rec := post(g, graphBody(t, userNet(10+i), 0.35, "")); rec.Code != http.StatusOK {
			t.Fatalf("request %d under brownout: status %d: %s", i, rec.Code, rec.Body.String())
		}
	}
	// Sequence numbers 1..8 keep seq%4==1 — traces 1 and 5 — so
	// exactly 6 of 8 completed traces were sampled out of the ring.
	if got := g.traceSampledOut.Value(); got != 6 {
		t.Fatalf("sampled out %d of 8 brownout traces, want 6", got)
	}
	g.loadLevel.Store(levelNormal)
}

// TestOverloadSleepNoTrailingTick pins the stop-aware sleep's
// contract after Shutdown: with the drain signalled, sleep must
// report false even when its timer is simultaneously ready — the
// two-arm select the probe and autosave loops used to run picked an
// arm at random here, letting a closed gateway take one more tick
// about half the time.
func TestOverloadSleepNoTrailingTick(t *testing.T) {
	cfg := quickConfig(35)
	cfg.Devices = []device.Config{device.Xavier()}
	g, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !g.sleep(time.Microsecond) {
		t.Fatal("sleep on a live gateway reported stop")
	}
	mustShutdown(t, g)
	for i := 0; i < 200; i++ {
		if g.sleep(0) {
			t.Fatalf("iteration %d: sleep returned true after Shutdown (trailing tick)", i)
		}
	}
}

// TestFaultShutdownNoTrailingProbe pins the loop-level consequence: a
// gateway probing an unhealthy device at a 1ms cadence shuts down
// promptly, and once Shutdown has returned — having waited for the
// background loops — no further probe ever runs.
func TestFaultShutdownNoTrailingProbe(t *testing.T) {
	defer faultinject.Reset()
	cfg := quickConfig(36)
	cfg.Devices = []device.Config{device.Xavier()}
	cfg.UnhealthyAfter = 1
	cfg.ProbeInterval = time.Millisecond
	g, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var probes atomic.Int64
	g.testHookProbe = func(string) { probes.Add(1) }

	// Trip the device; the armed zoo plan keeps every probe failing,
	// so the probe loop runs for the rest of the test.
	faultinject.Arm(faultinject.TrimPanic, "poison-trailing", 0)
	faultinject.Arm(faultinject.TrimPanic, zoo.Names[0], 0)
	if rec := post(g, graphBody(t, poisonNet(4, "poison-trailing"), 0.35, "")); rec.Code != http.StatusInternalServerError {
		t.Fatal(rec.Body.String())
	}
	waitFor(t, "probes to run", func() bool { return probes.Load() >= 3 })

	start := time.Now()
	mustShutdown(t, g)
	if d := time.Since(start); d > 5*time.Second {
		t.Fatalf("shutdown took %v with a 1ms probe cadence", d)
	}
	after := probes.Load()
	time.Sleep(30 * time.Millisecond)
	if got := probes.Load(); got != after {
		t.Fatalf("%d probes ran after Shutdown returned", got-after)
	}
}

// TestOverloadAIMDLaneConcurrency pins the AIMD limit's arithmetic
// against a real lane: it starts at the per-lane worker ceiling,
// halves (floored at 1, counted) on containment events, grows back by
// one per tracking pass, refuses to grow on a drifting pass — and
// that same drifting observation is what flips the controller's
// warm-p99 drift signal to brownout.
func TestOverloadAIMDLaneConcurrency(t *testing.T) {
	cfg := quickConfig(37)
	cfg.Devices = []device.Config{device.Xavier()}
	cfg.Workers = 4
	cfg.ShedMinSamples = 1
	cfg.ByteCacheCap = -1
	cfg.OverloadInterval = -1
	g, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer mustShutdown(t, g)
	l := g.lanes["sim-xavier"]
	limit := func() int {
		l.execMu.Lock()
		defer l.execMu.Unlock()
		return l.execLimit
	}
	if g.laneWorkers != 4 || limit() != 4 {
		t.Fatalf("lane starts at limit %d of %d workers, want the ceiling 4", limit(), g.laneWorkers)
	}

	// Warm the histogram past driftMinSamples so the tracking predicate
	// and the drift gate are active, then pin the drift EWMA to the
	// warm p99 — the cold pass's wall-clock legitimately reads as drift
	// against warm history, and this test pins the signal arithmetic,
	// not the cold start.
	for i := 0; i < driftMinSamples+2; i++ {
		if rec := post(g, graphBody(t, userNet(0), 0.35, "")); rec.Code != http.StatusOK {
			t.Fatal(rec.Body.String())
		}
	}
	p, err := g.pool.Planner("sim-xavier")
	if err != nil {
		t.Fatal(err)
	}
	p99, _ := p.WarmQuantile(0.99)
	l.execMu.Lock()
	l.execEwmaMs = p99
	l.execMu.Unlock()
	if lvl := g.computeLoadLevel(); lvl != levelNormal {
		t.Fatalf("calm gateway computes level %d", lvl)
	}

	for i, want := range []int{2, 1, 1} { // halve, halve, floor
		g.laneAIMDDecrease("sim-xavier")
		if got := limit(); got != want {
			t.Fatalf("decrease %d: limit %d, want %d", i, got, want)
		}
	}
	if got := l.aimdDecreases.Value(); got != 2 {
		t.Fatalf("%d decreases counted, want 2 (the floor no-op does not count)", got)
	}

	for i, want := range []int{2, 3, 4, 4} { // additive growth, capped
		g.laneAIMDIncrease("sim-xavier", p99)
		if got := limit(); got != want {
			t.Fatalf("increase %d: limit %d, want %d", i, got, want)
		}
	}

	// A drifting pass: the limit must not grow past a decrease, and
	// the drift EWMA flips the controller signal to brownout.
	g.laneAIMDDecrease("sim-xavier")
	g.laneAIMDIncrease("sim-xavier", 1e6)
	if got := limit(); got != 2 {
		t.Fatalf("drifting pass grew the limit to %d", got)
	}
	if lvl := g.computeLoadLevel(); lvl != levelBrownout {
		t.Fatalf("drifting lane computes level %d, want brownout", lvl)
	}
}

// TestOverloadIdleDriftDecay pins the controller's idle decay: the
// drift EWMA is the one ladder signal with memory, and it only
// collects samples while passes run — so a lone slow pass must not
// hold an idle gateway in brownout. Each tick halves the EWMA of a
// lane with no queued work and no pass in flight (and only such a
// lane), and the level folds back to normal once it decays under the
// drift threshold.
func TestOverloadIdleDriftDecay(t *testing.T) {
	cfg := quickConfig(43)
	cfg.Devices = []device.Config{device.Xavier()}
	cfg.ShedMinSamples = 1
	cfg.ByteCacheCap = -1     // repeats must execute to build warm history
	cfg.OverloadInterval = -1 // ticks driven by hand
	g, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer mustShutdown(t, g)

	// Warm history past driftMinSamples so the drift gate is active,
	// then inflate the EWMA the way a slow cold pass would.
	for i := 0; i < driftMinSamples+2; i++ {
		if rec := post(g, graphBody(t, userNet(0), 0.35, "")); rec.Code != http.StatusOK {
			t.Fatal(rec.Body.String())
		}
	}
	l := g.lanes["sim-xavier"]
	// A post returns once its body is delivered, before the worker
	// releases its execution slot: wait for the lane to go idle, or the
	// idle ticks below see a busy lane and never decay.
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		l.execMu.Lock()
		active := l.execActive
		l.execMu.Unlock()
		if active == 0 || time.Now().After(deadline) {
			break
		}
	}
	l.execMu.Lock()
	l.execEwmaMs = 1e6
	l.execMu.Unlock()
	if lvl := g.computeLoadLevel(); lvl != levelBrownout {
		t.Fatalf("inflated drift EWMA computes level %d, want brownout", lvl)
	}

	// A busy lane must not decay: the drift signal may not be washed
	// out while passes are in flight.
	l.execMu.Lock()
	l.execActive++
	l.execMu.Unlock()
	g.overloadTick()
	l.execMu.Lock()
	busyEwma := l.execEwmaMs
	l.execActive--
	l.execMu.Unlock()
	if busyEwma != 1e6 {
		t.Fatalf("tick decayed a busy lane's EWMA to %v", busyEwma)
	}

	// Idle ticks halve the EWMA until the level folds back to normal
	// and the signal zeroes out entirely.
	ticks := 0
	for ; ticks < 64 && g.LoadLevel() != levelNormal; ticks++ {
		g.overloadTick()
	}
	if got := g.LoadLevel(); got != levelNormal {
		t.Fatalf("level still %d after %d idle ticks", got, ticks)
	}
	for i := 0; i < 64; i++ {
		g.overloadTick()
	}
	l.execMu.Lock()
	final := l.execEwmaMs
	l.execMu.Unlock()
	if final != 0 {
		t.Fatalf("idle EWMA decayed to %v, want exactly 0", final)
	}
}

// TestFaultDegradedUnhealthyDevice pins opt-in degraded serving on
// the health path: with the default device tripped, allow_degraded
// falls back deterministically to the fastest healthy device and the
// body is byte-identical to the explicit spelling of that fallback
// modulo the trace ID and the write-time degraded markers — on both
// the execution path and the byte-cache hit path.
func TestFaultDegradedUnhealthyDevice(t *testing.T) {
	defer faultinject.Reset()
	cfg := quickConfig(38)
	cfg.Devices = []device.Config{device.Xavier(), device.EdgeCPU()}
	cfg.UnhealthyAfter = 1
	cfg.ProbeInterval = time.Hour // no recovery during the test
	g, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer mustShutdown(t, g)

	faultinject.Arm(faultinject.TrimPanic, "poison-degraded", 1)
	if rec := post(g, graphBody(t, poisonNet(5, "poison-degraded"), 0.35, "")); rec.Code != http.StatusInternalServerError {
		t.Fatal(rec.Body.String())
	}

	// Without the flag the tripped default target stays a 503.
	if rec := post(g, graphBody(t, userNet(0), 0.35, "")); rec.Code != http.StatusServiceUnavailable ||
		errCode(t, rec) != "device_unhealthy" {
		t.Fatalf("unflagged request on tripped default: status %d code %q", rec.Code, errCode(t, rec))
	}

	// Cold degraded fallback (execution path).
	rec := post(g, graphBody(t, userNet(0), 0.35, `,"allow_degraded":true`))
	if rec.Code != http.StatusOK {
		t.Fatalf("degraded fallback: status %d: %s", rec.Code, rec.Body.String())
	}
	var resp PlanResponseWire
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Device != "sim-edge-cpu" || !resp.Degraded || resp.DegradedReason != degradedUnhealthy {
		t.Fatalf("degraded fallback device %q degraded=%v reason %q", resp.Device, resp.Degraded, resp.DegradedReason)
	}
	d1 := rec.Body.Bytes()

	// Repeat: now a byte-cache hit of the fallback identity, still
	// marked degraded, byte-identical modulo the trace ID.
	rec = post(g, graphBody(t, userNet(0), 0.35, `,"allow_degraded":true`))
	if rec.Code != http.StatusOK {
		t.Fatal(rec.Body.String())
	}
	if !bytes.Equal(stripped(d1), stripped(rec.Body.Bytes())) {
		t.Fatalf("cold and cached degraded bodies diverged:\n%s\n%s", d1, rec.Body.Bytes())
	}
	// Explicit spelling of the fallback target delivers the canonical
	// body: no degraded markers leak out of the shared byte cache, and
	// the degraded body equals it modulo the markers.
	rec = post(g, graphBody(t, userNet(0), 0.35, `,"target":"sim-edge-cpu"`))
	if rec.Code != http.StatusOK {
		t.Fatal(rec.Body.String())
	}
	if bytes.Contains(rec.Body.Bytes(), []byte(`"degraded"`)) {
		t.Fatalf("explicit response leaked degraded markers: %s", rec.Body.String())
	}
	if !bytes.Equal(StripDegraded(stripped(d1)), stripped(rec.Body.Bytes())) {
		t.Fatalf("degraded body is not the explicit fallback body plus markers:\n%s\n%s", d1, rec.Body.Bytes())
	}

	// The explicit spelling of the tripped device degrades too.
	rec = post(g, graphBody(t, userNet(0), 0.35, `,"target":"sim-xavier","allow_degraded":true`))
	if rec.Code != http.StatusOK {
		t.Fatalf("explicit degraded fallback: status %d: %s", rec.Code, rec.Body.String())
	}
	if !bytes.Contains(rec.Body.Bytes(), []byte(`"degraded":true,"degraded_reason":"unhealthy_device"`)) {
		t.Fatalf("explicit degraded response carries no marker: %s", rec.Body.String())
	}
	if g.degradedServed.Value() < 3 {
		t.Fatalf("degraded counter %d, want >= 3", g.degradedServed.Value())
	}
}

// TestFaultDegradedBudgetAndFleetDown pins the other degraded entry
// point and its limit: a budget-infeasible request with allow_degraded
// is served late on the fastest device instead of shed — for default,
// explicit and auto targets, marked budget_infeasible, byte-identical
// to the unbudgeted spelling modulo markers, and never counted as a
// shed — while a fleet with no healthy device keeps returning 503
// no_healthy_device: there is nothing to degrade onto.
func TestFaultDegradedBudgetAndFleetDown(t *testing.T) {
	defer faultinject.Reset()
	cfg := quickConfig(39)
	cfg.Devices = []device.Config{device.Xavier()}
	cfg.ShedMinSamples = 1
	cfg.ByteCacheCap = -1 // repeats must reach the shed predicate
	g, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer mustShutdown(t, g)

	// Warm the histogram so budget shedding activates, and keep the
	// unbudgeted body as the byte-identity reference.
	var want []byte
	for i := 0; i < 2; i++ {
		rec := post(g, graphBody(t, userNet(0), 0.35, ""))
		if rec.Code != http.StatusOK {
			t.Fatal(rec.Body.String())
		}
		want = stripped(rec.Body.Bytes())
	}

	if rec := post(g, graphBody(t, userNet(0), 0.35, `,"budget_ms":0.000001`)); rec.Code != http.StatusTooManyRequests ||
		errCode(t, rec) != "budget_too_small" {
		t.Fatalf("unflagged tiny budget: status %d code %q", rec.Code, errCode(t, rec))
	}

	for _, spelling := range []string{
		`,"budget_ms":0.000001,"allow_degraded":true`,
		`,"target":"sim-xavier","budget_ms":0.000001,"allow_degraded":true`,
		`,"target":"auto","budget_ms":0.000001,"allow_degraded":true`,
	} {
		rec := post(g, graphBody(t, userNet(0), 0.35, spelling))
		if rec.Code != http.StatusOK {
			t.Fatalf("degraded budget fallback %q: status %d: %s", spelling, rec.Code, rec.Body.String())
		}
		var resp PlanResponseWire
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		if !resp.Degraded || resp.DegradedReason != degradedBudget || resp.Device != "sim-xavier" {
			t.Fatalf("fallback %q: device %q degraded=%v reason %q", spelling, resp.Device, resp.Degraded, resp.DegradedReason)
		}
		if !bytes.Equal(StripDegraded(stripped(rec.Body.Bytes())), want) {
			t.Fatalf("degraded budget body diverged from the unbudgeted spelling:\n%s\nwant %s", rec.Body.Bytes(), want)
		}
	}
	if g.degradedServed.Value() != 3 {
		t.Fatalf("degraded counter %d, want 3", g.degradedServed.Value())
	}
	// Served degraded, not shed: the unflagged request stays the only
	// budget shed.
	if got := g.shedBudget.Value(); got != 1 {
		t.Fatalf("shed_budget counter %d after the degraded spellings, want 1", got)
	}

	// Fleet-wide unhealthy: allow_degraded cannot conjure a device.
	cfg2 := quickConfig(40)
	cfg2.Devices = []device.Config{device.Xavier()}
	cfg2.UnhealthyAfter = 1
	cfg2.ProbeInterval = time.Hour
	g2, err := New(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	defer mustShutdown(t, g2)
	faultinject.Arm(faultinject.TrimPanic, "poison-fleet", 1)
	if rec := post(g2, graphBody(t, poisonNet(6, "poison-fleet"), 0.35, "")); rec.Code != http.StatusInternalServerError {
		t.Fatal(rec.Body.String())
	}
	rec := post(g2, graphBody(t, userNet(1), 0.35, `,"allow_degraded":true`))
	if rec.Code != http.StatusServiceUnavailable || errCode(t, rec) != "no_healthy_device" {
		t.Fatalf("fleet down with allow_degraded: status %d code %q", rec.Code, errCode(t, rec))
	}
	if rec.Header().Get("Retry-After") != "3600" {
		t.Fatalf("fleet-down Retry-After %q, want the probe cadence", rec.Header().Get("Retry-After"))
	}
}

// TestOverloadQueueFullRetryAfterWaves pins the backlog-honest hint at
// depth: with four requests queued behind one wedged worker, the
// queue-full hint must claim ceil(4/1) execution waves of (p99 +
// window) each — four times what a one-deep backlog claims.
func TestOverloadQueueFullRetryAfterWaves(t *testing.T) {
	cfg := quickConfig(41)
	cfg.Devices = []device.Config{device.Xavier()}
	cfg.Workers = 1
	cfg.QueueDepth = 4
	cfg.ShedMinSamples = 1
	cfg.ByteCacheCap = -1
	g, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer mustShutdown(t, g)

	// Warm the histogram so the hint has a real p99 to scale.
	for i := 0; i < 2; i++ {
		if rec := post(g, graphBody(t, userNet(0), 0.35, "")); rec.Code != http.StatusOK {
			t.Fatal(rec.Body.String())
		}
	}

	entered := make(chan struct{}, 8)
	release := make(chan struct{})
	var releaseOnce atomic.Bool
	g.testHookBatch = func(string, int) {
		entered <- struct{}{}
		if !releaseOnce.Load() {
			<-release
		}
	}
	var wg sync.WaitGroup
	results := make(chan *httptest.ResponseRecorder, 5)
	wedge := func(i int) {
		defer wg.Done()
		results <- post(g, graphBody(t, userNet(20+i), 0.35, ""))
	}
	wg.Add(1)
	go wedge(0)
	<-entered // the worker is wedged; the queue is empty
	for i := 1; i <= 4; i++ {
		wg.Add(1)
		go wedge(i)
	}
	waitFor(t, "four requests to fill the queue", func() bool {
		return len(g.lanes["sim-xavier"].queue) == 4
	})

	p, err := g.pool.Planner("sim-xavier")
	if err != nil {
		t.Fatal(err)
	}
	p99, _ := p.WarmQuantile(0.99)
	rec := post(g, graphBody(t, userNet(30), 0.35, ""))
	if rec.Code != http.StatusTooManyRequests || errCode(t, rec) != "queue_full" {
		t.Fatalf("probe: status %d code %q", rec.Code, errCode(t, rec))
	}
	want := math.Max(4*(p99+g.windowMs()), 1)
	if got := retryAfterMs(t, rec); got != want {
		t.Fatalf("queue-full hint %v, want 4 waves = %v (p99 %v)", got, want, p99)
	}
	if hdr := rec.Header().Get("Retry-After"); hdr != wantRetryAfter(t, rec) {
		t.Fatalf("Retry-After header %q does not round the hint", hdr)
	}

	releaseOnce.Store(true)
	close(release)
	wg.Wait()
	close(results)
	for r := range results {
		if r.Code != http.StatusOK {
			t.Fatalf("queued request failed after release: %d: %s", r.Code, r.Body.String())
		}
	}
}

// TestFaultOverloadSoak floods a tiny gateway with roughly 4x its
// queue capacity of unique cold requests over slowed executions (the
// ExecDelay point) and pins the controller's dynamic behavior under
// -race: the level rises to emergency, byte-cache hits keep serving
// through it, every rejection is a well-formed 429 with a Retry-After,
// the level returns to 0 once the load stops, a cold request serves
// again, and shutdown leaks no goroutines.
func TestFaultOverloadSoak(t *testing.T) {
	defer faultinject.Reset()
	before := runtime.NumGoroutine()
	cfg := quickConfig(42)
	cfg.Devices = []device.Config{device.Xavier()}
	cfg.Workers = 1
	cfg.QueueDepth = 4
	cfg.ShedMinSamples = 1 << 30 // reject only on backlog, never budget
	cfg.OverloadInterval = 3 * time.Millisecond
	g, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer mustShutdown(t, g)

	hitBody := graphBody(t, userNet(0), 0.35, "")
	if rec := post(g, hitBody); rec.Code != http.StatusOK {
		t.Fatal(rec.Body.String())
	}
	faultinject.ArmDelay(faultinject.ExecDelay, "", 0, 3*time.Millisecond)

	const posters = 8
	var (
		seq    atomic.Int64
		served atomic.Int64
		shed   atomic.Int64
		wg     sync.WaitGroup
		stop   = make(chan struct{})
		errs   = make(chan error, posters)
	)
	for w := 0; w < posters; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				select {
				case <-stop:
					return
				default:
				}
				rec := post(g, graphBody(t, userNet(100+int(seq.Add(1))), 0.35, ""))
				switch rec.Code {
				case http.StatusOK:
					served.Add(1)
				case http.StatusTooManyRequests:
					shed.Add(1)
					var e ErrorWire
					if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil ||
						(e.Code != "queue_full" && e.Code != "overload_shed") {
						errs <- fmt.Errorf("unexpected 429 body: %s", rec.Body.String())
						return
					}
					if rec.Header().Get("Retry-After") == "" || e.RetryAfterMs <= 0 {
						errs <- fmt.Errorf("429 without a backlog-honest hint: %s", rec.Body.String())
						return
					}
				default:
					errs <- fmt.Errorf("status %d: %s", rec.Code, rec.Body.String())
					return
				}
			}
		}()
	}

	waitFor(t, "load level to rise under flood", func() bool { return g.LoadLevel() >= levelBrownout })
	waitFor(t, "emergency level under flood", func() bool { return g.LoadLevel() == levelEmergency })
	for i := 0; i < 3; i++ {
		if rec := post(g, hitBody); rec.Code != http.StatusOK {
			t.Fatalf("byte-cache hit during overload: status %d: %s", rec.Code, rec.Body.String())
		}
	}
	waitFor(t, "overload sheds to be counted", func() bool { return g.shedOverload.Value() > 0 })

	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if served.Load() == 0 || shed.Load() == 0 {
		t.Fatalf("soak served %d / shed %d; both sides must be exercised", served.Load(), shed.Load())
	}

	faultinject.Reset()
	waitFor(t, "load level 0 after the flood", func() bool { return g.LoadLevel() == levelNormal })
	coldBody := graphBody(t, userNet(99), 0.35, "")
	waitFor(t, "cold requests to serve again", func() bool { return post(g, coldBody).Code == http.StatusOK })

	mustShutdown(t, g)
	waitFor(t, "goroutines to drain", func() bool { return runtime.NumGoroutine() <= before+5 })
}
