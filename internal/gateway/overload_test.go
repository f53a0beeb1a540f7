package gateway

// Overload-control suite: the load-level ladder (driven
// deterministically through the faultinject QueueStall point), which
// pauses prewarm and refuses no request, slow passes that must not
// read as overload, the opt-in degraded-serving fallback, the
// backlog-honest retry hints, and the -race soak that pushes ~4x the
// queue capacity through a tiny gateway. The TestFault* names put the
// heavyweight tests in the CI fault job's -race -run 'Fault' selection
// alongside the containment suite.

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

// TestFaultOverloadLadderQueueStall pins the ladder's contract end to
// end, deterministically: the QueueStall point reads the lane as
// completely full, so the very next read of the level is brownout,
// shown on /metrics and /debug/stats; resident answers and coalesce
// joins keep serving; and once the signal clears the level reads 0 and
// cold misses serve.
func TestFaultOverloadLadderQueueStall(t *testing.T) {
	defer faultinject.Reset()
	cfg := quickConfig(31)
	cfg.Devices = []device.Config{device.Xavier()}
	g, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer mustShutdown(t, g)

	if lvl := g.LoadLevel(); lvl != levelNormal {
		t.Fatalf("fresh gateway at load level %d, want 0", lvl)
	}

	// Accept one identity's staircase step while the gateway is calm.
	hitBody := graphBody(t, userNet(0), 0.35, "")
	if rec := post(g, hitBody); rec.Code != http.StatusOK {
		t.Fatal(rec.Body.String())
	}

	// Wedge the lane worker mid-pass so an in-flight leader exists for
	// the coalesce-join assertion below.
	entered := make(chan struct{}, 8)
	release := make(chan struct{})
	var releaseOnce atomic.Bool
	g.testHookPass = func(string) {
		entered <- struct{}{}
		if !releaseOnce.Load() {
			<-release
		}
	}
	leaderBody := graphBody(t, userNet(1), 0.35, "")
	leaderDone := make(chan *httptest.ResponseRecorder, 1)
	go func() { leaderDone <- post(g, leaderBody) }()
	<-entered

	// Stall signal on: the next read is brownout.
	faultinject.Arm(faultinject.QueueStall, "sim-xavier", 0)
	if lvl := g.LoadLevel(); lvl != levelBrownout {
		t.Fatalf("load level %d with the lane stalled, want %d", lvl, levelBrownout)
	}

	// Resident answers still serve at level 1.
	if rec := post(g, hitBody); rec.Code != http.StatusOK {
		t.Fatalf("resident answer at level 1: status %d: %s", rec.Code, rec.Body.String())
	}
	// Coalesce joins still serve: an identical spelling of the wedged
	// leader must join its in-flight execution, not be shed.
	joined := g.coalesced.Value()
	followerDone := make(chan *httptest.ResponseRecorder, 1)
	go func() { followerDone <- post(g, leaderBody) }()
	waitFor(t, "follower to coalesce at level 1", func() bool { return g.coalesced.Value() > joined })

	// The level is visible on both surfaces.
	if m := get(g, "/metrics").Body.String(); !strings.Contains(m, "netcut_gateway_load_level 1") {
		t.Fatalf("/metrics does not report netcut_gateway_load_level 1:\n%s", m)
	}
	if s := get(g, "/debug/stats").Body.String(); !strings.Contains(s, `"overload"`) {
		t.Fatalf("/debug/stats carries no overload document: %s", s)
	}

	// Release the wedge: leader and follower deliver byte-identical
	// bodies — the level never changes in-flight results.
	releaseOnce.Store(true)
	close(release)
	lRec, fRec := <-leaderDone, <-followerDone
	if lRec.Code != http.StatusOK || fRec.Code != http.StatusOK {
		t.Fatalf("leader/follower status %d/%d: %s / %s", lRec.Code, fRec.Code, lRec.Body.String(), fRec.Body.String())
	}
	if !bytes.Equal(stripped(lRec.Body.Bytes()), stripped(fRec.Body.Bytes())) {
		t.Fatalf("coalesced bodies diverged:\n%s\n%s", lRec.Body.String(), fRec.Body.String())
	}

	// Signal off: the level reads 0 again, cold misses serve again.
	faultinject.Reset()
	if lvl := g.LoadLevel(); lvl != levelNormal {
		t.Fatalf("load level %d after the stall cleared, want 0", lvl)
	}
	if rec := post(g, graphBody(t, userNet(3), 0.35, "")); rec.Code != http.StatusOK {
		t.Fatalf("cold miss after the stall: status %d: %s", rec.Code, rec.Body.String())
	}
}

// TestOverloadLevelTable pins the ladder's fold: phantom waiters in
// one lane of several, just below and at the brownout threshold of
// laneQueueCap and at a full lane, read as levels 0 and 1, the same on
// every read; and a QueueStall on the lane reads as level 1 whatever
// its backlog.
func TestOverloadLevelTable(t *testing.T) {
	defer faultinject.Reset()
	cfg := quickConfig(33)
	cfg.Devices = device.Profiles()
	g, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer mustShutdown(t, g)
	if len(g.lanes) < 2 {
		t.Fatalf("%d lanes, want several", len(g.lanes))
	}
	l := g.lanes[device.Xavier().Name]
	at := func(frac float64) int64 { return int64(math.Ceil(frac * float64(g.laneQueueCap))) }
	for _, row := range []struct {
		waiting int64
		stall   bool
		want    int
	}{
		{0, false, levelNormal},
		{at(brownoutQueueFrac) - 1, false, levelNormal},
		{at(brownoutQueueFrac), false, levelBrownout},
		{int64(g.laneQueueCap), false, levelBrownout},
		{at(brownoutQueueFrac) - 1, false, levelNormal},
		{0, true, levelBrownout},
		{0, false, levelNormal},
	} {
		l.waiting.Store(row.waiting)
		faultinject.Reset()
		if row.stall {
			faultinject.Arm(faultinject.QueueStall, l.device, 0)
		}
		for read := 0; read < 3; read++ {
			if got := g.LoadLevel(); got != row.want {
				t.Fatalf("waiting %d of %d (stall %v): level %d, want %d",
					row.waiting, g.laneQueueCap, row.stall, got, row.want)
			}
		}
	}
	l.waiting.Store(0)
}

// TestOverloadObserversChangeNoResponse pins that admission reads lane
// state, never its observers: with one pass held and one leader
// waiting in a one-slot lane, three overflow arrivals get the same
// status, code, retry hint and shed counter whether or not an
// observer of the level (a /metrics scrape, /debug/stats, LoadLevel or
// a prewarm task paused by the backlog) reads between them. Every
// overflow meets the lane's queue_full gate.
func TestOverloadObserversChangeNoResponse(t *testing.T) {
	type outcome struct {
		status       int
		code         string
		retryAfterMs float64
		shedQueue    uint64
	}
	observers := []struct {
		name  string
		start func(g *Gateway) // once, before the first overflow
		read  func(g *Gateway) // between overflows
	}{
		{name: "none"},
		{name: "metrics", read: func(g *Gateway) { get(g, "/metrics") }},
		{name: "debug-stats", read: func(g *Gateway) { get(g, "/debug/stats") }},
		{name: "LoadLevel", read: func(g *Gateway) { g.LoadLevel() }},
		{
			// A prewarm task started under the backlog pauses at once
			// and re-reads the level every prewarmPause.
			name:  "paused-prewarm",
			start: func(g *Gateway) { g.Prewarm() },
			read:  func(*Gateway) { time.Sleep(prewarmPause + prewarmPause/2) },
		},
	}
	run := func(t *testing.T, start, read func(g *Gateway)) []outcome {
		cfg := quickConfig(36)
		cfg.Devices = []device.Config{device.Xavier()}
		cfg.Workers, cfg.QueueDepth = 1, 1
		g, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		gate := make(chan struct{})
		entered := make(chan struct{}, 4)
		g.testHookPass = func(string) {
			entered <- struct{}{}
			<-gate
		}
		admitted := make(chan int, 2)
		send := func(i int) { admitted <- post(g, graphBody(t, userNet(i), 0.35, "")).Code }
		go send(0) // holds the lane's one permit
		<-entered
		go send(1) // waits in its one slot
		l := g.lanes["sim-xavier"]
		waitFor(t, "a leader to wait in the lane", func() bool { return l.waiting.Load() == 1 })
		if start != nil {
			start(g)
		}
		var out []outcome
		for i := 2; i < 5; i++ {
			if read != nil {
				read(g)
			}
			rec := post(g, graphBody(t, userNet(i), 0.35, ""))
			out = append(out, outcome{
				status:       rec.Code,
				code:         errCode(t, rec),
				retryAfterMs: retryAfterMs(t, rec),
				shedQueue:    l.shedQueue.Value(),
			})
		}
		close(gate)
		for range 2 {
			if code := <-admitted; code != http.StatusOK {
				t.Fatalf("admitted request: status %d", code)
			}
		}
		mustShutdown(t, g)
		return out
	}
	var want []outcome
	for _, obs := range observers {
		t.Run(obs.name, func(t *testing.T) {
			got := run(t, obs.start, obs.read)
			if want == nil {
				want = got
				for i, o := range got {
					if o.status != http.StatusTooManyRequests || o.code != "queue_full" {
						t.Fatalf("overflow %d: status %d code %q, want 429 queue_full", i, o.status, o.code)
					}
				}
				return
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("overflow %d: %+v with the observer reading, %+v without", i, got[i], want[i])
				}
			}
		})
	}
}

// TestOverloadBrownoutKeepsEveryTrace pins that the load level does
// not touch tracing: under brownout every request serves and every
// completed trace lands in the /debug/trace ring.
func TestOverloadBrownoutKeepsEveryTrace(t *testing.T) {
	cfg := quickConfig(34)
	cfg.Devices = []device.Config{device.Xavier()}
	g, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer mustShutdown(t, g)

	// Phantom waiters fill half the waiting room: brownout, with room
	// left for the requests below.
	l := g.lanes["sim-xavier"]
	phantom := int64(math.Ceil(brownoutQueueFrac * float64(g.laneQueueCap)))
	l.waiting.Add(phantom)
	defer l.waiting.Add(-phantom)
	if lvl := g.LoadLevel(); lvl != levelBrownout {
		t.Fatalf("load level %d with a half-full lane, want %d", lvl, levelBrownout)
	}
	for i := 0; i < 8; i++ {
		if rec := post(g, graphBody(t, userNet(10+i), 0.35, "")); rec.Code != http.StatusOK {
			t.Fatalf("request %d under brownout: status %d: %s", i, rec.Code, rec.Body.String())
		}
	}
	if got := g.ring.Len(); got != 8 {
		t.Fatalf("ring holds %d of 8 brownout traces, want all", got)
	}
}

// TestOverloadBrownoutPausesPrewarm pins the prewarm sweep's brownout
// pause with one task per device in flight: while lane backlog holds
// the load level at brownout, netcut_gateway_prewarmed_total does not
// move over several watches; once the level clears, the sweep
// finishes with the full zoo x fleet count. A drain during the pause
// aborts the sweep and closes its channel.
func TestOverloadBrownoutPausesPrewarm(t *testing.T) {
	const tick = 5 * time.Millisecond
	newGateway := func(t *testing.T) *Gateway {
		cfg := quickConfig(35)
		cfg.Devices = device.Profiles()
		g, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	// holdBrownout parks phantom leaders in half of one lane's waiting
	// room — the brownout threshold, with room left — and checks that the level reads brownout. The returned func takes them
	// out again.
	holdBrownout := func(t *testing.T, g *Gateway) (release func()) {
		l := g.lanes[device.Xavier().Name]
		n := int64(math.Ceil(brownoutQueueFrac * float64(g.laneQueueCap)))
		l.waiting.Add(n)
		if lvl := g.LoadLevel(); lvl != levelBrownout {
			t.Fatalf("load level %d with a half-full lane, want %d", lvl, levelBrownout)
		}
		return func() { l.waiting.Add(-n) }
	}
	// paused watches the sweep over several ticks of a held brownout.
	paused := func(t *testing.T, g *Gateway) {
		for range 8 {
			time.Sleep(tick)
			if lvl := g.LoadLevel(); lvl != levelBrownout {
				t.Fatalf("load level %d, want brownout held", lvl)
			}
			if got := g.prewarmed.Value(); got != 0 {
				t.Fatalf("prewarmed %d plans under brownout, want 0", got)
			}
		}
	}

	t.Run("resumes", func(t *testing.T) {
		g := newGateway(t)
		defer mustShutdown(t, g)
		release := holdBrownout(t, g)
		done := g.Prewarm()
		paused(t, g)
		release()
		select {
		case <-done:
		case <-time.After(60 * time.Second):
			t.Fatal("prewarm did not finish after the brownout cleared")
		}
		if got, want := g.prewarmed.Value(), uint64(len(g.pool.DeviceNames())*len(zoo.Names)); got != want {
			t.Fatalf("prewarmed %d plans, want %d", got, want)
		}
	})

	t.Run("drain", func(t *testing.T) {
		g := newGateway(t)
		holdBrownout(t, g)
		done := g.Prewarm()
		paused(t, g)
		mustShutdown(t, g) // waits for the paused device tasks
		select {
		case <-done:
		default:
			t.Fatal("prewarm channel still open after a drain during its pause")
		}
		if got := g.prewarmed.Value(); got != 0 {
			t.Fatalf("prewarmed %d plans, want 0", got)
		}
	})
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
// gateway probing an unhealthy device shuts down in less than one probe
// cadence, and once Shutdown has returned — having waited for the
// background loops — no further probe runs in the two cadences that
// follow, where a probe loop that outlived the drain would fire.
func TestFaultShutdownNoTrailingProbe(t *testing.T) {
	defer faultinject.Reset()
	cfg := quickConfig(36)
	cfg.Devices = []device.Config{device.Xavier()}
	g, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var probes atomic.Int64
	g.testHookProbe = func(string) { probes.Add(1) }

	// Trip the device; the armed zoo plan keeps every probe failing,
	// so the probe loop runs for the rest of the test.
	tripDevice(t, g, 4, "sim-xavier")
	waitFor(t, "a probe to run", func() bool { return probes.Load() >= 1 })

	start := time.Now()
	mustShutdown(t, g)
	if d := time.Since(start); d >= probeInterval {
		t.Fatalf("shutdown took %v, waiting out the %v probe cadence", d, probeInterval)
	}
	after := probes.Load()
	time.Sleep(2 * probeInterval)
	if got := probes.Load(); got != after {
		t.Fatalf("%d probes ran after Shutdown returned", got-after)
	}
}

// TestOverloadSlowPassesStayNormal pins that pass latency is not an
// overload signal: once the warm histogram holds shedMinSamples
// executions, a few passes held far past twice the warm p99 on an
// otherwise idle lane leave the level at 0. Lanes carry mostly cold
// passes, which take milliseconds by nature; only a backlog waiting for
// permits raises the ladder (TestFaultOverloadLadderQueueStall,
// TestFaultOverloadSoak).
func TestOverloadSlowPassesStayNormal(t *testing.T) {
	defer faultinject.Reset()
	cfg := quickConfig(43)
	cfg.Devices = []device.Config{device.Xavier()}
	g, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer mustShutdown(t, g)

	warmExecutions(t, g, "sim-xavier", userNet(0), shedMinSamples)
	p, err := g.pool.Planner("sim-xavier")
	if err != nil {
		t.Fatal(err)
	}
	p99, _ := p.WarmQuantile(0.99)
	hold := time.Duration(math.Max(10*p99, 20) * float64(time.Millisecond))
	const passes = 3
	faultinject.ArmDelay(faultinject.ExecDelay, "", passes, hold)
	for i := 0; i < passes; i++ {
		start := time.Now()
		if rec := post(g, graphBody(t, userNet(50+i), 0.35, "")); rec.Code != http.StatusOK {
			t.Fatalf("slow pass %d: status %d: %s", i, rec.Code, rec.Body.String())
		}
		if d := time.Since(start); d < hold {
			t.Fatalf("pass %d took %v, not held for %v", i, d, hold)
		}
	}
	if lvl := g.LoadLevel(); lvl != levelNormal {
		t.Fatalf("%d passes held %v (warm p99 %.3f ms) on an idle lane raised the level to %d, want 0",
			passes, hold, p99, lvl)
	}
}

// TestFaultDegradedUnhealthyDevice pins opt-in degraded serving on
// the health path: with the default device tripped, allow_degraded
// falls back deterministically to the fastest healthy device and the
// body is byte-identical to the explicit spelling of that fallback
// modulo the trace ID and the write-time degraded markers — on both
// the execution path and the resident path.
func TestFaultDegradedUnhealthyDevice(t *testing.T) {
	defer faultinject.Reset()
	cfg := quickConfig(38)
	cfg.Devices = []device.Config{device.Xavier(), device.EdgeCPU()}
	g, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer mustShutdown(t, g)

	tripDevice(t, g, 5, "sim-xavier")

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

	// Repeat: now a resident answer on the fallback device, still
	// marked degraded, byte-identical modulo the trace ID.
	rec = post(g, graphBody(t, userNet(0), 0.35, `,"allow_degraded":true`))
	if rec.Code != http.StatusOK {
		t.Fatal(rec.Body.String())
	}
	if !bytes.Equal(stripped(d1), stripped(rec.Body.Bytes())) {
		t.Fatalf("cold and resident degraded bodies diverged:\n%s\n%s", d1, rec.Body.Bytes())
	}
	// Explicit spelling of the fallback target delivers the canonical
	// body: no degraded markers leak out of the shared resident step, and
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
	g, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer mustShutdown(t, g)

	// Warm the histogram so budget shedding activates. Each budgeted
	// request below is the walk's next step, lane work: a resident
	// answer would beat the shed, and so need no fallback.
	w := warmExecutions(t, g, "sim-xavier", userNet(0), shedMinSamples)
	if rec := post(g, w.body(`,"budget_ms":0.000001`)); rec.Code != http.StatusTooManyRequests ||
		errCode(t, rec) != "budget_too_small" {
		t.Fatalf("unflagged tiny budget: status %d code %q", rec.Code, errCode(t, rec))
	}

	for _, spelling := range []string{
		`,"budget_ms":0.000001,"allow_degraded":true`,
		`,"target":"sim-xavier","budget_ms":0.000001,"allow_degraded":true`,
		`,"target":"auto","budget_ms":0.000001,"allow_degraded":true`,
	} {
		rec := post(g, w.body(spelling))
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
		// The byte-identity reference: the unbudgeted spelling.
		ref := post(g, w.body(""))
		if ref.Code != http.StatusOK {
			t.Fatal(ref.Body.String())
		}
		if want := stripped(ref.Body.Bytes()); !bytes.Equal(StripDegraded(stripped(rec.Body.Bytes())), want) {
			t.Fatalf("degraded budget body diverged from the unbudgeted spelling:\n%s\nwant %s", rec.Body.Bytes(), want)
		}
		w.advance(ref.Body.Bytes())
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
	g2, err := New(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	defer mustShutdown(t, g2)
	tripDevice(t, g2, 6, "sim-xavier")
	rec := post(g2, graphBody(t, userNet(1), 0.35, `,"allow_degraded":true`))
	if rec.Code != http.StatusServiceUnavailable || errCode(t, rec) != "no_healthy_device" {
		t.Fatalf("fleet down with allow_degraded: status %d code %q", rec.Code, errCode(t, rec))
	}
	if got, want := retryAfterMs(t, rec), float64(probeInterval)/float64(time.Millisecond); got != want {
		t.Fatalf("fleet-down retry hint %v ms, want the probe cadence %v ms", got, want)
	}
}

// TestOverloadQueueFullRetryAfterWaves pins the backlog-honest hint at
// depth: with four requests queued behind one wedged worker, the
// queue-full hint must claim ceil(4/1) execution waves of p99 each —
// four times what a one-deep backlog claims.
func TestOverloadQueueFullRetryAfterWaves(t *testing.T) {
	cfg := quickConfig(41)
	cfg.Devices = []device.Config{device.Xavier()}
	cfg.Workers = 1
	cfg.QueueDepth = 4
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
	g.testHookPass = func(string) {
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
		return g.lanes["sim-xavier"].waiting.Load() == 4
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
	want := math.Max(4*p99, 1)
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
// -race: the level rises to brownout, resident answers keep serving
// through it, every rejection is the lane's well-formed 429
// queue_full with a Retry-After, the level returns to 0 once the load
// stops, a cold request serves again, and shutdown leaks no
// goroutines.
func TestFaultOverloadSoak(t *testing.T) {
	defer faultinject.Reset()
	before := runtime.NumGoroutine()
	cfg := quickConfig(42)
	cfg.Devices = []device.Config{device.Xavier()}
	cfg.Workers = 1
	cfg.QueueDepth = 4
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
						e.Code != "queue_full" {
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

	waitFor(t, "load level to rise under flood", func() bool { return g.LoadLevel() == levelBrownout })
	for i := 0; i < 3; i++ {
		if rec := post(g, hitBody); rec.Code != http.StatusOK {
			t.Fatalf("resident answer during overload: status %d: %s", rec.Code, rec.Body.String())
		}
	}
	l := g.lanes["sim-xavier"]
	waitFor(t, "queue-full sheds to be counted", func() bool { return l.shedQueue.Value() > 0 })

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
