package gateway

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"netcut/internal/device"
	"netcut/internal/faultinject"
	"netcut/internal/par"
	"netcut/internal/persist"
	"netcut/internal/serve"
	"netcut/internal/trim"
	"netcut/internal/zoo"
)

// postSave drives POST /v1/state/save directly.
func postSave(g *Gateway) *httptest.ResponseRecorder {
	req := httptest.NewRequest(http.MethodPost, "/v1/state/save", nil)
	rec := httptest.NewRecorder()
	g.Handler().ServeHTTP(rec, req)
	return rec
}

// TestGatewayLaneIsolation pins the head-of-line contract the lanes
// exist for: with a single configured worker total (so the old shared
// pool would have exactly one worker for the whole fleet), a planner
// pass stuck on one device must not keep another device's requests
// from executing — every lane owns at least one worker.
func TestGatewayLaneIsolation(t *testing.T) {
	cfg := quickConfig(21)
	cfg.Workers = 1 // divided across lanes: still one worker per device
	g, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer mustShutdown(t, g)

	slowDev := g.pool.DeviceNames()[2]
	gate := make(chan struct{})
	entered := make(chan struct{}, 4)
	g.testHookPass = func(device string) {
		if device == slowDev {
			entered <- struct{}{}
			<-gate
		}
	}

	// Wedge the slow device's lane in a (gated) planner pass.
	stuck := make(chan *int, 1)
	go func() {
		rec := post(g, `{"network":"ResNet-50","deadline_ms":0.9,"target":"`+slowDev+`"}`)
		stuck <- &rec.Code
	}()
	<-entered

	// Default-device traffic must flow while the other lane is stuck.
	done := make(chan int, 1)
	go func() {
		rec := post(g, `{"network":"MobileNetV1 (0.25)","deadline_ms":0.9}`)
		done <- rec.Code
	}()
	select {
	case code := <-done:
		if code != http.StatusOK {
			t.Fatalf("default-device request during stuck lane: status %d", code)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("default-device request head-of-line-blocked by another device's planner pass")
	}

	close(gate)
	if code := <-stuck; *code != http.StatusOK {
		t.Fatalf("slow-device request: status %d", *code)
	}
}

// TestLaneBacklogShedsOnlyItsLane pins that a lane's backlog sheds
// only that lane's arrivals: with one permit and one waiting slot per
// lane, sim-xavier's permit held and its slot taken, never-seen graphs
// sent to the idle sim-edge-cpu lane all serve and move no shed
// counter, while the full lane's next arrival gets its own 429
// queue_full with that lane's ceil(waiting/permits) × p99 hint.
func TestLaneBacklogShedsOnlyItsLane(t *testing.T) {
	cfg := quickConfig(23)
	cfg.Devices = []device.Config{device.Xavier(), device.EdgeCPU()}
	cfg.Workers, cfg.QueueDepth = 2, 2 // one permit and one slot per lane
	g, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer mustShutdown(t, g)
	if g.laneWorkers != 1 || g.laneQueueCap != 1 {
		t.Fatalf("lanes of %d permits and %d slots, want 1 and 1", g.laneWorkers, g.laneQueueCap)
	}

	gate := make(chan struct{})
	release := sync.OnceFunc(func() { close(gate) })
	defer release() // a failed check must not leave the drain waiting
	entered := make(chan struct{}, 2)
	g.testHookPass = func(dev string) {
		if dev == "sim-xavier" {
			entered <- struct{}{}
			<-gate
		}
	}
	admitted := make(chan int, 2)
	send := func(i int) { admitted <- post(g, graphBody(t, userNet(i), 0.35, "")).Code }
	go send(0) // holds sim-xavier's permit
	<-entered
	go send(1) // waits in sim-xavier's slot
	full := g.lanes["sim-xavier"]
	waitFor(t, "a leader to wait in sim-xavier's lane", func() bool { return full.waiting.Load() == 1 })

	// sheds sums every netcut_gateway_shed_* series on /metrics.
	sheds := func() float64 {
		sum := 0.0
		for _, line := range strings.Split(get(g, "/metrics").Body.String(), "\n") {
			if !strings.HasPrefix(line, "netcut_gateway_shed_") {
				continue
			}
			v, err := strconv.ParseFloat(line[strings.LastIndexByte(line, ' ')+1:], 64)
			if err != nil {
				t.Fatalf("metric line %q: %v", line, err)
			}
			sum += v
		}
		return sum
	}
	before := sheds()
	for i := 2; i < 6; i++ {
		rec := post(g, graphBody(t, userNet(i), 0.35, `,"target":"sim-edge-cpu"`))
		if rec.Code != http.StatusOK {
			t.Fatalf("cold miss %d to the idle lane: status %d: %s", i-1, rec.Code, rec.Body.String())
		}
		if got := sheds(); got != before {
			t.Fatalf("cold miss %d to the idle lane moved the shed counters %v -> %v", i-1, before, got)
		}
	}

	p99, _ := full.planner.WarmQuantile(0.99)
	want := math.Max(laneWaves(int(full.waiting.Load()), g.laneWorkers)*p99, 1)
	rec := post(g, graphBody(t, userNet(6), 0.35, ""))
	if rec.Code != http.StatusTooManyRequests || errCode(t, rec) != "queue_full" {
		t.Fatalf("overflow of the full lane: status %d: %s", rec.Code, rec.Body.String())
	}
	if got := retryAfterMs(t, rec); got != want {
		t.Fatalf("queue_full hint %v, want the lane's own %v", got, want)
	}
	if got := full.shedQueue.Value(); got != 1 {
		t.Fatalf("sim-xavier queue_full sheds %d, want 1", got)
	}
	if got := g.lanes["sim-edge-cpu"].shedQueue.Value(); got != 0 {
		t.Fatalf("sim-edge-cpu queue_full sheds %d, want 0", got)
	}

	release()
	for range 2 {
		if code := <-admitted; code != http.StatusOK {
			t.Fatalf("admitted sim-xavier request: status %d", code)
		}
	}
}

// TestGatewayLaneCapsDivide pins the division rule: lane queue depth
// and workers are the configured totals split evenly across devices,
// minimum 1 each, and an unset Workers gives every lane par.Workers().
func TestGatewayLaneCapsDivide(t *testing.T) {
	cfg := quickConfig(1)
	cfg.QueueDepth = 64
	cfg.Workers = 8
	g, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer mustShutdown(t, g)
	n := len(g.pool.DeviceNames())
	if len(g.lanes) != n {
		t.Fatalf("%d lanes for %d devices", len(g.lanes), n)
	}
	if g.laneQueueCap != 64/n || g.laneWorkers != 8/n {
		t.Fatalf("lane caps %d/%d, want %d/%d", g.laneQueueCap, g.laneWorkers, 64/n, 8/n)
	}
	for _, l := range g.lanes {
		if cap(l.permits) != g.laneWorkers {
			t.Fatalf("lane %s permit cap %d, want %d", l.device, cap(l.permits), g.laneWorkers)
		}
	}

	// Totals below the device count still give every lane one slot and
	// one worker.
	small := quickConfig(1)
	small.QueueDepth = 1
	small.Workers = 1
	gs, err := New(small)
	if err != nil {
		t.Fatal(err)
	}
	defer mustShutdown(t, gs)
	if gs.laneQueueCap != 1 || gs.laneWorkers != 1 {
		t.Fatalf("small lane caps %d/%d, want 1/1", gs.laneQueueCap, gs.laneWorkers)
	}

	// Workers unset: every lane gets one worker per core.
	gd, err := New(quickConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	defer mustShutdown(t, gd)
	if gd.laneWorkers != par.Workers() {
		t.Fatalf("default lane workers %d, want par.Workers() = %d", gd.laneWorkers, par.Workers())
	}
}

// TestGatewayLaneRunsWorkersConcurrently pins that a lane's
// parallelism is its configured worker count, fixed: with two workers
// per lane, two distinct graphs sent to one device both enter their
// planner passes before either may finish — and still do right after
// a contained panic on that device, which the queue-full Retry-After
// hint relies on.
func TestGatewayLaneRunsWorkersConcurrently(t *testing.T) {
	defer faultinject.Reset()
	cfg := quickConfig(22)
	cfg.Devices = []device.Config{device.Xavier(), device.EdgeCPU()}
	cfg.Workers = 2 * len(cfg.Devices)
	g, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer mustShutdown(t, g)
	if g.laneWorkers != 2 {
		t.Fatalf("%d workers per lane, want 2", g.laneWorkers)
	}

	var mu sync.Mutex
	gate := make(chan struct{})
	entered := make(chan struct{}, 4)
	g.testHookPass = func(dev string) {
		if dev != "sim-xavier" {
			return
		}
		mu.Lock()
		ch := gate
		mu.Unlock()
		entered <- struct{}{}
		<-ch
	}
	concurrent := func(phase string, a, b int) {
		t.Helper()
		results := make(chan *httptest.ResponseRecorder, 2)
		for _, i := range []int{a, b} {
			go func() { results <- post(g, graphBody(t, userNet(i), 0.35, "")) }()
			select {
			case <-entered:
			case <-time.After(10 * time.Second):
				t.Fatalf("%s: pass for graph %d never started while another pass held the lane", phase, i)
			}
		}
		mu.Lock()
		close(gate)
		mu.Unlock()
		for range 2 {
			if rec := <-results; rec.Code != http.StatusOK {
				t.Fatalf("%s: status %d: %s", phase, rec.Code, rec.Body.String())
			}
		}
	}
	concurrent("fresh lane", 0, 1)

	faultinject.Arm(faultinject.TrimPanic, "poison-parallel", 0)
	if rec := post(g, graphBody(t, poisonNet(2, "poison-parallel"), 0.35, "")); rec.Code != http.StatusInternalServerError {
		t.Fatalf("poison request: status %d: %s", rec.Code, rec.Body.String())
	}
	<-entered // the poison pass crossed the (open) gate
	mu.Lock()
	gate = make(chan struct{})
	mu.Unlock()
	concurrent("after a contained panic", 3, 4)
}

// TestGatewayStateSaveEndpoint pins the admin persistence surface:
// POST /v1/state/save writes a decodable snapshot to the configured
// path, a path-less gateway refuses with a structured 404, and a
// second gateway restored from the file serves its first request on
// the warm path with a byte-identical body.
func TestGatewayStateSaveEndpoint(t *testing.T) {
	trim.PurgeCutCache()
	t.Cleanup(trim.PurgeCutCache)
	statePath := filepath.Join(t.TempDir(), "state.json")
	cfg := quickConfig(17)
	cfg.StatePath = statePath
	g, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}

	body := `{"network":"MobileNetV1 (0.25)","deadline_ms":0.9}`
	warm := post(g, body)
	if warm.Code != http.StatusOK {
		t.Fatalf("warm request: %d", warm.Code)
	}

	saveRec := postSave(g)
	if saveRec.Code != http.StatusOK {
		t.Fatalf("state save: status %d: %s", saveRec.Code, saveRec.Body.String())
	}
	var resp struct {
		Path  string `json:"path"`
		Bytes int64  `json:"bytes"`
	}
	if err := json.Unmarshal(saveRec.Body.Bytes(), &resp); err != nil || resp.Path != statePath || resp.Bytes <= 0 {
		t.Fatalf("state save body %s", saveRec.Body.String())
	}
	raw, err := os.ReadFile(statePath)
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(raw)) != resp.Bytes {
		t.Fatalf("file holds %d bytes, endpoint reported %d", len(raw), resp.Bytes)
	}
	if _, err := persist.DecodeBytes(raw); err != nil {
		t.Fatalf("saved state does not decode: %v", err)
	}
	mustShutdown(t, g)

	// Restore into a fresh gateway: first request must be warm and
	// byte-identical.
	trim.PurgeCutCache()
	g2, err := New(quickConfig(17))
	if err != nil {
		t.Fatal(err)
	}
	defer mustShutdown(t, g2)
	f, err := os.Open(statePath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := g2.LoadState(f); err != nil {
		t.Fatalf("LoadState: %v", err)
	}
	rec2 := post(g2, body)
	if rec2.Code != http.StatusOK {
		t.Fatalf("post-restore request: %d", rec2.Code)
	}
	if string(stripped(rec2.Body.Bytes())) != string(stripped(warm.Body.Bytes())) {
		t.Fatalf("post-restore body diverged:\n got %s\nwant %s", rec2.Body.String(), warm.Body.String())
	}
	if _, samples := g2.Planner().WarmQuantile(0.99); samples != 1 {
		t.Fatalf("post-restore request ran cold (warm samples %d, want 1)", samples)
	}

	// Cross-seed snapshots are rejected, never silently trusted.
	g3, err := New(quickConfig(18))
	if err != nil {
		t.Fatal(err)
	}
	defer mustShutdown(t, g3)
	f2, err := os.Open(statePath)
	if err != nil {
		t.Fatal(err)
	}
	defer f2.Close()
	if err := g3.LoadState(f2); !errors.Is(err, persist.ErrStateMismatch) {
		t.Fatalf("cross-seed gateway load: err = %v, want ErrStateMismatch", err)
	}

	// Without a configured path, the endpoint is disabled.
	g4, err := New(quickConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	defer mustShutdown(t, g4)
	rec4 := postSave(g4)
	if rec4.Code != http.StatusNotFound {
		t.Fatalf("disabled state save: status %d", rec4.Code)
	}
	var e ErrorWire
	if err := json.Unmarshal(rec4.Body.Bytes(), &e); err != nil || e.Code != "state_disabled" {
		t.Fatalf("disabled state save body %s", rec4.Body.String())
	}
}

// TestGatewayPrewarm pins startup prewarming on the full registry:
// after Prewarm completes, the prewarmed counter accounts for the full
// zoo x fleet cross product, every zoo architecture is a warm cache hit
// on every device, and every answer at the prewarm deadline is
// byte-identical to a solo planner pool that planned the same requests
// one at a time — the device tasks running side by side change when
// values are computed, never what they are.
func TestGatewayPrewarm(t *testing.T) {
	trim.PurgeCutCache()
	t.Cleanup(trim.PurgeCutCache)
	cfg := quickConfig(19)
	cfg.Devices = device.Profiles()
	g, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer mustShutdown(t, g)

	select {
	case <-g.Prewarm():
	case <-time.After(120 * time.Second):
		t.Fatal("prewarm did not finish")
	}
	wantPlans := uint64(len(g.pool.DeviceNames()) * len(zoo.Names))
	if got := g.prewarmed.Value(); got != wantPlans {
		t.Fatalf("prewarmed %d plans, want %d", got, wantPlans)
	}

	solo, err := serve.NewPool(serve.PoolConfig{Base: cfg.Planner, Devices: cfg.Devices})
	if err != nil {
		t.Fatal(err)
	}
	// Every zoo request on every device is now warm: no executions may
	// land in a cold histogram.
	for _, dev := range g.pool.DeviceNames() {
		p, err := g.pool.Planner(dev)
		if err != nil {
			t.Fatal(err)
		}
		sp, err := solo.Planner(dev)
		if err != nil {
			t.Fatal(err)
		}
		execsBefore := p.Executions()
		_, warmBefore := p.WarmQuantile(0.99)
		for _, name := range zoo.Names {
			body, _ := json.Marshal(map[string]any{"network": name, "deadline_ms": 0.9, "target": dev})
			rec := post(g, string(body))
			if rec.Code != http.StatusOK {
				t.Fatalf("%s on %s: status %d: %s", name, dev, rec.Code, rec.Body.String())
			}
			zg, err := zoo.ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			want, err := sp.Select(serve.Request{Graph: zg, DeadlineMs: 0.9, Estimator: "profiler"})
			if err != nil {
				t.Fatal(err)
			}
			if got := stripped(rec.Body.Bytes()); !bytes.Equal(got, EncodeResponse(want)) {
				t.Fatalf("%s on %s: prewarmed answer diverges from the solo pool:\n got: %s\nwant: %s",
					name, dev, got, EncodeResponse(want))
			}
		}
		_, warmAfter := p.WarmQuantile(0.99)
		execs := p.Executions() - execsBefore
		if warmAfter-warmBefore != execs {
			t.Fatalf("%s: %d of %d post-prewarm executions ran cold", dev, execs-(warmAfter-warmBefore), execs)
		}
	}
}

// TestLaneLeaderDisconnectKeepsFollower pins the leader path: a leader
// runs its call's pass on its own handler goroutine once it holds a
// permit. When the leader's client leaves while the call waits, the
// leader leaves a 499 trace and a cancelled-latency sample, and still
// runs the pass for a follower that waits on: the follower's body equals
// the solo planner's, at exactly one execution for the two of them.
// When the follower leaves too before the permit frees, the call is
// cancelled at zero executions and the lane's queue depth returns to 0.
func TestLaneLeaderDisconnectKeepsFollower(t *testing.T) {
	for _, followerLeaves := range []bool{false, true} {
		name := "follower waits"
		if followerLeaves {
			name = "follower leaves"
		}
		t.Run(name, func(t *testing.T) {
			cfg := quickConfig(14)
			cfg.Devices = []device.Config{device.Xavier()}
			cfg.Workers = 1 // one permit: request A's wedged pass holds it
			g, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer mustShutdown(t, g)
			l := g.lanes["sim-xavier"]

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

			// Leader B waits for the permit; follower C joins its call.
			body := graphBody(t, userNet(1), 0.35, "")
			serveCtx := func(ctx context.Context) (*httptest.ResponseRecorder, chan struct{}) {
				req := httptest.NewRequest(http.MethodPost, "/v1/plan", strings.NewReader(body)).WithContext(ctx)
				rec, done := httptest.NewRecorder(), make(chan struct{})
				go func() {
					g.Handler().ServeHTTP(rec, req)
					close(done)
				}()
				return rec, done
			}
			bCtx, bCancel := context.WithCancel(context.Background())
			_, bDone := serveCtx(bCtx)
			waitFor(t, "leader B to wait for the permit", func() bool { return l.waiting.Load() == 1 })
			cCtx, cCancel := context.WithCancel(context.Background())
			defer cCancel()
			cRec, cDone := serveCtx(cCtx)
			waitFor(t, "follower C to join", func() bool { return g.coalesced.Value() == 1 })

			bCancel()
			waitFor(t, "B's 499 trace", func() bool {
				return len(getDump(t, g, "/debug/trace?status=499").Traces) == 1
			})
			if got := g.cancelledLatMs.Count(); got != 1 {
				t.Fatalf("cancelled-latency samples %d after B left, want 1", got)
			}
			if followerLeaves {
				cCancel()
				<-cDone
			}
			if got := g.Planner().Executions(); got != 0 {
				t.Fatalf("planner executed %d times before the permit freed", got)
			}

			releaseOnce.Store(true)
			close(release)
			if rec := <-aDone; rec.Code != http.StatusOK {
				t.Fatalf("request A: status %d: %s", rec.Code, rec.Body.String())
			}
			<-bDone
			<-cDone
			if followerLeaves {
				if got := g.Planner().Executions(); got != 1 {
					t.Fatalf("planner executions %d, want 1 (request A only)", got)
				}
				if got := g.cancelled.Value(); got != 1 {
					t.Fatalf("cancelled calls %d, want 1", got)
				}
				if l.waiting.Load() != 0 || !strings.Contains(get(g, "/metrics").Body.String(),
					`netcut_gateway_queue_depth{device="sim-xavier"} 0`) {
					t.Fatalf("queue depth %d after the cancellation, want 0", l.waiting.Load())
				}
				return
			}
			// A's pass, plus exactly one for B and C together.
			if got := g.Planner().Executions(); got != 2 {
				t.Fatalf("planner executions %d, want 2", got)
			}
			if cRec.Code != http.StatusOK {
				t.Fatalf("follower C: status %d: %s", cRec.Code, cRec.Body.String())
			}
			solo, err := serve.New(serve.Config{Seed: 14, Protocol: quickProto})
			if err != nil {
				t.Fatal(err)
			}
			want, err := solo.Select(serve.Request{Graph: userNet(1), DeadlineMs: 0.35, Estimator: "profiler"})
			if err != nil {
				t.Fatal(err)
			}
			if got := stripped(cRec.Body.Bytes()); !bytes.Equal(got, EncodeResponse(want)) {
				t.Fatalf("follower body diverges from the solo planner:\n got: %s\nwant: %s", got, EncodeResponse(want))
			}
		})
	}
}
