package gateway

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"netcut/internal/device"
	"netcut/internal/graph"
	"netcut/internal/profiler"
	"netcut/internal/serve"
	"netcut/internal/zoo"
)

// quickProto keeps gateway tests fast; determinism is protocol-
// independent because noise streams are seeded per network.
var quickProto = profiler.Protocol{WarmupRuns: 10, TimedRuns: 40}

func quickConfig(seed int64) Config {
	return Config{Planner: serve.Config{Seed: seed, Protocol: quickProto}}
}

// userNet builds a structurally distinct blocked network per index,
// mirroring the serve-package stress graphs.
func userNet(i int) *graph.Graph { return namedNet(fmt.Sprintf("user-net-%d", i), i) }

// namedNet is userNet(i)'s structure under another name. A graph is
// sealed with its fingerprint when built, so it is built under the
// name it is planned with, never renamed afterwards.
func namedNet(name string, i int) *graph.Graph {
	b := graph.NewBuilder(name, graph.Shape{H: 32, W: 32, C: 3}, 8)
	x := b.Input()
	x = b.ConvBNReLU(x, 3, 8+i%4, 2, graph.Same)
	for blk := 0; blk < 3+i%3; blk++ {
		b.BeginBlock(fmt.Sprintf("b%d", blk))
		y := b.ConvBNReLU(x, 3, 8+i%4, 1, graph.Same)
		x = b.Add(y, x)
		x = b.ReLU(x)
		b.EndBlock()
	}
	b.BeginHead()
	x = b.GlobalAvgPool(x)
	x = b.Dense(x, 8)
	b.Softmax(x)
	return b.MustFinish()
}

func mustShutdown(t *testing.T, g *Gateway) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := g.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}

// post drives the handler directly (no sockets): one request, recorded
// response.
func post(g *Gateway, body string) *httptest.ResponseRecorder {
	req := httptest.NewRequest(http.MethodPost, "/v1/plan", strings.NewReader(body))
	rec := httptest.NewRecorder()
	g.Handler().ServeHTTP(rec, req)
	return rec
}

func get(g *Gateway, path string) *httptest.ResponseRecorder {
	req := httptest.NewRequest(http.MethodGet, path, nil)
	rec := httptest.NewRecorder()
	g.Handler().ServeHTTP(rec, req)
	return rec
}

// stripped returns a response body with the per-request trace_id field
// removed. Trace IDs are unique by design; every byte-identity
// assertion in this package compares the canonical rendering, which is
// the body modulo that one write-time-injected field.
func stripped(b []byte) []byte { return StripTraceID(b) }

// graphBody marshals a plan request wrapping g.
func graphBody(t *testing.T, g *graph.Graph, deadline float64, extra string) string {
	t.Helper()
	gw, err := json.Marshal(EncodeGraph(g))
	if err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf(`{"graph":%s,"deadline_ms":%g%s}`, gw, deadline, extra)
}

// stairWalk walks answer staircases down on one device. It starts a
// graph at walkTopMs, above its whole staircase, and sends each next
// request just under the last answer's estimated_ms, so every request
// lands on a step no request has accepted yet and is lane work: cold on
// a graph's first request, warm after. An infeasible answer moves the
// walk to the next graph: the one it started on, then the zoo networks
// in order.
type stairWalk struct {
	t      *testing.T
	g      *Gateway
	dev    string
	bodies []func(deadline float64, extra string) string
	d      float64
}

// walkTopMs is a deadline every graph's unmodified network meets.
const walkTopMs = 1e6

func newStairWalk(t *testing.T, g *Gateway, dev string, net *graph.Graph) *stairWalk {
	w := &stairWalk{t: t, g: g, dev: dev, d: walkTopMs}
	w.bodies = append(w.bodies, func(d float64, extra string) string { return graphBody(t, net, d, extra) })
	for _, name := range zoo.Names {
		w.bodies = append(w.bodies, func(d float64, extra string) string {
			return fmt.Sprintf(`{"network":%q,"deadline_ms":%g%s}`, name, d, extra)
		})
	}
	return w
}

// body is the walk's next request, with extra appended; it names no
// target.
func (w *stairWalk) body(extra string) string {
	w.t.Helper()
	if len(w.bodies) == 0 {
		w.t.Fatal("the walk ran past the last zoo network")
	}
	return w.bodies[0](w.d, extra)
}

// step sends the walk's next request to its device and moves on.
func (w *stairWalk) step() {
	w.t.Helper()
	rec := post(w.g, w.body(`,"target":"`+w.dev+`"`))
	if rec.Code != http.StatusOK {
		w.t.Fatalf("walk on %s at %g ms: status %d: %s", w.dev, w.d, rec.Code, rec.Body.String())
	}
	w.advance(rec.Body.Bytes())
}

// advance moves the walk past body, an answer to its current request.
func (w *stairWalk) advance(body []byte) {
	w.t.Helper()
	var r PlanResponseWire
	if err := json.Unmarshal(body, &r); err != nil {
		w.t.Fatalf("walk answer %s: %v", body, err)
	}
	if !r.Feasible {
		w.bodies, w.d = w.bodies[1:], walkTopMs
		return
	}
	w.d = r.EstimatedMs * (1 - 1e-9)
}

// warmExecutions walks staircases on dev, starting with net, until
// dev's warm latency histogram holds n executions, and returns the walk:
// its next request is warm lane work unless it starts a new graph.
func warmExecutions(t *testing.T, g *Gateway, dev string, net *graph.Graph, n uint64) *stairWalk {
	t.Helper()
	p, err := g.pool.Planner(dev)
	if err != nil {
		t.Fatal(err)
	}
	w := newStairWalk(t, g, dev, net)
	limit := int(n) + 2*len(w.bodies) // a cold first and an infeasible last request per graph
	for i := 0; ; i++ {
		if _, samples := p.WarmQuantile(0.99); samples >= n {
			return w
		}
		if i > limit {
			t.Fatalf("%d walk requests left %s short of %d warm executions", i, dev, n)
		}
		w.step()
	}
}

// TestGatewayMatchesPlannerSelect pins the acceptance criterion: the
// gateway's response body is byte-identical to encoding the response of
// the same request served alone through a fresh serve.Planner.
func TestGatewayMatchesPlannerSelect(t *testing.T) {
	g, err := New(quickConfig(9))
	if err != nil {
		t.Fatal(err)
	}
	defer mustShutdown(t, g)

	solo, err := serve.New(serve.Config{Seed: 9, Protocol: quickProto})
	if err != nil {
		t.Fatal(err)
	}

	for name, body := range map[string]string{
		"zoo-shorthand": `{"network":"ResNet-50","deadline_ms":0.9}`,
		"user-graph":    graphBody(t, userNet(0), 0.35, ""),
	} {
		rec := post(g, body)
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", name, rec.Code, rec.Body.String())
		}
		var req serve.Request
		switch name {
		case "zoo-shorthand":
			zg, err := zoo.ByName("ResNet-50")
			if err != nil {
				t.Fatal(err)
			}
			req = serve.Request{Graph: zg, DeadlineMs: 0.9, Estimator: "profiler"}
		default:
			req = serve.Request{Graph: userNet(0), DeadlineMs: 0.35, Estimator: "profiler"}
		}
		want, err := solo.Select(req)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(stripped(rec.Body.Bytes()), EncodeResponse(want)) {
			t.Fatalf("%s: gateway body diverges from solo planner:\n gw: %s\nsolo: %s",
				name, rec.Body.String(), EncodeResponse(want))
		}
	}
}

// TestGatewayCoalescesIdenticalRequests pins the singleflight contract:
// N identical concurrent requests produce exactly one planner execution
// (asserted via the telemetry counter) and byte-identical bodies.
func TestGatewayCoalescesIdenticalRequests(t *testing.T) {
	const n = 8
	cfg := quickConfig(3)
	cfg.Workers = 1
	g, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer mustShutdown(t, g)

	// Gate the lane worker until every request has either become the
	// leader or joined it, so the coalescing window is deterministic.
	g.testHookPass = func(string) {
		deadline := time.Now().Add(10 * time.Second)
		for g.coalesced.Value() < n-1 {
			if time.Now().After(deadline) {
				return // let the test's body comparison report the failure
			}
			time.Sleep(time.Millisecond)
		}
	}

	body := graphBody(t, userNet(1), 0.35, "")
	bodies := make([][]byte, n)
	codes := make([]int, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rec := post(g, body)
			codes[i], bodies[i] = rec.Code, stripped(rec.Body.Bytes())
		}(i)
	}
	wg.Wait()

	for i := 0; i < n; i++ {
		if codes[i] != http.StatusOK {
			t.Fatalf("request %d: status %d: %s", i, codes[i], bodies[i])
		}
		if !bytes.Equal(bodies[i], bodies[0]) {
			t.Fatalf("request %d body differs:\n%s\n%s", i, bodies[i], bodies[0])
		}
	}
	if got := g.Planner().Executions(); got != 1 {
		t.Fatalf("%d identical concurrent requests cost %d planner executions, want 1", n, got)
	}
	if got := g.coalesced.Value(); got != n-1 {
		t.Fatalf("coalesced counter %d, want %d", got, n-1)
	}
}

// TestGatewayShedsOnBudget pins deadline-aware load shedding: once the
// warm histogram holds shedMinSamples executions, a request whose
// budget_ms cannot cover the warm p99 is rejected with 429 + retry
// hint and consumes no planner work. The request is lane work (the next
// step of the warm-up walk): a resident answer would beat the shed.
func TestGatewayShedsOnBudget(t *testing.T) {
	g, err := New(quickConfig(5))
	if err != nil {
		t.Fatal(err)
	}
	defer mustShutdown(t, g)

	w := warmExecutions(t, g, "sim-xavier", userNet(2), shedMinSamples)

	execs := g.Planner().Executions()
	rec := post(g, w.body(`,"budget_ms":0.00001`))
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("tiny-budget request: status %d: %s", rec.Code, rec.Body.String())
	}
	var e ErrorWire
	if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil {
		t.Fatalf("shed body is not structured: %v", err)
	}
	if e.Code != "budget_too_small" || e.RetryAfterMs <= 0 {
		t.Fatalf("shed body %+v, want budget_too_small with retry hint", e)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Fatal("shed response missing Retry-After header")
	}
	if got := g.Planner().Executions(); got != execs {
		t.Fatalf("shed request consumed planner work: executions %d -> %d", execs, got)
	}
	if g.shedBudget.Value() != 1 {
		t.Fatalf("shed counter %d, want 1", g.shedBudget.Value())
	}

	// A generous budget passes.
	if rec := post(g, w.body(`,"budget_ms":60000`)); rec.Code != http.StatusOK {
		t.Fatalf("generous-budget request: status %d: %s", rec.Code, rec.Body.String())
	}
}

// TestGatewayShedsOnQueueFull pins the bounded-queue contract: arrivals
// beyond QueueDepth are shed with 429 and never reach the planner.
func TestGatewayShedsOnQueueFull(t *testing.T) {
	cfg := quickConfig(7)
	cfg.Workers = 1
	cfg.QueueDepth = 1
	g, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer mustShutdown(t, g)

	gate := make(chan struct{})
	entered := make(chan struct{}, 16)
	g.testHookPass = func(string) {
		entered <- struct{}{}
		<-gate
	}

	results := make(chan int, 2)
	send := func(i int) {
		rec := post(g, graphBody(t, userNet(i), 0.35, ""))
		results <- rec.Code
	}
	// First request: picked up by the worker, which blocks in the hook.
	go send(0)
	<-entered
	// Second request: sits in the default device's depth-1 lane.
	lane := g.lanes[g.pool.DeviceNames()[0]]
	go send(1)
	deadline := time.Now().Add(5 * time.Second)
	for lane.waiting.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("second request never queued")
		}
		time.Sleep(time.Millisecond)
	}
	// Third request: queue full, shed up front.
	rec := post(g, graphBody(t, userNet(2), 0.35, ""))
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("overflow request: status %d: %s", rec.Code, rec.Body.String())
	}
	var e ErrorWire
	if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || e.Code != "queue_full" {
		t.Fatalf("overflow body %s", rec.Body.String())
	}

	close(gate)
	for i := 0; i < 2; i++ {
		if code := <-results; code != http.StatusOK {
			t.Fatalf("admitted request %d: status %d", i, code)
		}
	}
	if got := g.Planner().Executions(); got != 2 {
		t.Fatalf("planner executions %d, want 2 (shed request must not execute)", got)
	}
	if lane.shedQueue.Value() != 1 {
		t.Fatalf("queue-full shed counter %d, want 1", lane.shedQueue.Value())
	}
}

// TestGatewayQueuedRequestsRunOnePassEach pins that a pass plans one
// request: distinct requests queued behind a busy worker each get a
// planner pass of their own, and every body equals the same request
// served alone.
func TestGatewayQueuedRequestsRunOnePassEach(t *testing.T) {
	const k = 4
	cfg := quickConfig(11)
	cfg.Workers = 1
	g, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer mustShutdown(t, g)

	gate := make(chan struct{})
	entered := make(chan struct{}, 16)
	var gateOnce atomic.Bool
	var passes atomic.Int64
	g.testHookPass = func(string) {
		passes.Add(1)
		if gateOnce.CompareAndSwap(false, true) {
			entered <- struct{}{}
			<-gate
		}
	}

	type result struct {
		i    int
		code int
		body []byte
	}
	results := make(chan result, k+1)
	send := func(i int) {
		rec := post(g, graphBody(t, userNet(i), 0.35, ""))
		results <- result{i, rec.Code, stripped(rec.Body.Bytes())}
	}

	// Block the worker on a sacrificial request, queue k distinct
	// requests behind it, then release.
	go send(100)
	<-entered
	for i := 0; i < k; i++ {
		go send(i)
	}
	lane := g.lanes[g.pool.DeviceNames()[0]]
	deadline := time.Now().Add(5 * time.Second)
	for lane.waiting.Load() < k {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d requests queued", lane.waiting.Load(), k)
		}
		time.Sleep(time.Millisecond)
	}
	close(gate)

	got := make(map[int][]byte, k+1)
	for i := 0; i < k+1; i++ {
		r := <-results
		if r.code != http.StatusOK {
			t.Fatalf("request %d: status %d: %s", r.i, r.code, r.body)
		}
		got[r.i] = r.body
	}
	if p, e := passes.Load(), g.Planner().Executions(); p != k+1 || e != k+1 {
		t.Fatalf("%d requests ran %d passes and %d executions, want %d of each", k+1, p, e, k+1)
	}

	solo, err := serve.New(serve.Config{Seed: 11, Protocol: quickProto})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < k; i++ {
		want, err := solo.Select(serve.Request{Graph: userNet(i), DeadlineMs: 0.35, Estimator: "profiler"})
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got[i], EncodeResponse(want)) {
			t.Fatalf("queued response %d diverges from solo:\n gw: %s\nsolo: %s", i, got[i], EncodeResponse(want))
		}
	}
}

// TestGatewayShedActivatesAtWarmThreshold pins where budget shedding
// switches on: with shedMinSamples-1 warm executions behind the device
// a tiny budget is still admitted and /v1/devices reports no warm p99;
// that request's own pass is the threshold execution, after which the
// next warm request of the walk is shed with budget_too_small at no
// planner cost, while the admitted request, now a resident answer, is
// still answered.
func TestGatewayShedActivatesAtWarmThreshold(t *testing.T) {
	cfg := quickConfig(6)
	cfg.Devices = []device.Config{device.Xavier()}
	g, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer mustShutdown(t, g)

	warmP99 := func() float64 {
		t.Helper()
		var fleet struct{ Devices []DeviceWire }
		if err := json.Unmarshal(get(g, "/v1/devices").Body.Bytes(), &fleet); err != nil {
			t.Fatal(err)
		}
		return fleet.Devices[0].WarmP99Ms
	}
	w := warmExecutions(t, g, "sim-xavier", userNet(6), shedMinSamples-1)
	if _, samples := g.Planner().WarmQuantile(0.99); samples != shedMinSamples-1 {
		t.Fatalf("warm-up left %d warm executions, want %d", samples, shedMinSamples-1)
	}
	if p99 := warmP99(); p99 != 0 {
		t.Fatalf("warm_p99_ms %v below the threshold, want 0", p99)
	}

	const tiny = `,"budget_ms":0.000001`
	admitted := w.body(tiny)
	execs := g.Planner().Executions()
	rec := post(g, admitted)
	if rec.Code != http.StatusOK {
		t.Fatalf("tiny budget below the threshold: status %d: %s", rec.Code, rec.Body.String())
	}
	if got := g.Planner().Executions(); got != execs+1 {
		t.Fatalf("admitted request: executions %d -> %d, want one", execs, got)
	}
	if _, samples := g.Planner().WarmQuantile(0.99); samples != shedMinSamples {
		t.Fatalf("%d warm executions after the admitted request, want %d", samples, shedMinSamples)
	}
	if p99 := warmP99(); p99 <= 0 {
		t.Fatalf("warm_p99_ms %v at the threshold, want a positive estimate", p99)
	}

	w.advance(rec.Body.Bytes())
	execs = g.Planner().Executions()
	rec = post(g, w.body(tiny))
	if rec.Code != http.StatusTooManyRequests || errCode(t, rec) != "budget_too_small" {
		t.Fatalf("tiny budget at the threshold: status %d: %s", rec.Code, rec.Body.String())
	}
	if rec := post(g, admitted); rec.Code != http.StatusOK {
		t.Fatalf("resident tiny-budget request at the threshold: status %d: %s", rec.Code, rec.Body.String())
	}
	if got := g.Planner().Executions(); got != execs {
		t.Fatalf("shed and resident requests consumed planner work: executions %d -> %d", execs, got)
	}
}

// TestGatewayBootAllocs gates the boot path: a default (four-device)
// gateway's New plus MarkReady, as the first thing a process does,
// makes ~1.4k allocations, while one build of the paper zoo adds
// ~5.3k, so a zoo build creeping back onto boot fails the bound. It
// reruns itself in a fresh process, where nothing has been built yet.
func TestGatewayBootAllocs(t *testing.T) {
	const bound = 3000
	if os.Getenv("NETCUT_BOOT_ALLOCS") == "" {
		cmd := exec.Command(os.Args[0], "-test.run=^TestGatewayBootAllocs$", "-test.count=1", "-test.v")
		cmd.Env = append(os.Environ(), "NETCUT_BOOT_ALLOCS=1")
		out, err := cmd.CombinedOutput()
		if err != nil {
			t.Fatalf("fresh process: %v\n%s", err, out)
		}
		t.Logf("fresh process:\n%s", out)
		return
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	g, err := New(Config{Planner: serve.Config{Seed: 1}})
	if err != nil {
		t.Fatal(err)
	}
	g.MarkReady()
	runtime.ReadMemStats(&after)
	mustShutdown(t, g)
	allocs := after.Mallocs - before.Mallocs
	if allocs > bound {
		t.Fatalf("booting a default gateway makes %d allocations, want <= %d (is the zoo built on boot again?)", allocs, bound)
	}
	t.Logf("boot: %d allocs", allocs)
}

// TestGatewayRejectsNegativeConfig pins that bad knobs are a prompt
// constructor error (netserve exits 1 on them), never a panic.
func TestGatewayRejectsNegativeConfig(t *testing.T) {
	for _, c := range []struct {
		cfg  Config
		want string
	}{
		{Config{QueueDepth: -1}, "negative QueueDepth"},
		{Config{Workers: -1}, "negative Workers"},
		{Config{AutosaveInterval: -time.Second, StatePath: "state.bin"}, "negative AutosaveInterval"},
		{Config{DrainTimeout: -time.Second}, "negative DrainTimeout"},
		{Config{SlowTraceMs: -1}, "negative SlowTraceMs"},
		{Config{AutosaveInterval: time.Second}, "AutosaveInterval requires a StatePath"},
	} {
		g, err := New(c.cfg)
		if err == nil {
			g.Shutdown(context.Background())
			t.Fatalf("config %+v accepted", c.cfg)
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Fatalf("config %+v: error %q, want it to name %q", c.cfg, err, c.want)
		}
	}
}

// TestGatewayRejectsMalformed covers the decode boundary: malformed
// JSON, invalid graphs, oversized bodies, bad parameters — all
// structured errors, never panics.
func TestGatewayRejectsMalformed(t *testing.T) {
	cfg := quickConfig(1)
	cfg.MaxBodyBytes = 2048
	g, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer mustShutdown(t, g)

	cases := []struct {
		name string
		body string
		code int
		werr string
	}{
		{"empty", ``, http.StatusBadRequest, "invalid_json"},
		{"syntax", `{"network":`, http.StatusBadRequest, "invalid_json"},
		{"trailing", `{"network":"ResNet-50"} garbage`, http.StatusBadRequest, "invalid_json"},
		{"missing", `{}`, http.StatusBadRequest, "missing_graph"},
		{"both", `{"network":"ResNet-50","graph":{"name":"x"}}`, http.StatusBadRequest, "ambiguous_request"},
		{"unknown-net", `{"network":"VGG-16"}`, http.StatusBadRequest, "unknown_network"},
		{"bad-estimator", `{"network":"ResNet-50","estimator":"oracle"}`, http.StatusBadRequest, "invalid_estimator"},
		{"neg-deadline", `{"network":"ResNet-50","deadline_ms":-1}`, http.StatusBadRequest, "invalid_deadline"},
		{"neg-budget", `{"network":"ResNet-50","budget_ms":-1}`, http.StatusBadRequest, "invalid_budget"},
		{"unknown-target", `{"network":"ResNet-50","target":"sim-quantum"}`, http.StatusBadRequest, "unknown_device"},
		{"bad-kind", `{"graph":{"name":"x","num_classes":2,"nodes":[{"id":0,"kind":"Teleport","out":{"h":1,"w":1,"c":1}}]}}`,
			http.StatusBadRequest, "invalid_graph"},
		{"invalid-graph", `{"graph":{"name":"x","num_classes":2,"nodes":[{"id":0,"kind":"Conv","out":{"h":1,"w":1,"c":1}}]}}`,
			http.StatusBadRequest, "invalid_graph"},
		{"oversized", `{"graph":{"name":"` + strings.Repeat("x", 4096) + `"}}`,
			http.StatusRequestEntityTooLarge, "body_too_large"},
	}
	for _, tc := range cases {
		rec := post(g, tc.body)
		if rec.Code != tc.code {
			t.Fatalf("%s: status %d, want %d: %s", tc.name, rec.Code, tc.code, rec.Body.String())
		}
		var e ErrorWire
		if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil {
			t.Fatalf("%s: unstructured error body %q", tc.name, rec.Body.String())
		}
		if e.Code != tc.werr {
			t.Fatalf("%s: error code %q, want %q", tc.name, e.Code, tc.werr)
		}
	}
	if got := g.Planner().Executions(); got != 0 {
		t.Fatalf("rejected requests reached the planner: %d executions", got)
	}
	if got, want := g.rejected.Value(), uint64(len(cases)); got != want {
		t.Fatalf("rejected counter %d, want %d", got, want)
	}

	// Method discipline: GET on the plan route is a 405.
	if rec := get(g, "/v1/plan"); rec.Code != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/plan: status %d", rec.Code)
	}
}

// TestGatewayNameConflictIs409 maps the planner's one-name-one-
// structure admission rule onto HTTP.
func TestGatewayNameConflictIs409(t *testing.T) {
	g, err := New(quickConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	defer mustShutdown(t, g)

	conflict := func(imposter *graph.Graph) {
		t.Helper()
		rec := post(g, graphBody(t, imposter, 0.35, ""))
		if rec.Code != http.StatusConflict {
			t.Fatalf("imposter %s: status %d: %s", imposter.Name, rec.Code, rec.Body.String())
		}
		var e ErrorWire
		if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || e.Code != "name_conflict" {
			t.Fatalf("imposter body %s", rec.Body.String())
		}
	}
	// A zoo name is bound from the start: the gateway's first request.
	conflict(namedNet("ResNet-50", 2))
	if rec := post(g, graphBody(t, userNet(0), 0.35, "")); rec.Code != http.StatusOK {
		t.Fatalf("first user request: %d", rec.Code)
	}
	conflict(namedNet("user-net-0", 1))
}

// TestGatewayDrain pins graceful shutdown: in-flight requests complete
// and deliver, new requests are 503 with Retry-After, Shutdown returns
// only after the queue is empty.
func TestGatewayDrain(t *testing.T) {
	cfg := quickConfig(13)
	cfg.Workers = 1
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

	inflight := make(chan *httptest.ResponseRecorder, 1)
	go func() {
		inflight <- post(g, graphBody(t, userNet(3), 0.35, ""))
	}()
	<-entered

	shutdownDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		shutdownDone <- g.Shutdown(ctx)
	}()
	deadline := time.Now().Add(5 * time.Second)
	for {
		g.mu.Lock()
		draining := g.draining
		g.mu.Unlock()
		if draining {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("draining flag never set")
		}
		time.Sleep(time.Millisecond)
	}

	rec := post(g, graphBody(t, userNet(4), 0.35, ""))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("request during drain: status %d", rec.Code)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Fatal("drain rejection missing Retry-After")
	}

	close(gate)
	if err := <-shutdownDone; err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if rec := <-inflight; rec.Code != http.StatusOK {
		t.Fatalf("in-flight request during drain: status %d: %s", rec.Code, rec.Body.String())
	}
	// Shutdown is idempotent.
	if err := g.Shutdown(context.Background()); err != nil {
		t.Fatalf("second shutdown: %v", err)
	}
}

// TestGatewayObservabilityEndpoints asserts /metrics serves the
// gateway, planner and cache-layer series in Prometheus text format and
// /debug/stats serves a JSON document.
func TestGatewayObservabilityEndpoints(t *testing.T) {
	g, err := New(quickConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	defer mustShutdown(t, g)

	if rec := post(g, `{"network":"MobileNetV1 (0.25)","deadline_ms":0.9}`); rec.Code != http.StatusOK {
		t.Fatalf("seed request: %d", rec.Code)
	}

	rec := get(g, "/metrics")
	if rec.Code != http.StatusOK {
		t.Fatalf("/metrics: %d", rec.Code)
	}
	out := rec.Body.String()
	for _, series := range []string{
		"netcut_gateway_requests_total 1",
		"netcut_gateway_queue_depth",
		"netcut_gateway_shed_budget_total 0",
		`netcut_planner_executions_total{device="sim-xavier"} 1`,
		`netcut_planner_warm_ms_count{device="sim-xavier"}`,
		`netcut_planner_cold_ms_count{device="sim-xavier"} 1`,
		`netcut_device_plans_hits_total{device="sim-xavier"}`,
		`netcut_device_plans_hits_total{device="sim-server-gpu"}`,
		`netcut_profiler_measurements_misses_total{device="sim-xavier"}`,
		"netcut_trim_cuts_entries",
	} {
		if !strings.Contains(out, series) {
			t.Fatalf("/metrics missing %q:\n%s", series, out)
		}
	}

	rec = get(g, "/debug/stats")
	if rec.Code != http.StatusOK {
		t.Fatalf("/debug/stats: %d", rec.Code)
	}
	var doc struct {
		Metrics map[string]any         `json:"metrics"`
		Planner serve.Stats            `json:"planner"`
		Devices map[string]serve.Stats `json:"devices"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
		t.Fatalf("/debug/stats is not JSON: %v", err)
	}
	if doc.Planner.Requests != 1 {
		t.Fatalf("stats planner requests = %d, want 1", doc.Planner.Requests)
	}
	if _, ok := doc.Metrics["netcut_gateway_requests_total"]; !ok {
		t.Fatal("stats metrics missing gateway request counter")
	}
	if len(doc.Devices) < 4 {
		t.Fatalf("stats lists %d devices, want the full registry", len(doc.Devices))
	}
	if doc.Devices["sim-xavier"].Requests != 1 || doc.Devices["sim-edge-cpu"].Requests != 0 {
		t.Fatalf("per-device stats wrong: %+v", doc.Devices)
	}

	if rec := get(g, "/healthz"); rec.Code != http.StatusOK {
		t.Fatalf("/healthz: %d", rec.Code)
	}
}

// TestGraphWireRoundTrip pins the codec: encode -> JSON -> decode
// reproduces the graph field for field (and therefore fingerprint for
// fingerprint).
func TestGraphWireRoundTrip(t *testing.T) {
	for _, src := range []*graph.Graph{userNet(0), zoo.ResNet50()} {
		b, err := json.Marshal(EncodeGraph(src))
		if err != nil {
			t.Fatal(err)
		}
		var w GraphWire
		if err := json.Unmarshal(b, &w); err != nil {
			t.Fatal(err)
		}
		got, aerr := decodeGraph(&w)
		if aerr != nil {
			t.Fatalf("%s: decode: %v", src.Name, aerr)
		}
		if got.Name != src.Name || got.InputShape != src.InputShape || got.NumClasses != src.NumClasses {
			t.Fatalf("%s: header fields changed", src.Name)
		}
		if !reflect.DeepEqual(got.Blocks, src.Blocks) {
			t.Fatalf("%s: blocks changed", src.Name)
		}
		if len(got.Nodes) != len(src.Nodes) {
			t.Fatalf("%s: node count %d -> %d", src.Name, len(src.Nodes), len(got.Nodes))
		}
		for i := range got.Nodes {
			if !reflect.DeepEqual(*got.Nodes[i], *src.Nodes[i]) {
				t.Fatalf("%s: node %d changed:\n got %+v\nwant %+v", src.Name, i, got.Nodes[i], src.Nodes[i])
			}
		}
		if graph.Fingerprint(got) != graph.Fingerprint(src) {
			t.Fatalf("%s: fingerprint changed across the wire", src.Name)
		}
	}
}

// TestGatewayDevicesEndpoint pins GET /v1/devices: the registered
// fleet in registration order, default device first, with calibration
// summaries and live telemetry.
func TestGatewayDevicesEndpoint(t *testing.T) {
	g, err := New(quickConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	defer mustShutdown(t, g)

	if rec := post(g, `{"network":"MobileNetV1 (0.25)","target":"sim-edge-cpu"}`); rec.Code != http.StatusOK {
		t.Fatalf("seed request: %d: %s", rec.Code, rec.Body.String())
	}

	rec := get(g, "/v1/devices")
	if rec.Code != http.StatusOK {
		t.Fatalf("/v1/devices: %d", rec.Code)
	}
	var doc struct {
		Devices []DeviceWire `json:"devices"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
		t.Fatalf("/v1/devices is not JSON: %v", err)
	}
	if len(doc.Devices) < 4 {
		t.Fatalf("listed %d devices, want the full registry", len(doc.Devices))
	}
	if doc.Devices[0].Name != "sim-xavier" || !doc.Devices[0].Default {
		t.Fatalf("first device %+v, want the Xavier default", doc.Devices[0])
	}
	byName := map[string]DeviceWire{}
	for i, d := range doc.Devices {
		if d.Default != (i == 0) {
			t.Fatalf("device %d default flag wrong: %+v", i, d)
		}
		if d.PeakMACs <= 0 || d.Precision == "" {
			t.Fatalf("device %q missing calibration summary: %+v", d.Name, d)
		}
		byName[d.Name] = d
	}
	if byName["sim-edge-cpu"].Executions != 1 {
		t.Fatalf("edge-cpu executions = %d, want 1", byName["sim-edge-cpu"].Executions)
	}
	if byName["sim-xavier"].Executions != 0 {
		t.Fatalf("xavier executions = %d, want 0", byName["sim-xavier"].Executions)
	}
}

// TestGatewayCrossDeviceIsolation pins the tentpole acceptance
// criterion through the HTTP surface: the same graph planned on two
// targets yields different measured latencies from independent cache
// entries; a repeat per target is a byte-identical resident answer, and
// lane work on the next step of the target's staircase is a warm
// per-target measurement-cache hit.
func TestGatewayCrossDeviceIsolation(t *testing.T) {
	g, err := New(quickConfig(23))
	if err != nil {
		t.Fatal(err)
	}
	defer mustShutdown(t, g)

	body := func(target string) string {
		return graphBody(t, userNet(0), 0.35, fmt.Sprintf(`,"target":%q`, target))
	}
	recA := post(g, body("sim-xavier"))
	recB := post(g, body("sim-server-gpu"))
	if recA.Code != http.StatusOK || recB.Code != http.StatusOK {
		t.Fatalf("targets: %d/%d: %s %s", recA.Code, recB.Code, recA.Body.String(), recB.Body.String())
	}
	var ra, rb PlanResponseWire
	if err := json.Unmarshal(recA.Body.Bytes(), &ra); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(recB.Body.Bytes(), &rb); err != nil {
		t.Fatal(err)
	}
	if ra.Device != "sim-xavier" || rb.Device != "sim-server-gpu" {
		t.Fatalf("response devices %q/%q", ra.Device, rb.Device)
	}
	if ra.MeasuredMs == rb.MeasuredMs {
		t.Fatalf("identical measured latency %v ms on two targets", ra.MeasuredMs)
	}
	// Each target executed once; caches are per target.
	pa, err := g.pool.Planner("sim-xavier")
	if err != nil {
		t.Fatal(err)
	}
	pb, err := g.pool.Planner("sim-server-gpu")
	if err != nil {
		t.Fatal(err)
	}
	if pa.Executions() != 1 || pb.Executions() != 1 {
		t.Fatalf("executions %d/%d, want 1/1", pa.Executions(), pb.Executions())
	}
	// Repeats are resident per-target answers with byte-identical
	// bodies.
	recA2 := post(g, body("sim-xavier"))
	if !bytes.Equal(stripped(recA2.Body.Bytes()), stripped(recA.Body.Bytes())) {
		t.Fatalf("repeat on one target diverged:\n%s\n%s", recA2.Body.String(), recA.Body.String())
	}
	if pa.Executions() != 1 || pb.Executions() != 1 {
		t.Fatalf("repeat cost executions %d/%d, want 1/1", pa.Executions(), pb.Executions())
	}
	// The next step down is lane work on the warm per-target path.
	hits := pa.Stats().Measurements.Hits
	next := graphBody(t, userNet(0), ra.EstimatedMs*(1-1e-9), `,"target":"sim-xavier"`)
	if rec := post(g, next); rec.Code != http.StatusOK {
		t.Fatalf("next step: %d: %s", rec.Code, rec.Body.String())
	}
	if pa.Executions() != 2 {
		t.Fatalf("next step: executions %d, want 2", pa.Executions())
	}
	if pa.Stats().Measurements.Hits <= hits {
		t.Fatal("lane work on one target missed its measurement cache")
	}
}

// TestGatewayAutoTargetMatchesExplicit pins the routing half of the
// acceptance criterion: target "auto" resolves deterministically (cold
// pool: the default device) and its body is byte-identical to the same
// request naming that device explicitly.
func TestGatewayAutoTargetMatchesExplicit(t *testing.T) {
	g, err := New(quickConfig(29))
	if err != nil {
		t.Fatal(err)
	}
	defer mustShutdown(t, g)

	explicit := post(g, graphBody(t, userNet(3), 0.35, `,"target":"sim-xavier"`))
	if explicit.Code != http.StatusOK {
		t.Fatalf("explicit: %d: %s", explicit.Code, explicit.Body.String())
	}
	auto := post(g, graphBody(t, userNet(3), 0.35, `,"target":"auto"`))
	if auto.Code != http.StatusOK {
		t.Fatalf("auto: %d: %s", auto.Code, auto.Body.String())
	}
	if !bytes.Equal(stripped(auto.Body.Bytes()), stripped(explicit.Body.Bytes())) {
		t.Fatalf("auto body diverges from explicit target:\nauto %s\nexpl %s",
			auto.Body.String(), explicit.Body.String())
	}
	if g.autoRouted.Value() != 1 {
		t.Fatalf("auto-routed counter %d, want 1", g.autoRouted.Value())
	}
	// And the default-target spelling ("" target) is the same bytes too.
	plain := post(g, graphBody(t, userNet(3), 0.35, ""))
	if !bytes.Equal(stripped(plain.Body.Bytes()), stripped(explicit.Body.Bytes())) {
		t.Fatal("defaulted target body diverges from explicit default device")
	}
}

// TestGatewayAutoShedsOnlyWhenNoDeviceQualifies pins fleet-wide
// shedding: with every target's warm estimate active, an impossible
// budget is shed; routing a fresh (unmeasured) target is preferred
// over shedding.
func TestGatewayAutoShedsOnlyWhenNoDeviceQualifies(t *testing.T) {
	cfg := quickConfig(31)
	// Two targets keep the warm-up short.
	cfg.Devices = []device.Config{device.Xavier(), device.EdgeCPU()}
	g, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer mustShutdown(t, g)

	body := func(extra string) string { return graphBody(t, userNet(4), 0.35, extra) }
	// Warm device 1 only: an impossible budget must still route (to the
	// unmeasured device), not shed.
	warmExecutions(t, g, "sim-xavier", userNet(4), shedMinSamples)
	rec := post(g, body(`,"target":"auto","budget_ms":0.000001`))
	if rec.Code != http.StatusOK {
		t.Fatalf("auto with one unmeasured target: %d: %s", rec.Code, rec.Body.String())
	}
	var r PlanResponseWire
	if err := json.Unmarshal(rec.Body.Bytes(), &r); err != nil {
		t.Fatal(err)
	}
	if r.Device != "sim-edge-cpu" {
		t.Fatalf("auto routed to %q, want the unmeasured sim-edge-cpu", r.Device)
	}
	// Warm device 2 as well, then the impossible budget sheds.
	warmExecutions(t, g, "sim-edge-cpu", userNet(4), shedMinSamples)
	execs := g.Planner().Executions()
	rec = post(g, body(`,"target":"auto","budget_ms":0.000001`))
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("fleet-wide impossible budget: %d: %s", rec.Code, rec.Body.String())
	}
	var e ErrorWire
	if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || e.Code != "budget_too_small" || e.RetryAfterMs <= 0 {
		t.Fatalf("shed body %s", rec.Body.String())
	}
	if g.Planner().Executions() != execs {
		t.Fatal("fleet-shed request consumed planner work")
	}
}

// TestGatewayCoalescesStaggeredBurstOnDefaultConfig pins that socket-
// staggered identical requests cost one planner pass per burst on the
// default config with nothing held open: admission checks the
// staircase and then the in-flight map under one lock, and climb
// publishes the accepted step before Select returns, so before deliver
// removes the in-flight entry; every straggler either joins the pass or
// finds its step resident. Each burst is the next step of a staircase
// walk, so its leader is lane work.
func TestGatewayCoalescesStaggeredBurstOnDefaultConfig(t *testing.T) {
	const bursts, k = 8, 16
	g, err := New(quickConfig(37))
	if err != nil {
		t.Fatal(err)
	}
	defer mustShutdown(t, g)

	type result struct {
		code int
		body []byte
	}
	execs := g.Planner().Executions()
	w := newStairWalk(t, g, "sim-xavier", userNet(1))
	var first []byte
	for b := 0; b < bursts; b++ {
		body := w.body("")
		start := make(chan struct{})
		results := make(chan result, k)
		for i := 0; i < k; i++ {
			go func(i int) {
				<-start
				time.Sleep(time.Duration(50+40*i) * time.Microsecond) // socket-staggered burst
				rec := post(g, body)
				results <- result{rec.Code, stripped(rec.Body.Bytes())}
			}(i)
		}
		close(start)
		var burstBody []byte
		for i := 0; i < k; i++ {
			r := <-results
			if r.code != http.StatusOK {
				t.Fatalf("burst %d request %d: %d: %s", b, i, r.code, r.body)
			}
			if burstBody == nil {
				burstBody = r.body
			} else if !bytes.Equal(r.body, burstBody) {
				t.Fatalf("burst %d: bodies differ:\n%s\n%s", b, r.body, burstBody)
			}
		}
		if got := g.Planner().Executions() - execs; got != uint64(b+1) {
			t.Fatalf("after %d staggered bursts of %d identical requests: %d planner executions, want %d", b+1, k, got, b+1)
		}
		if first == nil {
			first = burstBody
		}
		w.advance(burstBody)
	}
	// Coalescing and resident answers never change bytes.
	solo, err := serve.New(serve.Config{Seed: 37, Protocol: quickProto})
	if err != nil {
		t.Fatal(err)
	}
	want, err := solo.Select(serve.Request{Graph: userNet(1), DeadlineMs: walkTopMs, Estimator: "profiler"})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, EncodeResponse(want)) {
		t.Fatalf("coalesced response diverges from solo:\n gw: %s\nsolo: %s", first, EncodeResponse(want))
	}
}

// TestGatewayAutoCoalescesBeforeShedding pins coalesce-before-shed on
// the auto route: when no device qualifies for the budget but an
// identical execution is already in flight, the request joins it at
// zero planner cost instead of being shed.
func TestGatewayAutoCoalescesBeforeShedding(t *testing.T) {
	cfg := quickConfig(41)
	cfg.Workers = 1
	cfg.Devices = []device.Config{device.Xavier()}
	g, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer mustShutdown(t, g)

	// Warm the only device so its estimate is active (and positive).
	w := warmExecutions(t, g, "sim-xavier", userNet(5), shedMinSamples)
	// The leader must be lane work, not a resident answer.
	body := w.body("")
	// Sanity: with nothing in flight, the impossible budget sheds.
	if rec := post(g, graphBody(t, userNet(5), 0.35, `,"target":"auto","budget_ms":0.000001`)); rec.Code != http.StatusTooManyRequests {
		t.Fatalf("idle impossible-budget auto request: %d", rec.Code)
	}

	// Block the worker on an identical unbudgeted leader, then send the
	// impossible-budget auto request: it must join the in-flight call.
	gate := make(chan struct{})
	entered := make(chan struct{}, 4)
	g.testHookPass = func(string) {
		entered <- struct{}{}
		<-gate
	}
	leader := make(chan *httptest.ResponseRecorder, 1)
	go func() { leader <- post(g, body) }()
	<-entered

	execs := g.Planner().Executions()
	joinedCh := make(chan *httptest.ResponseRecorder, 1)
	go func() {
		joinedCh <- post(g, w.body(`,"target":"auto","budget_ms":0.000001`))
	}()
	deadline := time.Now().Add(5 * time.Second)
	for g.coalesced.Value() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("auto request neither coalesced nor delivered")
		}
		time.Sleep(time.Millisecond)
	}
	close(gate)
	lead, joined := <-leader, <-joinedCh
	if lead.Code != http.StatusOK || joined.Code != http.StatusOK {
		t.Fatalf("codes %d/%d: %s %s", lead.Code, joined.Code, lead.Body.String(), joined.Body.String())
	}
	if !bytes.Equal(stripped(joined.Body.Bytes()), stripped(lead.Body.Bytes())) {
		t.Fatal("coalesced auto body diverged from the in-flight leader")
	}
	if got := g.Planner().Executions(); got != execs+1 {
		t.Fatalf("executions %d -> %d, want exactly the leader's one", execs, got)
	}
}
