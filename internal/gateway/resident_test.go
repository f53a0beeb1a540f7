package gateway

// Resident-answer suite: answers served from a planner's answer
// staircase are invisible except in latency. A resident answer costs no
// planner execution, is byte-identical (modulo trace_id) to the lane's
// answer for the same request under any interleaving and after any
// eviction, beats the queue-full and budget sheds, and is refused by
// every gate before it: drain, quarantine and device health.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"testing"

	"netcut/internal/device"
	"netcut/internal/faultinject"
	"netcut/internal/graph"
)

// seedStep plans net at 0.35 ms on target (lane work) and returns the
// body of a request on the same staircase step at another deadline: the
// answer's own estimate, which meets exactly the steps the 0.35 ms
// request's loop passed over.
func seedStep(t *testing.T, g *Gateway, net *graph.Graph, target string) string {
	t.Helper()
	rec := post(g, graphBody(t, net, 0.35, `,"target":"`+target+`"`))
	if rec.Code != http.StatusOK {
		t.Fatalf("seeding %s: status %d: %s", net.Name, rec.Code, rec.Body.String())
	}
	var r PlanResponseWire
	if err := json.Unmarshal(rec.Body.Bytes(), &r); err != nil {
		t.Fatal(err)
	}
	if !r.Feasible || r.EstimatedMs == 0.35 {
		t.Fatalf("seeding %s: %s is no step to land on at another deadline", net.Name, rec.Body.String())
	}
	return graphBody(t, net, r.EstimatedMs, `,"target":"`+target+`"`)
}

// TestResidentAnswerSkipsLane pins the resident path's accounting and
// bytes: no planner execution, the lane's body for the same request on
// a fresh gateway, a "resident" hit verdict in the trace, a per-device
// counter registered on the device's first resident answer, a count in
// /debug/stats, and the same answer for an exact repeat of either the
// step request or the request that accepted the step.
func TestResidentAnswerSkipsLane(t *testing.T) {
	cfg := quickConfig(71)
	cfg.Devices = []device.Config{device.Xavier(), device.EdgeCPU()}
	g, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer mustShutdown(t, g)

	step := seedStep(t, g, userNet(0), "sim-xavier")
	execs := g.Planner().Executions()
	rec := post(g, step)
	if rec.Code != http.StatusOK {
		t.Fatalf("resident request: status %d: %s", rec.Code, rec.Body.String())
	}
	if got := g.Planner().Executions(); got != execs {
		t.Fatalf("resident answer cost planner executions: %d -> %d", execs, got)
	}
	if got := g.residentCounter(g.lanes["sim-xavier"]).Value(); got != 1 {
		t.Fatalf("resident counter %d, want 1", got)
	}

	// The lane's answer to the same request, on a gateway that never
	// saw the step.
	ref, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer mustShutdown(t, ref)
	lane := post(ref, step)
	if lane.Code != http.StatusOK || ref.Planner().Executions() != 1 {
		t.Fatalf("reference lane answer: status %d, %d executions", lane.Code, ref.Planner().Executions())
	}
	if !bytes.Equal(stripped(rec.Body.Bytes()), stripped(lane.Body.Bytes())) {
		t.Fatalf("resident answer diverged from the lane's:\n%s\n%s", rec.Body.Bytes(), lane.Body.Bytes())
	}

	// The trace names the verdict.
	id := rec.Header().Get(TraceHeader)
	var dump struct {
		Traces []struct {
			Spans []struct{ Stage, Verdict string }
		}
	}
	if err := json.Unmarshal(get(g, "/debug/trace?id="+id).Body.Bytes(), &dump); err != nil || len(dump.Traces) != 1 {
		t.Fatalf("trace %s: %v", id, err)
	}
	verdicts := map[string]string{}
	for _, sp := range dump.Traces[0].Spans {
		verdicts[sp.Stage] = sp.Verdict
	}
	if verdicts[stageResident] != "hit" || verdicts[stageCoalesce] != "" {
		t.Fatalf("resident trace verdicts %v", verdicts)
	}

	// Observability: one series, for the device that answered.
	metrics := get(g, "/metrics").Body.String()
	if !strings.Contains(metrics, `netcut_gateway_resident_total{device="sim-xavier"} 1`+"\n") ||
		strings.Contains(metrics, `netcut_gateway_resident_total{device="sim-edge-cpu"}`) {
		t.Fatalf("resident series:\n%s", grepLines(metrics, "netcut_gateway_resident_total"))
	}
	var stats struct{ Resident map[string]uint64 }
	if err := json.Unmarshal(get(g, "/debug/stats").Body.Bytes(), &stats); err != nil {
		t.Fatal(err)
	}
	if stats.Resident["sim-xavier"] != 1 || stats.Resident["sim-edge-cpu"] != 0 {
		t.Fatalf("/debug/stats resident %v", stats.Resident)
	}

	// Exact repeats of the step request and of the request that
	// accepted the step are resident answers with the same body.
	for i, body := range []string{step, graphBody(t, userNet(0), 0.35, `,"target":"sim-xavier"`)} {
		again := post(g, body)
		if again.Code != http.StatusOK || !bytes.Equal(stripped(again.Body.Bytes()), stripped(rec.Body.Bytes())) {
			t.Fatalf("repeat %d: status %d: %s", i, again.Code, again.Body.String())
		}
	}
	if got := g.residentCounter(g.lanes["sim-xavier"]).Value(); got != 3 {
		t.Fatalf("resident counter %d after two repeats, want 3", got)
	}
	if got := g.Planner().Executions(); got != execs {
		t.Fatalf("repeats cost planner executions: %d -> %d", execs, got)
	}
}

// TestByteCacheHitSkipsExecution pins the exact-repeat contract that
// the rendered-response byte cache used to carry and resident answers
// carry now: a repeat of an identical request is byte-identical to the
// first answer, costs zero additional planner executions, and is
// counted as a resident answer on /metrics, never as an execution.
func TestByteCacheHitSkipsExecution(t *testing.T) {
	cfg := quickConfig(51)
	cfg.Devices = []device.Config{device.Xavier()}
	g, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer mustShutdown(t, g)

	body := graphBody(t, userNet(0), 0.35, "")
	first := post(g, body)
	if first.Code != http.StatusOK {
		t.Fatalf("first request: status %d: %s", first.Code, first.Body.String())
	}
	execs := g.Planner().Executions()
	if execs == 0 {
		t.Fatal("first request did not execute")
	}
	if got := g.residentCounter(g.lanes["sim-xavier"]).Value(); got != 0 {
		t.Fatalf("resident counter %d after the first request, want 0", got)
	}

	second := post(g, body)
	if second.Code != http.StatusOK {
		t.Fatalf("second request: status %d: %s", second.Code, second.Body.String())
	}
	if !bytes.Equal(stripped(first.Body.Bytes()), stripped(second.Body.Bytes())) {
		t.Fatalf("repeat diverged from execution:\n got %s\nwant %s", second.Body.Bytes(), first.Body.Bytes())
	}
	if got := g.Planner().Executions(); got != execs {
		t.Fatalf("planner executions = %d after an exact repeat, want unchanged %d", got, execs)
	}
	if got := g.residentCounter(g.lanes["sim-xavier"]).Value(); got != 1 {
		t.Fatalf("resident counter %d after an exact repeat, want 1", got)
	}

	rec := get(g, "/metrics")
	if rec.Code != http.StatusOK {
		t.Fatalf("/metrics: status %d", rec.Code)
	}
	if out := rec.Body.String(); !strings.Contains(out, `netcut_gateway_resident_total{device="sim-xavier"} 1`+"\n") {
		t.Fatalf("/metrics resident series:\n%s", grepLines(out, "netcut_gateway_resident_total"))
	}
}

// TestResidentByteIdenticalUnderConcurrency pins transparency under
// concurrency: any interleaving of repeated requests at any GOMAXPROCS,
// most of them resident answers, produces bodies byte-identical to a
// serial replay on a fresh gateway.
func TestResidentByteIdenticalUnderConcurrency(t *testing.T) {
	const (
		goroutines = 8
		distinct   = 4
		rounds     = 3
		seed       = 53
	)
	bodyFor := func(t *testing.T, i int) string { return graphBody(t, userNet(i), 0.35, "") }

	// Serial reference: one worker, GOMAXPROCS 1, each request once.
	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)
	refCfg := quickConfig(seed)
	refCfg.Workers = 1
	ref, err := New(refCfg)
	if err != nil {
		t.Fatal(err)
	}
	want := make([][]byte, distinct)
	for i := range want {
		rec := post(ref, bodyFor(t, i))
		if rec.Code != http.StatusOK {
			t.Fatalf("reference request %d: status %d: %s", i, rec.Code, rec.Body.String())
		}
		want[i] = stripped(rec.Body.Bytes())
	}
	mustShutdown(t, ref)

	for _, width := range []int{1, 4} {
		runtime.GOMAXPROCS(width)
		cfg := quickConfig(seed)
		cfg.Workers = 2
		g, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		errs := make(chan error, goroutines)
		for w := 0; w < goroutines; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for round := 0; round < rounds; round++ {
					for j := 0; j < distinct; j++ {
						i := (j + w + round) % distinct
						rec := post(g, bodyFor(t, i))
						if rec.Code != http.StatusOK {
							errs <- fmt.Errorf("GOMAXPROCS=%d worker %d: status %d: %s", width, w, rec.Code, rec.Body.String())
							return
						}
						if !bytes.Equal(stripped(rec.Body.Bytes()), want[i]) {
							errs <- fmt.Errorf("GOMAXPROCS=%d worker %d round %d: user-net-%d body diverged from the serial replay:\n got %s\nwant %s",
								width, w, round, i, rec.Body.Bytes(), want[i])
							return
						}
					}
				}
			}(w)
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatal(err)
		}
		if g.residentCounter(g.lanes["sim-xavier"]).Value() == 0 {
			t.Fatalf("GOMAXPROCS=%d: no request was a resident answer, the comparison proved nothing", width)
		}
		mustShutdown(t, g)
	}
}

// TestResidentEvictionTransparent pins the bounded-staircase contract:
// with room for one staircase, an identity whose staircase was evicted
// re-executes on its next request and renders byte-identical output —
// eviction costs latency, never correctness.
func TestResidentEvictionTransparent(t *testing.T) {
	cfg := quickConfig(57)
	cfg.Devices = []device.Config{device.Xavier()}
	cfg.Planner.TableCacheCap = 1
	g, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer mustShutdown(t, g)

	const distinct = 6
	first := make([][]byte, distinct)
	for i := 0; i < distinct; i++ {
		rec := post(g, graphBody(t, userNet(i), 0.35, ""))
		if rec.Code != http.StatusOK {
			t.Fatalf("request %d: status %d: %s", i, rec.Code, rec.Body.String())
		}
		first[i] = stripped(rec.Body.Bytes())
	}
	st := g.Planner().Stats().Staircases
	if st.Evictions == 0 || st.Len > 1 {
		t.Fatalf("staircase stats = %+v: %d distinct identities under cap 1", st, distinct)
	}
	execs := g.Planner().Executions()
	for i := 0; i < distinct; i++ {
		rec := post(g, graphBody(t, userNet(i), 0.35, ""))
		if rec.Code != http.StatusOK {
			t.Fatalf("repeat %d: status %d: %s", i, rec.Code, rec.Body.String())
		}
		if !bytes.Equal(stripped(rec.Body.Bytes()), first[i]) {
			t.Fatalf("identity %d diverged after eviction:\n got %s\nwant %s", i, rec.Body.Bytes(), first[i])
		}
	}
	if got := g.Planner().Executions(); got != execs+distinct {
		t.Fatalf("executions %d -> %d: every evicted identity should re-execute once", execs, got)
	}
}

// grepLines returns the lines of s containing sub.
func grepLines(s, sub string) string {
	var out []string
	for _, l := range strings.Split(s, "\n") {
		if strings.Contains(l, sub) {
			out = append(out, l)
		}
	}
	return strings.Join(out, "\n")
}

// TestResidentRefusedByEarlierGates pins that the gates before the
// staircase still refuse a request whose answer is resident: a drain,
// a quarantine of its identity (tripped on another device, since the
// quarantine key ignores the device) and an unhealthy device.
func TestResidentRefusedByEarlierGates(t *testing.T) {
	newGateway := func(t *testing.T, seed int64) *Gateway {
		t.Helper()
		cfg := quickConfig(seed)
		cfg.Devices = []device.Config{device.Xavier(), device.EdgeCPU()}
		g, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return g
	}

	t.Run("draining", func(t *testing.T) {
		g := newGateway(t, 73)
		step := seedStep(t, g, userNet(1), "sim-xavier")
		mustShutdown(t, g)
		if rec := post(g, step); rec.Code != http.StatusServiceUnavailable || errCode(t, rec) != "draining" {
			t.Fatalf("draining with a resident answer: status %d: %s", rec.Code, rec.Body.String())
		}
	})

	t.Run("quarantined", func(t *testing.T) {
		defer faultinject.Reset()
		cfg := quickConfig(74)
		cfg.Devices = []device.Config{device.Xavier(), device.EdgeCPU()}
		// The quarantine identity includes the deadline, so the refused
		// request repeats the seeding one, answered from the staircase.
		g, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer mustShutdown(t, g)
		net := poisonNet(2, "poison-resident")
		seedStep(t, g, net, "sim-xavier")
		body := graphBody(t, net, 0.35, `,"target":"sim-xavier"`)
		if rec := post(g, body); rec.Code != http.StatusOK || g.residentCounter(g.lanes["sim-xavier"]).Value() != 1 {
			t.Fatalf("repeat before the quarantine: status %d, not resident", rec.Code)
		}
		faultinject.Arm(faultinject.TrimPanic, "poison-resident", quarantineAfter)
		for i := 0; i < quarantineAfter; i++ {
			if rec := post(g, graphBody(t, net, 0.35, `,"target":"sim-edge-cpu"`)); rec.Code != http.StatusInternalServerError {
				t.Fatalf("poison pass %d: status %d: %s", i, rec.Code, rec.Body.String())
			}
		}
		if rec := post(g, body); rec.Code != http.StatusInternalServerError || errCode(t, rec) != "quarantined" {
			t.Fatalf("quarantined identity with a resident answer: status %d: %s", rec.Code, rec.Body.String())
		}
	})

	t.Run("unhealthy", func(t *testing.T) {
		defer faultinject.Reset()
		g := newGateway(t, 75)
		defer mustShutdown(t, g)
		step := seedStep(t, g, userNet(3), "sim-xavier")
		tripDevice(t, g, 9, "sim-xavier")
		if rec := post(g, step); rec.Code != http.StatusServiceUnavailable || errCode(t, rec) != "device_unhealthy" {
			t.Fatalf("unhealthy device with a resident answer: status %d: %s", rec.Code, rec.Body.String())
		}
	})
}

// TestResidentBeatsSheds pins that a resident answer is served past a
// full lane and to a budget below the warm p99, at no planner cost,
// while lane work on the same gateway is shed.
func TestResidentBeatsSheds(t *testing.T) {
	t.Run("queue_full", func(t *testing.T) {
		cfg := quickConfig(77)
		cfg.Devices = []device.Config{device.Xavier()}
		g, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer mustShutdown(t, g)
		step := seedStep(t, g, userNet(4), "sim-xavier")
		l := g.lanes["sim-xavier"]
		l.waiting.Store(int64(g.laneQueueCap)) // phantom leaders fill the lane
		defer l.waiting.Store(0)
		execs := g.Planner().Executions()
		if rec := post(g, step); rec.Code != http.StatusOK {
			t.Fatalf("resident answer past a full lane: status %d: %s", rec.Code, rec.Body.String())
		}
		if rec := post(g, graphBody(t, userNet(5), 0.35, "")); rec.Code != http.StatusTooManyRequests || errCode(t, rec) != "queue_full" {
			t.Fatalf("lane work on a full lane: status %d: %s", rec.Code, rec.Body.String())
		}
		if got := g.Planner().Executions(); got != execs {
			t.Fatalf("executions %d -> %d on a full lane", execs, got)
		}
	})

	t.Run("budget", func(t *testing.T) {
		cfg := quickConfig(78)
		cfg.Devices = []device.Config{device.Xavier()}
		g, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer mustShutdown(t, g)
		w := warmExecutions(t, g, "sim-xavier", userNet(6), shedMinSamples)
		step := seedStep(t, g, userNet(7), "sim-xavier")
		const tiny = `,"budget_ms":0.000001`
		execs := g.Planner().Executions()
		if rec := post(g, step[:len(step)-1]+tiny+"}"); rec.Code != http.StatusOK {
			t.Fatalf("resident answer under a tiny budget: status %d: %s", rec.Code, rec.Body.String())
		}
		if rec := post(g, w.body(tiny)); rec.Code != http.StatusTooManyRequests || errCode(t, rec) != "budget_too_small" {
			t.Fatalf("lane work under a tiny budget: status %d: %s", rec.Code, rec.Body.String())
		}
		if got := g.Planner().Executions(); got != execs {
			t.Fatalf("executions %d -> %d under a tiny budget", execs, got)
		}
	})
}

// TestResidentAnswerAllocs bounds a resident answer's allocations, like
// BenchmarkGatewayThroughput's hit_allocs gate: request-scoped
// bookkeeping only, never a render or a copy of the body. Each request
// is a fresh deadline on one step, so each one searches the staircase.
func TestResidentAnswerAllocs(t *testing.T) {
	cfg := quickConfig(79)
	cfg.Devices = []device.Config{device.Xavier()}
	g, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer mustShutdown(t, g)
	rec := post(g, `{"network":"ResNet-50","deadline_ms":0.9}`)
	var r PlanResponseWire
	if err := json.Unmarshal(rec.Body.Bytes(), &r); err != nil {
		t.Fatal(err)
	}
	const runs = 100
	bodies := make([]string, runs+1) // AllocsPerRun adds a warm-up run
	for i := range bodies {
		bodies[i] = fmt.Sprintf(`{"network":"ResNet-50","deadline_ms":%v}`, r.EstimatedMs*(1+float64(i+1)*1e-12))
	}
	i := 0
	allocs := testing.AllocsPerRun(runs, func() {
		if rec := post(g, bodies[i]); rec.Code != http.StatusOK {
			t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
		}
		i++
	})
	if got := g.residentCounter(g.lanes["sim-xavier"]).Value(); got != runs+1 {
		t.Fatalf("%d resident answers, want %d", got, runs+1)
	}
	if allocs > 48 {
		t.Fatalf("a resident answer allocates %.0f objects, want <= 48", allocs)
	}
	t.Logf("resident answer: %.0f allocs", allocs)
}
