package gateway

// Resident-answer suite: the byte-cache invariants, carried over to
// answers served from a planner's answer staircase. A resident answer
// costs no planner execution, is byte-identical (modulo trace_id) to
// the lane's answer for the same request, joins the byte cache, beats
// the emergency and budget sheds, and is refused by every gate before
// it: drain, quarantine and device health.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
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
// /debug/stats, and a byte-cache entry that answers the repeat.
func TestResidentAnswerSkipsLane(t *testing.T) {
	cfg := quickConfig(71)
	cfg.Devices = []device.Config{device.Xavier(), device.EdgeCPU()}
	g, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer mustShutdown(t, g)

	step := seedStep(t, g, userNet(0), "sim-xavier")
	execs, hits := g.Planner().Executions(), g.bytes.Stats().Hits
	rec := post(g, step)
	if rec.Code != http.StatusOK {
		t.Fatalf("resident request: status %d: %s", rec.Code, rec.Body.String())
	}
	if got := g.Planner().Executions(); got != execs {
		t.Fatalf("resident answer cost planner executions: %d -> %d", execs, got)
	}
	if got := g.residentCounter("sim-xavier").Value(); got != 1 {
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
	if verdicts[stageByteCache] != "miss" || verdicts[stageResident] != "hit" || verdicts[stageCoalesce] != "" {
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

	// The answer joined the byte cache: the repeat is a hit.
	again := post(g, step)
	if again.Code != http.StatusOK || !bytes.Equal(stripped(again.Body.Bytes()), stripped(rec.Body.Bytes())) {
		t.Fatalf("repeat: status %d: %s", again.Code, again.Body.String())
	}
	if got := g.bytes.Stats().Hits; got != hits+1 {
		t.Fatalf("byte-cache hits %d -> %d, want one", hits, got)
	}
	if got := g.residentCounter("sim-xavier").Value(); got != 1 {
		t.Fatalf("the repeat was resident too (counter %d)", got)
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
		// request repeats the seeding one; with the byte cache off its
		// answer comes from the staircase.
		cfg.ByteCacheCap = -1
		g, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer mustShutdown(t, g)
		net := poisonNet(2, "poison-resident")
		seedStep(t, g, net, "sim-xavier")
		body := graphBody(t, net, 0.35, `,"target":"sim-xavier"`)
		if rec := post(g, body); rec.Code != http.StatusOK || g.residentCounter("sim-xavier").Value() != 1 {
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

// TestResidentBeatsSheds pins that a resident answer, like a byte-cache
// hit, is served under the emergency level and to a budget below the
// warm p99, at no planner cost, while lane work on the same gateway is
// shed.
func TestResidentBeatsSheds(t *testing.T) {
	t.Run("emergency", func(t *testing.T) {
		defer faultinject.Reset()
		cfg := quickConfig(77)
		cfg.Devices = []device.Config{device.Xavier()}
		cfg.OverloadInterval = -1
		g, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer mustShutdown(t, g)
		step := seedStep(t, g, userNet(4), "sim-xavier")
		faultinject.Arm(faultinject.QueueStall, "", 0)
		g.overloadTick()
		if lvl := g.LoadLevel(); lvl != levelEmergency {
			t.Fatalf("load level %d, want %d", lvl, levelEmergency)
		}
		execs := g.Planner().Executions()
		if rec := post(g, step); rec.Code != http.StatusOK {
			t.Fatalf("resident answer at emergency: status %d: %s", rec.Code, rec.Body.String())
		}
		if rec := post(g, graphBody(t, userNet(5), 0.35, "")); rec.Code != http.StatusTooManyRequests || errCode(t, rec) != "overload_shed" {
			t.Fatalf("lane work at emergency: status %d: %s", rec.Code, rec.Body.String())
		}
		if got := g.Planner().Executions(); got != execs {
			t.Fatalf("executions %d -> %d at emergency", execs, got)
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
// bookkeeping and the byte-cache insert, never a render or a copy of
// the body. Each request is a fresh deadline on one step, so each one
// misses the byte cache and is answered by the staircase.
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
	if got := g.residentCounter("sim-xavier").Value(); got != runs+1 {
		t.Fatalf("%d resident answers, want %d", got, runs+1)
	}
	if allocs > 48 {
		t.Fatalf("a resident answer allocates %.0f objects, want <= 48", allocs)
	}
	t.Logf("resident answer: %.0f allocs", allocs)
}
