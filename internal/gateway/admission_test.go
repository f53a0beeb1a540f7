package gateway

// Admission characterization: one table over target spelling × gateway
// state × allow_degraded. Each cell runs one request against a freshly
// prepared gateway and pins what admission decided — status, error
// code, serving device, degraded reason — and which counters moved, so
// the single gate order (route, then health → resident → coalesce →
// budget → enqueue, with the degraded fallback re-entering once) is
// checked cell by cell rather than path by path.

import (
	"encoding/json"
	"fmt"
	"net/http"
	"testing"

	"netcut/internal/device"
	"netcut/internal/faultinject"
	"netcut/internal/graph"
	"netcut/internal/zoo"
)

// admissionCounters are the counters an admission decision can move.
type admissionCounters struct {
	shedBudget, shedQueue, degraded, autoRouted, resident, execs uint64
}

func readAdmissionCounters(g *Gateway) admissionCounters {
	c := admissionCounters{
		shedBudget: g.shedBudget.Value(),
		degraded:   g.degradedServed.Value(),
		autoRouted: g.autoRouted.Value(),
	}
	for _, name := range g.pool.DeviceNames() {
		p, err := g.pool.Planner(name)
		if err != nil {
			panic(err)
		}
		c.execs += p.Executions()
		c.shedQueue += g.lanes[name].shedQueue.Value()
		if rc := g.lanes[name].resident.Load(); rc != nil {
			c.resident += rc.Value()
		}
	}
	return c
}

func (c admissionCounters) minus(o admissionCounters) admissionCounters {
	return admissionCounters{
		shedBudget: c.shedBudget - o.shedBudget,
		shedQueue:  c.shedQueue - o.shedQueue,
		degraded:   c.degraded - o.degraded,
		autoRouted: c.autoRouted - o.autoRouted,
		resident:   c.resident - o.resident,
		execs:      c.execs - o.execs,
	}
}

// admissionOutcome is what one cell observes: code is the error code
// of a refusal, device and reason describe a 200.
type admissionOutcome struct {
	status int
	code   string
	device string
	reason string
	delta  admissionCounters
}

// admissionState prepares a fresh gateway in one state. setup may
// return the graph the cell then requests (nil: the shared userNet(7)),
// and extra is appended to every cell's request body.
type admissionState struct {
	cfg   func(*Config)
	setup func(t *testing.T, g *Gateway) *graph.Graph
	extra string
}

// tripDevice trips dev unhealthy with unhealthyAfter requests that
// panic in the trim layer, each a distinct identity so none is
// quarantined first, and keeps it down: the probes' zoo plan
// (zoo.Names[0]) panics too until the caller resets the harness.
func tripDevice(t *testing.T, g *Gateway, i int, dev string) {
	t.Helper()
	prefix := "poison-trip-" + dev
	faultinject.Arm(faultinject.TrimPanic, prefix, 0)
	faultinject.Arm(faultinject.TrimPanic, zoo.Names[0], 0)
	for k := 0; k < unhealthyAfter; k++ {
		name := fmt.Sprintf("%s-%d", prefix, k)
		if rec := post(g, graphBody(t, poisonNet(i, name), 0.35, `,"target":"`+dev+`"`)); rec.Code != http.StatusInternalServerError {
			t.Fatalf("tripping %s: status %d: %s", dev, rec.Code, rec.Body.String())
		}
	}
	if g.deviceEligible(dev) {
		t.Fatalf("%s still eligible after %d contained panics", dev, unhealthyAfter)
	}
}

var admissionStates = map[string]admissionState{
	"normal": {},
	"target-unhealthy": {
		setup: func(t *testing.T, g *Gateway) *graph.Graph {
			tripDevice(t, g, 40, "sim-xavier")
			return nil
		},
	},
	"fleet-unhealthy": {
		setup: func(t *testing.T, g *Gateway) *graph.Graph {
			tripDevice(t, g, 40, "sim-xavier")
			tripDevice(t, g, 41, "sim-edge-cpu")
			return nil
		},
	},
	// The cell repeats the setup request exactly.
	"resident": {
		setup: func(t *testing.T, g *Gateway) *graph.Graph {
			if rec := post(g, graphBody(t, userNet(7), 0.35, "")); rec.Code != http.StatusOK {
				t.Fatalf("accepting the step: status %d: %s", rec.Code, rec.Body.String())
			}
			return nil
		},
	},
	// The setup request accepts the cell's step at another deadline (the
	// step's own estimate, learnt on a scratch gateway), so the cell is
	// answered by the staircase, not by a repeat of its deadline.
	"staircase-resident": {
		setup: func(t *testing.T, g *Gateway) *graph.Graph {
			scratch, err := New(g.cfg)
			if err != nil {
				t.Fatal(err)
			}
			step := seedStep(t, scratch, userNet(7), "sim-xavier")
			mustShutdown(t, scratch)
			if rec := post(g, step); rec.Code != http.StatusOK {
				t.Fatalf("accepting the step: status %d: %s", rec.Code, rec.Body.String())
			}
			return nil
		},
	},
	// Phantom leaders fill sim-xavier's waiting room; sim-edge-cpu's
	// lane stays idle.
	"lane-full": {
		setup: func(t *testing.T, g *Gateway) *graph.Graph {
			g.lanes["sim-xavier"].waiting.Store(int64(g.laneQueueCap))
			return nil
		},
	},
	// One device, so the degraded fallback (the fastest device by
	// measured warm p99) is deterministic; the warm-up fills the
	// histogram budget shedding reads.
	"budget-infeasible": {
		cfg: func(c *Config) { c.Devices = []device.Config{device.Xavier()} },
		setup: func(t *testing.T, g *Gateway) *graph.Graph {
			warmExecutions(t, g, "sim-xavier", userNet(8), shedMinSamples)
			return nil
		},
		extra: `,"budget_ms":0.000001`,
	},
	"draining": {
		setup: func(t *testing.T, g *Gateway) *graph.Graph {
			mustShutdown(t, g)
			return nil
		},
	},
	"quarantined": {
		setup: func(t *testing.T, g *Gateway) *graph.Graph {
			poison := poisonNet(42, "poison-quarantine")
			faultinject.Arm(faultinject.TrimPanic, "poison-quarantine", quarantineAfter)
			for i := 0; i < quarantineAfter; i++ {
				if rec := post(g, graphBody(t, poison, 0.35, "")); rec.Code != http.StatusInternalServerError {
					t.Fatalf("poisoning: status %d: %s", rec.Code, rec.Body.String())
				}
			}
			return poison
		},
	},
}

// TestAdmissionTable pins every admission decision over target
// spelling ("" default, explicit, "auto", unknown) × gateway state ×
// allow_degraded. A degraded request is served, never counted as shed.
func TestAdmissionTable(t *testing.T) {
	const (
		xav  = "sim-xavier"
		edge = "sim-edge-cpu"
		def  = ""
		auto = "auto"
		unk  = "sim-nowhere"
	)
	var (
		strict = []bool{false}
		opted  = []bool{true}
		either = []bool{false, true}
	)
	type c = admissionCounters
	unknown := admissionOutcome{status: http.StatusBadRequest, code: "unknown_device"}
	rows := []struct {
		state   string
		target  string
		degrade []bool
		want    admissionOutcome
	}{
		{"normal", def, either, admissionOutcome{status: 200, device: xav, delta: c{execs: 1}}},
		{"normal", xav, either, admissionOutcome{status: 200, device: xav, delta: c{execs: 1}}},
		{"normal", auto, either, admissionOutcome{status: 200, device: xav, delta: c{autoRouted: 1, execs: 1}}},
		{"normal", unk, either, unknown},

		{"target-unhealthy", def, strict, admissionOutcome{status: 503, code: "device_unhealthy"}},
		{"target-unhealthy", def, opted, admissionOutcome{status: 200, device: edge, reason: degradedUnhealthy, delta: c{degraded: 1, execs: 1}}},
		{"target-unhealthy", xav, strict, admissionOutcome{status: 503, code: "device_unhealthy"}},
		{"target-unhealthy", xav, opted, admissionOutcome{status: 200, device: edge, reason: degradedUnhealthy, delta: c{degraded: 1, execs: 1}}},
		{"target-unhealthy", auto, either, admissionOutcome{status: 200, device: edge, delta: c{autoRouted: 1, execs: 1}}},
		{"target-unhealthy", unk, either, unknown},

		{"fleet-unhealthy", def, strict, admissionOutcome{status: 503, code: "device_unhealthy"}},
		{"fleet-unhealthy", def, opted, admissionOutcome{status: 503, code: "no_healthy_device"}},
		{"fleet-unhealthy", xav, strict, admissionOutcome{status: 503, code: "device_unhealthy"}},
		{"fleet-unhealthy", xav, opted, admissionOutcome{status: 503, code: "no_healthy_device"}},
		{"fleet-unhealthy", auto, either, admissionOutcome{status: 503, code: "no_healthy_device"}},
		{"fleet-unhealthy", unk, either, unknown},

		{"resident", def, either, admissionOutcome{status: 200, device: xav, delta: c{resident: 1}}},
		{"resident", xav, either, admissionOutcome{status: 200, device: xav, delta: c{resident: 1}}},
		{"resident", auto, either, admissionOutcome{status: 200, device: xav, delta: c{autoRouted: 1, resident: 1}}},
		{"resident", unk, either, unknown},

		{"staircase-resident", def, either, admissionOutcome{status: 200, device: xav, delta: c{resident: 1}}},
		{"staircase-resident", xav, either, admissionOutcome{status: 200, device: xav, delta: c{resident: 1}}},
		{"staircase-resident", auto, either, admissionOutcome{status: 200, device: xav, delta: c{autoRouted: 1, resident: 1}}},
		{"staircase-resident", unk, either, unknown},

		{"lane-full", def, either, admissionOutcome{status: 429, code: "queue_full", delta: c{shedQueue: 1}}},
		{"lane-full", xav, either, admissionOutcome{status: 429, code: "queue_full", delta: c{shedQueue: 1}}},
		{"lane-full", edge, either, admissionOutcome{status: 200, device: edge, delta: c{execs: 1}}},
		{"lane-full", auto, either, admissionOutcome{status: 429, code: "queue_full", delta: c{autoRouted: 1, shedQueue: 1}}},
		{"lane-full", unk, either, unknown},

		{"budget-infeasible", def, strict, admissionOutcome{status: 429, code: "budget_too_small", delta: c{shedBudget: 1}}},
		{"budget-infeasible", def, opted, admissionOutcome{status: 200, device: xav, reason: degradedBudget, delta: c{degraded: 1, execs: 1}}},
		{"budget-infeasible", xav, strict, admissionOutcome{status: 429, code: "budget_too_small", delta: c{shedBudget: 1}}},
		{"budget-infeasible", xav, opted, admissionOutcome{status: 200, device: xav, reason: degradedBudget, delta: c{degraded: 1, execs: 1}}},
		{"budget-infeasible", auto, strict, admissionOutcome{status: 429, code: "budget_too_small", delta: c{shedBudget: 1}}},
		{"budget-infeasible", auto, opted, admissionOutcome{status: 200, device: xav, reason: degradedBudget, delta: c{degraded: 1, execs: 1}}},
		{"budget-infeasible", unk, either, unknown},

		{"draining", def, either, admissionOutcome{status: 503, code: "draining"}},
		{"draining", xav, either, admissionOutcome{status: 503, code: "draining"}},
		{"draining", auto, either, admissionOutcome{status: 503, code: "draining"}},
		{"draining", unk, either, admissionOutcome{status: 503, code: "draining"}},

		{"quarantined", def, either, admissionOutcome{status: 500, code: "quarantined"}},
		{"quarantined", xav, either, admissionOutcome{status: 500, code: "quarantined"}},
		{"quarantined", auto, either, admissionOutcome{status: 500, code: "quarantined"}},
		{"quarantined", unk, either, admissionOutcome{status: 500, code: "quarantined"}},
	}

	for _, row := range rows {
		st, ok := admissionStates[row.state]
		if !ok {
			t.Fatalf("row names unknown state %q", row.state)
		}
		for _, allow := range row.degrade {
			spelling := row.target
			if spelling == "" {
				spelling = "default"
			}
			t.Run(fmt.Sprintf("%s/%s/allow_degraded=%v", row.state, spelling, allow), func(t *testing.T) {
				defer faultinject.Reset()
				cfg := quickConfig(90)
				cfg.Devices = []device.Config{device.Xavier(), device.EdgeCPU()}
				if st.cfg != nil {
					st.cfg(&cfg)
				}
				g, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				defer mustShutdown(t, g)

				req := userNet(7)
				if st.setup != nil {
					if alt := st.setup(t, g); alt != nil {
						req = alt
					}
				}
				extra := st.extra
				if row.target != "" {
					extra += `,"target":"` + row.target + `"`
				}
				if allow {
					extra += `,"allow_degraded":true`
				}

				before := readAdmissionCounters(g)
				rec := post(g, graphBody(t, req, 0.35, extra))
				got := admissionOutcome{status: rec.Code, delta: readAdmissionCounters(g).minus(before)}
				if rec.Code == http.StatusOK {
					var resp PlanResponseWire
					if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
						t.Fatal(err)
					}
					got.device, got.reason = resp.Device, resp.DegradedReason
				} else {
					got.code = errCode(t, rec)
				}
				if got != row.want {
					t.Fatalf("got  %+v\nwant %+v\nbody %s", got, row.want, rec.Body.String())
				}
			})
		}
	}
}
