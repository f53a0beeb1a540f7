// Example gateway: boots the deadline-aware serving gateway over the
// full device fleet on a loopback listener, drives it like a client —
// a zoo request, a custom graph, a burst of identical requests that
// coalesce into one planner execution, a budget-constrained request
// that gets shed, the /v1/devices listing, the same network planned on
// two explicit targets, and an auto-routed request whose body matches
// the explicit spelling — then scrapes /metrics and drains. It exits 1
// if any behaviour it demonstrates does not hold.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"strings"
	"sync"
	"time"

	"netcut"
	"netcut/internal/gateway"
	"netcut/internal/graph"
)

func die(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}

// check dies unless the demonstrated invariant holds.
func check(ok bool, format string, args ...any) {
	if !ok {
		die(fmt.Errorf("example: "+format, args...))
	}
}

// sameBody compares two response bodies modulo the trace_id every
// response carries.
func sameBody(a, b string) bool {
	return bytes.Equal(netcut.StripTraceID([]byte(a)), netcut.StripTraceID([]byte(b)))
}

// customNet is a small residual network standing in for a user
// architecture outside the calibrated zoo.
func customNet() *netcut.Graph {
	b := graph.NewBuilder("example-net", graph.Shape{H: 32, W: 32, C: 3}, 8)
	x := b.Input()
	x = b.ConvBNReLU(x, 3, 8, 2, graph.Same)
	for blk := 0; blk < 4; blk++ {
		b.BeginBlock(fmt.Sprintf("b%d", blk))
		y := b.ConvBNReLU(x, 3, 8, 1, graph.Same)
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

func post(base string, body string) (int, string) {
	resp, err := http.Post(base+"/v1/plan", "application/json", strings.NewReader(body))
	if err != nil {
		die(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		die(err)
	}
	return resp.StatusCode, strings.TrimSpace(string(b))
}

// fleet fetches the /v1/devices listing; the default device is first.
func fleet(base string) []gateway.DeviceWire {
	resp, err := http.Get(base + "/v1/devices")
	if err != nil {
		die(err)
	}
	defer resp.Body.Close()
	var list struct {
		Devices []gateway.DeviceWire `json:"devices"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		die(err)
	}
	return list.Devices
}

func main() {
	gw, err := netcut.NewGateway(netcut.GatewayConfig{
		Planner: netcut.PlannerConfig{Seed: 1},
	})
	if err != nil {
		die(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		die(err)
	}
	srv := &http.Server{Handler: gw.Handler()}
	go srv.Serve(ln)
	base := "http://" + ln.Addr().String()
	fmt.Println("gateway listening on", base)

	// 1. A calibrated zoo network by name.
	code, body := post(base, `{"network":"ResNet-50","deadline_ms":0.9}`)
	fmt.Printf("\nzoo request         -> %d %s\n", code, body)
	check(code == http.StatusOK, "zoo request: status %d", code)

	// 2. A custom graph over the wire.
	gjson, err := json.Marshal(gateway.EncodeGraph(customNet()))
	if err != nil {
		die(err)
	}
	code, body = post(base, fmt.Sprintf(`{"graph":%s,"deadline_ms":0.35}`, gjson))
	fmt.Printf("custom graph        -> %d %s\n", code, body)
	check(code == http.StatusOK, "custom graph: status %d", code)

	// 3. A burst of identical requests: arrivals that overlap an
	// in-flight identical execution join it instead of planning again
	// (stragglers landing after it completes get the step it accepted
	// as a resident answer), and every body is byte-identical (modulo its trace_id)
	// either way.
	const burst = 16
	before := gw.Planner().Executions()
	var wg sync.WaitGroup
	bodies := make([]string, burst)
	for i := 0; i < burst; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, bodies[i] = post(base, `{"network":"InceptionV3","deadline_ms":0.9}`)
		}(i)
	}
	wg.Wait()
	identical := true
	for _, b := range bodies[1:] {
		identical = identical && sameBody(b, bodies[0])
	}
	fmt.Printf("burst of %d         -> %d planner execution(s), identical bodies: %v\n",
		burst, gw.Planner().Executions()-before, identical)
	check(identical, "burst bodies differ")

	// 4. A request whose own latency budget cannot cover the warm p99.
	// Budget shedding reads the warm p99 only once the device has
	// served enough warm executions, which /v1/devices shows as a
	// nonzero warm_p99_ms, so warm the default device until it does. A
	// deadline on a step of a network's answer staircase that a request
	// already accepted is answered without a planner pass, so the
	// warm-up walks staircases down: each request asks just under the
	// last answer's estimated_ms, a step no request has accepted yet,
	// and an infeasible answer moves the walk to the next network. The
	// tiny-budget request is the walk's next step, so no resident
	// answer can answer it before the budget gate.
	const maxWarmup = 999
	walk := []string{"ResNet-50", "DenseNet-121", "InceptionV3"}
	const top = 1e6 // a deadline every unmodified network meets
	deadline := top
	next := func(extra string) string {
		check(len(walk) > 0, "the warm-up walk ran out of networks")
		return fmt.Sprintf(`{"network":%q,"deadline_ms":%g%s}`, walk[0], deadline, extra)
	}
	warm := 0
	for ; fleet(base)[0].WarmP99Ms == 0; warm++ {
		check(warm < maxWarmup, "warm_p99_ms still 0 after %d warm-up requests", warm)
		code, body = post(base, next(""))
		check(code == http.StatusOK, "warm-up request %d: status %d %s", warm+1, code, body)
		var r gateway.PlanResponseWire
		if err := json.Unmarshal([]byte(body), &r); err != nil {
			die(err)
		}
		if r.Feasible {
			deadline = r.EstimatedMs * (1 - 1e-9)
		} else {
			walk, deadline = walk[1:], top
		}
	}
	code, body = post(base, next(`,"budget_ms":0.000001`))
	fmt.Printf("tiny budget_ms      -> %d %s (after %d warm-up requests)\n", code, body, warm)
	check(code == http.StatusTooManyRequests && strings.Contains(body, `"code":"budget_too_small"`),
		"tiny budget: want 429 budget_too_small, got %d %s", code, body)

	// 5. The device fleet: list the registered targets, plan the same
	// network on two of them (different calibrations, different
	// measured latencies, zero shared cache entries), and let "auto"
	// route — its body is byte-identical to naming the resolved device
	// explicitly.
	devices := fleet(base)
	fmt.Printf("\n/v1/devices         -> %d registered targets:\n", len(devices))
	for _, d := range devices {
		fmt.Printf("  %-16s default=%-5v precision=%-4s warm_p99_ms=%.4f\n",
			d.Name, d.Default, d.Precision, d.WarmP99Ms)
	}
	_, onXavier := post(base, `{"network":"MobileNetV2 (1.0)","deadline_ms":0.9,"target":"sim-xavier"}`)
	_, onGPU := post(base, `{"network":"MobileNetV2 (1.0)","deadline_ms":0.9,"target":"sim-server-gpu"}`)
	fmt.Printf("xavier target       -> %s\n", onXavier)
	fmt.Printf("server-gpu target   -> %s\n", onGPU)
	_, auto := post(base, `{"network":"MobileNetV2 (1.0)","deadline_ms":0.9,"target":"auto"}`)
	var routed struct {
		Device string `json:"device"`
	}
	if err := json.Unmarshal([]byte(auto), &routed); err != nil {
		die(err)
	}
	_, explicit := post(base, fmt.Sprintf(
		`{"network":"MobileNetV2 (1.0)","deadline_ms":0.9,"target":%q}`, routed.Device))
	fmt.Printf("auto target         -> routed to %s (byte-identical to explicit: %v)\n",
		routed.Device, sameBody(auto, explicit))
	check(sameBody(auto, explicit), "auto body differs from the explicit %s body", routed.Device)

	// 6. The observability surface: the nonzero series of the request,
	// answer-path and shed families.
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		die(err)
	}
	metrics, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	families := map[string]bool{
		"netcut_gateway_requests_total":        true,
		"netcut_gateway_resident_total":        true,
		"netcut_gateway_coalesced_total":       true,
		"netcut_gateway_shed_budget_total":     true,
		"netcut_gateway_shed_queue_full_total": true,
		"netcut_gateway_shed_draining_total":   true,
	}
	fmt.Println("\n/metrics excerpt (nonzero):")
	for _, line := range strings.Split(string(metrics), "\n") {
		series, value, ok := strings.Cut(line, " ")
		family, _, _ := strings.Cut(series, "{")
		if ok && families[family] && value != "0" {
			fmt.Println(" ", line)
		}
	}

	// 7. Graceful drain.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		die(err)
	}
	if err := gw.Shutdown(ctx); err != nil {
		die(err)
	}
	fmt.Println("\ndrained cleanly")
}
