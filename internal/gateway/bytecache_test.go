package gateway

// Byte-cache seam suite: pins the tentpole contract that the
// rendered-response cache is invisible except in latency — hits are
// byte-identical to executions, eviction only restores the recompute
// cost, and every admission gate (quarantine, device health, drain)
// still fires before a resident body can be served.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"testing"

	"netcut/internal/device"
	"netcut/internal/faultinject"
	"netcut/internal/serve"
)

// TestByteCacheHitSkipsExecution pins the telemetry split: a repeat of
// an identical request is served from the byte cache — byte-identical
// body, zero additional planner executions — and is counted as a
// bytecache hit, never as an execution.
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

	second := post(g, body)
	if second.Code != http.StatusOK {
		t.Fatalf("second request: status %d: %s", second.Code, second.Body.String())
	}
	if !bytes.Equal(stripped(first.Body.Bytes()), stripped(second.Body.Bytes())) {
		t.Fatalf("cache hit diverged from execution:\n got %s\nwant %s", second.Body.Bytes(), first.Body.Bytes())
	}
	if got := g.Planner().Executions(); got != execs {
		t.Fatalf("planner executions = %d after a cache hit, want unchanged %d", got, execs)
	}
	st := g.bytes.Stats()
	if st.Hits != 1 || st.Misses == 0 {
		t.Fatalf("bytecache stats = %+v, want exactly 1 hit and at least 1 miss", st)
	}

	// The split is visible on the wire: hits and misses are distinct
	// series next to the planner's execution counter.
	rec := get(g, "/metrics")
	if rec.Code != http.StatusOK {
		t.Fatalf("/metrics: status %d", rec.Code)
	}
	out := rec.Body.String()
	for _, want := range []string{
		"netcut_gateway_bytecache_hits_total 1\n",
		"netcut_gateway_bytecache_misses_total",
		"netcut_gateway_bytecache_entries",
		"netcut_gateway_bytecache_cap",
		"netcut_gateway_bytecache_evictions_total",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("/metrics missing %q:\n%s", want, out)
		}
	}
}

// TestByteCacheOnOffByteIdentical pins transparency under concurrency:
// with the byte cache enabled, any interleaving of repeated requests at
// any GOMAXPROCS produces bodies byte-identical to a serial replay on a
// gateway with the cache disabled.
func TestByteCacheOnOffByteIdentical(t *testing.T) {
	const (
		goroutines = 8
		distinct   = 4
		rounds     = 3
		seed       = 53
	)
	bodyFor := func(t *testing.T, i int) string { return graphBody(t, userNet(i), 0.35, "") }

	// Serial reference: cache off, one worker, GOMAXPROCS 1 — every
	// request is a full execution.
	prev := runtime.GOMAXPROCS(1)
	refCfg := quickConfig(seed)
	refCfg.Workers = 1
	refCfg.ByteCacheCap = -1
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
	runtime.GOMAXPROCS(prev)
	defer runtime.GOMAXPROCS(prev)

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
							errs <- fmt.Errorf("GOMAXPROCS=%d worker %d round %d: user-net-%d cached body diverged from cache-off replay:\n got %s\nwant %s",
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
		if st := g.bytes.Stats(); st.Hits == 0 {
			t.Fatalf("bytecache stats = %+v: the concurrent run never hit the cache, the comparison proved nothing", st)
		}
		mustShutdown(t, g)
	}
}

// TestByteCacheEvictionTransparent pins the bounded-cache contract: an
// identity evicted by capacity pressure re-executes on its next request
// and renders byte-identical output — eviction costs latency, never
// correctness.
func TestByteCacheEvictionTransparent(t *testing.T) {
	cfg := quickConfig(57)
	cfg.Devices = []device.Config{device.Xavier()}
	cfg.ByteCacheCap = 2
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
	st := g.bytes.Stats()
	if st.Evictions == 0 {
		t.Fatalf("bytecache stats = %+v: %d distinct identities under cap %d caused no evictions", st, distinct, cfg.ByteCacheCap)
	}
	if st.Len > cfg.ByteCacheCap {
		t.Fatalf("bytecache holds %d entries, cap is %d", st.Len, cfg.ByteCacheCap)
	}
	for i := 0; i < distinct; i++ {
		rec := post(g, graphBody(t, userNet(i), 0.35, ""))
		if rec.Code != http.StatusOK {
			t.Fatalf("repeat %d: status %d: %s", i, rec.Code, rec.Body.String())
		}
		if !bytes.Equal(stripped(rec.Body.Bytes()), first[i]) {
			t.Fatalf("identity %d diverged after eviction:\n got %s\nwant %s", i, rec.Body.Bytes(), first[i])
		}
	}
}

// TestByteCacheQuarantineGatePrecedesCache pins an admission invariant:
// quarantining a request identity must refuse it even when its rendered
// bytes are resident from before the quarantine tripped. The cache
// entry is seeded on one device, the panics trip on another — the
// quarantine key ignores the device, the byte key does not.
func TestByteCacheQuarantineGatePrecedesCache(t *testing.T) {
	defer faultinject.Reset()
	cfg := quickConfig(59)
	cfg.Devices = []device.Config{device.Xavier(), device.EdgeCPU()}
	g, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer mustShutdown(t, g)

	net := poisonNet(3, "poison-cached")
	okBody := graphBody(t, net, 0.35, `,"target":"sim-xavier"`)
	first := post(g, okBody)
	if first.Code != http.StatusOK {
		t.Fatalf("seeding request: status %d: %s", first.Code, first.Body.String())
	}
	if g.bytes.Stats().Len == 0 {
		t.Fatal("seeding request was not cached")
	}

	// Same structure, deadline and estimator on the other device: each
	// contained panic bumps the device-agnostic quarantine count. There
	// are fewer of them than unhealthyAfter, so the health gate stays
	// out of the way.
	faultinject.Arm(faultinject.TrimPanic, "poison-cached", quarantineAfter)
	for i := 0; i < quarantineAfter; i++ {
		if rec := post(g, graphBody(t, net, 0.35, `,"target":"sim-edge-cpu"`)); rec.Code != http.StatusInternalServerError {
			t.Fatalf("poison pass %d: status %d: %s", i, rec.Code, rec.Body.String())
		}
	}

	// The identity is quarantined; its bytes are still resident for
	// sim-xavier. The gate must win.
	rec := post(g, okBody)
	if rec.Code != http.StatusInternalServerError || errCode(t, rec) != "quarantined" {
		t.Fatalf("quarantined identity with resident bytes: status %d code %q body %s",
			rec.Code, errCode(t, rec), rec.Body.String())
	}
}

// TestByteCacheHealthTripPurgesDevice pins the freshness rule: tripping
// a device's health purges its cached bodies, and an explicit request
// for the tripped device gets the 503 — never a resident 200.
func TestByteCacheHealthTripPurgesDevice(t *testing.T) {
	defer faultinject.Reset()
	cfg := quickConfig(61)
	cfg.Devices = []device.Config{device.Xavier()}
	g, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer mustShutdown(t, g)

	body := graphBody(t, userNet(4), 0.35, `,"target":"sim-xavier"`)
	if rec := post(g, body); rec.Code != http.StatusOK {
		t.Fatalf("seeding request: status %d: %s", rec.Code, rec.Body.String())
	}
	if g.bytes.Stats().Len == 0 {
		t.Fatal("seeding request was not cached")
	}

	tripDevice(t, g, 8, "sim-xavier")

	if n := g.bytes.Stats().Len; n != 0 {
		t.Fatalf("bytecache holds %d entries after the device tripped, want 0", n)
	}
	rec := post(g, body)
	if rec.Code != http.StatusServiceUnavailable || errCode(t, rec) != "device_unhealthy" {
		t.Fatalf("tripped device with previously cached bytes: status %d code %q", rec.Code, errCode(t, rec))
	}
}

// TestByteCacheDrainRefusesHits pins the shutdown contract: once the
// gateway is draining, resident bytes are refused with the same 503
// (and honest Retry-After) as any other admission.
func TestByteCacheDrainRefusesHits(t *testing.T) {
	cfg := quickConfig(63)
	g, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	body := graphBody(t, userNet(5), 0.35, "")
	if rec := post(g, body); rec.Code != http.StatusOK {
		t.Fatalf("seeding request: status %d: %s", rec.Code, rec.Body.String())
	}
	if g.bytes.Stats().Len == 0 {
		t.Fatal("seeding request was not cached")
	}
	mustShutdown(t, g)
	rec := post(g, body)
	if rec.Code != http.StatusServiceUnavailable || errCode(t, rec) != "draining" ||
		rec.Header().Get("Retry-After") != wantRetryAfter(t, rec) {
		t.Fatalf("draining with resident bytes: status %d code %q retry-after %q",
			rec.Code, errCode(t, rec), rec.Header().Get("Retry-After"))
	}
}

// TestEncodeResponseMatchesJSONMarshal pins the hand-rolled renderer to
// encoding/json: for any response — including floats that force 'e'
// formatting, HTML-escaped names and omitted empty fields — the pooled
// encoder's bytes equal json.Marshal of PlanResponseWire plus the
// trailing newline. This equivalence is what makes the renderer safe to
// swap onto the byte-identity contract.
func TestEncodeResponseMatchesJSONMarshal(t *testing.T) {
	floats := []float64{
		0, 0.9, 1, 0.35, 123.456, 1e-6, 9.9e-7, 4.5e-9, 1e20, 1e21, 2.5e22,
		-0.75, -4.5e-9, -1e21, math.MaxFloat64, math.SmallestNonzeroFloat64,
		1.0000000000000002, 3.141592653589793,
	}
	names := []string{
		"", "ResNet-50", "user-net-0", "a<b>&c", `quo"te`, `back\slash`,
		"tab\tname", "Ünïcode-网络", "ctrl\x01\x1f", "trailing space ",
	}
	idx := 0
	nextFloat := func() float64 { idx++; return floats[idx%len(floats)] }
	for i, name := range names {
		for _, feasible := range []bool{true, false} {
			r := &serve.Response{
				Device:        "sim-xavier",
				Feasible:      feasible,
				Network:       name,
				Parent:        names[(i+1)%len(names)],
				BlocksRemoved: i,
				LayersRemoved: 3 * i,
				EstimatedMs:   nextFloat(),
				MeasuredMs:    nextFloat(),
				Accuracy:      nextFloat(),
				TrainHours:    nextFloat(),
				Iterations:    i * 7,
			}
			want, err := json.Marshal(PlanResponseWire{
				Device:        r.Device,
				Feasible:      r.Feasible,
				Network:       r.Network,
				Parent:        r.Parent,
				BlocksRemoved: r.BlocksRemoved,
				LayersRemoved: r.LayersRemoved,
				EstimatedMs:   r.EstimatedMs,
				MeasuredMs:    r.MeasuredMs,
				Accuracy:      r.Accuracy,
				TrainHours:    r.TrainHours,
				Iterations:    r.Iterations,
			})
			if err != nil {
				t.Fatal(err)
			}
			want = append(want, '\n')
			if got := EncodeResponse(r); !bytes.Equal(got, want) {
				t.Fatalf("EncodeResponse diverged for network %q:\n got %s\nwant %s", name, got, want)
			}
		}
	}
}

// TestEncodeResponseRejectsNonFinite pins the encoder's one divergence
// lever: values encoding/json would reject must panic, not render.
func TestEncodeResponseRejectsNonFinite(t *testing.T) {
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("EncodeResponse accepted %v", v)
				}
			}()
			EncodeResponse(&serve.Response{Device: "sim-xavier", EstimatedMs: v})
		}()
	}
}
