package gateway

import (
	"bytes"
	"fmt"
	"net/http"
	"runtime"
	"sync"
	"testing"
)

// TestGatewayDeterministicAcrossGOMAXPROCS extends the repository's
// GOMAXPROCS determinism guard (exp.TestAllDeterministicAcrossGOMAXPROCS,
// netcut.TestPlannerDeterministicUnderConcurrentStress) to the serving
// layer — now including the device pool and its routing path: any
// interleaving of concurrent gateway requests spanning default,
// explicit-device and "auto" targets, at any GOMAXPROCS and any
// coalescing/lane schedule, must produce bodies byte-identical to
// a serial replay on a fresh gateway. The test's traffic runs far
// fewer than shedMinSamples warm executions per device, so "auto"
// stays on its deterministic cold-start route (warm estimates below
// the activation threshold read as 0 for every device) — load-adaptive
// routing, like shedding, is admission policy and is exercised by its
// own tests, not the byte-identity guard. Run under -race in CI this is also the gateway's data-race
// probe.
//
// With tracing always on, "byte-identical" means modulo the injected
// trace_id field: each response carries a unique ID, so the bodies are
// compared with it stripped, and every ID is separately pinned to the
// 16-hex format and to the X-Netcut-Trace header.
func TestGatewayDeterministicAcrossGOMAXPROCS(t *testing.T) {
	const (
		goroutines = 8
		distinct   = 5
		rounds     = 3
		seed       = 17
	)
	// Odd-indexed requests also opt into degraded serving: with every
	// device healthy and shedding inactive the flag must change
	// nothing — no fallback, no degraded markers, byte-identical
	// bodies — pinning that allow_degraded is admission policy, not a
	// response variant.
	targets := []string{"", `,"target":"auto","allow_degraded":true`, `,"target":"sim-xavier"`,
		`,"target":"sim-server-gpu","allow_degraded":true`, `,"target":"sim-edge-cpu"`}
	mk := func(workers int) *Gateway {
		cfg := quickConfig(seed)
		cfg.Workers = workers
		g, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	bodyFor := func(i int) string { return graphBody(t, userNet(i), 0.35, targets[i%len(targets)]) }

	// Serial reference: one fresh gateway, one worker, GOMAXPROCS 1.
	prev := runtime.GOMAXPROCS(1)
	ref := mk(1)
	want := make([][]byte, distinct)
	for i := range want {
		rec := post(ref, bodyFor(i))
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
		g := mk(2)
		var wg sync.WaitGroup
		errs := make(chan error, goroutines)
		for w := 0; w < goroutines; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for round := 0; round < rounds; round++ {
					for j := 0; j < distinct; j++ {
						i := (j + w + round) % distinct
						rec := post(g, bodyFor(i))
						if rec.Code != http.StatusOK {
							errs <- fmt.Errorf("GOMAXPROCS=%d worker %d: status %d: %s", width, w, rec.Code, rec.Body.String())
							return
						}
						if !bytes.Equal(stripped(rec.Body.Bytes()), want[i]) {
							errs <- fmt.Errorf("GOMAXPROCS=%d worker %d round %d: user-net-%d body diverged from serial replay:\n got %s\nwant %s",
								width, w, round, i, rec.Body.Bytes(), want[i])
							return
						}
						if bytes.Contains(rec.Body.Bytes(), []byte(`"degraded"`)) {
							errs <- fmt.Errorf("GOMAXPROCS=%d worker %d: healthy-fleet response carries degraded markers: %s",
								width, w, rec.Body.String())
							return
						}
						hdr := rec.Header().Get(TraceHeader)
						if !traceIDFormat.MatchString(hdr) {
							errs <- fmt.Errorf("GOMAXPROCS=%d worker %d: trace header %q is not 16 lowercase hex", width, w, hdr)
							return
						}
						if !bytes.Contains(rec.Body.Bytes(), []byte(`"trace_id":"`+hdr+`"`)) {
							errs <- fmt.Errorf("GOMAXPROCS=%d worker %d: body trace_id does not match header %q:\n%s",
								width, w, hdr, rec.Body.String())
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
		mustShutdown(t, g)
	}
}
