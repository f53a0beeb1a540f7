// netserve is the NetCut serving daemon: it mounts the deadline-aware
// planning gateway — JSON planning API over a device fleet with
// per-request targeting, request coalescing, per-device lanes, load
// shedding and fault containment — on an HTTP listener and runs until
// SIGINT/SIGTERM, then drains gracefully.
//
// Endpoints:
//
//	POST /v1/plan     {"network":"ResNet-50","deadline_ms":0.9}
//	                  {"graph":{...},"deadline_ms":0.35,"budget_ms":50}
//	                  {"network":"ResNet-50","target":"auto","budget_ms":50}
//	GET  /v1/devices  registered targets (calibration, health + telemetry)
//	GET  /metrics     Prometheus text format (device-labeled series)
//	GET  /debug/stats JSON snapshot (telemetry + per-device caches)
//	GET  /debug/trace completed request traces, newest first
//	                  (?id= ?device= ?status= ?min_ms= ?limit= filters)
//	GET  /debug/requests in-flight request traces, oldest (stuck) first
//	GET  /debug/pprof/ net/http/pprof profiles (only with -pprof)
//	GET  /healthz     liveness probe (200 while the process serves)
//	GET  /readyz      readiness probe (200 after boot restore, 503 while draining)
//
// Usage:
//
//	netserve                            # serve the full device registry on :8080, seed 0
//	netserve -devices sim-xavier,sim-server-gpu
//	netserve -addr 127.0.0.1:9090 -seed 7
//	netserve -queue 512 -workers 4
//	netserve -max-body 4194304 -drain-timeout 30s
//	netserve -state-file /var/lib/netcut/state.bin -prewarm
//	netserve -state-file /var/lib/netcut/state.bin -autosave 30s
//	netserve -slow-trace 50ms                # log requests slower than this
//	netserve -pprof                          # mount /debug/pprof/ (off by default)
//
// Observability: every request is traced end to end — the response
// carries the trace ID in the X-Netcut-Trace header and the trace_id
// body field, /debug/trace serves the 512 most recent completed traces,
// /debug/requests dumps what is in flight right now, and requests
// slower than -slow-trace are logged as structured lines with their
// per-stage timings. See the "Observability" section of the library
// documentation for the full metric catalogue.
//
// Warm-state persistence: with -state-file, the daemon restores the
// planners' caches from the file on boot — falling back to the
// previous-good "<state-file>.bak" generation when the primary is
// missing, torn or from another build — and snapshots them back after
// the SIGTERM drain, so the next boot's first requests run on the warm
// path. POST /v1/state/save writes the same snapshot on demand, and
// -autosave writes it periodically (crash safety: after a kill -9 the
// next boot restores the last autosaved generation instead of starting
// cold). -prewarm plans the calibrated zoo across the fleet in the
// background after any restore, one task per device, GOMAXPROCS devices
// at a time.
//
// Fault tolerance: panics are contained per request, repeat offenders are
// quarantined, and devices that fault repeatedly are taken out of
// rotation until a background probe restores them — see the gateway
// package documentation.
//
// Budget shedding: a request's "budget_ms" is checked against its
// device's warm p99 once that device has served 64 warm executions;
// until then every budget is admitted.
//
// Overload control: lane backlog, read wherever the level acts, folds
// into a load level (0 normal, 1 brownout, exported as
// netcut_gateway_load_level), and brownout pauses prewarming. A full
// lane sheds its own arrivals with 429 queue_full and a backlog-honest
// Retry-After hint; other lanes keep admitting. Clients that prefer a
// degraded answer over a rejection can set "allow_degraded": true in
// the request body — see the gateway package documentation.
//
// Signals: the first SIGINT/SIGTERM starts the graceful drain; a second
// one forces exit(1) immediately, logging which drain phase was in
// progress.
//
// Exit codes: 0 after a clean SIGINT/SIGTERM drain; 1 on configuration,
// bind or serve errors (including an unknown -devices name) and on a
// second-signal forced exit; 2 on flag misuse (from package flag).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"netcut"
)

func main() {
	os.Exit(run())
}

// run is main with an exit code, so every path unwinds defers before
// the process exits.
func run() int {
	var (
		addr         = flag.String("addr", ":8080", "listen address")
		seed         = flag.Int64("seed", 0, "measurement and retraining seed")
		devices      = flag.String("devices", "", "comma-separated registered device names to serve (empty = full registry; see /v1/devices)")
		queue        = flag.Int("queue", 0, "admission queue depth (0 = default)")
		workers      = flag.Int("workers", 0, "concurrent planner passes, split evenly across devices with at least one per device: each lane runs max(1, workers/devices) passes at a time (0 = GOMAXPROCS per device)")
		maxBody      = flag.Int64("max-body", 0, "request body size limit in bytes (0 = default, negative = unlimited)")
		drainTimeout = flag.Duration("drain-timeout", 30*time.Second, "how long shutdown waits for in-flight requests")
		stateFile    = flag.String("state-file", "", "warm-state snapshot path: restored on boot (with .bak fallback), saved after the SIGTERM drain and by POST /v1/state/save (empty = no persistence)")
		autosave     = flag.Duration("autosave", 0, "periodic warm-state snapshot interval (requires -state-file; 0 = only save on drain/demand)")
		prewarm      = flag.Bool("prewarm", false, "plan the calibrated zoo on every device in the background at startup (after any -state-file restore)")
		slowTrace    = flag.Duration("slow-trace", 0, "log a structured per-stage trace for requests slower than this (0 = disabled)")
		pprof        = flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/ (off by default; enable only on trusted listeners)")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "netserve: unexpected arguments: %v\n", flag.Args())
		flag.Usage()
		return 2
	}

	// Resolve -devices against the registry up front: a typo is a
	// structured exit-1 naming the registered profiles, not a panic or
	// a half-started fleet.
	var devs []netcut.DeviceConfig
	if *devices != "" {
		for _, name := range strings.Split(*devices, ",") {
			cfg, err := netcut.DeviceProfileByName(strings.TrimSpace(name))
			if err != nil {
				fmt.Fprintf(os.Stderr, "netserve: %v\n", err)
				return 1
			}
			devs = append(devs, cfg)
		}
	}

	gw, err := netcut.NewGateway(netcut.GatewayConfig{
		Planner:          netcut.PlannerConfig{Seed: *seed},
		Devices:          devs,
		QueueDepth:       *queue,
		Workers:          *workers,
		MaxBodyBytes:     *maxBody,
		DrainTimeout:     *drainTimeout,
		StatePath:        *stateFile,
		AutosaveInterval: *autosave,
		SlowTraceMs:      float64(*slowTrace) / float64(time.Millisecond),
		Pprof:            *pprof,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "netserve: %v\n", err)
		return 1
	}

	// Restore the warm state before the listener opens, so the very
	// first request sees the restored caches. A missing file is a
	// normal cold boot; anything unreadable or mismatched — primary and
	// .bak both — is reported and ignored: the caches rebuild on demand,
	// and trusting a stale snapshot would be worse than running cold.
	if *stateFile != "" {
		t0 := time.Now()
		if used, err := gw.LoadStateFile(); err == nil {
			// Most of what a restore allocates — the decoded file, the
			// parents' wire form — is garbage once it returns, and the
			// heap goal was last set in the middle of it, from however
			// much of that garbage was still live then. Collect once so
			// serving starts from a goal set by the restored caches
			// alone, rather than one that varies with restore timing.
			runtime.GC()
			fmt.Printf("netserve: restored warm state from %s in %.1fms\n",
				used, float64(time.Since(t0))/float64(time.Millisecond))
		} else if !errors.Is(err, os.ErrNotExist) {
			fmt.Fprintf(os.Stderr, "netserve: ignoring state file %s: %v\n", *stateFile, err)
		}
	}
	// Boot work is done: flip /readyz so load balancers start routing.
	gw.MarkReady()
	// Prewarm after any restore: the snapshot covers what the last
	// process had seen, prewarming covers the rest of the zoo x fleet
	// cross product.
	if *prewarm {
		gw.Prewarm()
		fmt.Println("netserve: prewarming zoo across the fleet in the background")
	}

	// Take over SIGINT/SIGTERM before the listener opens: a signal that
	// lands as soon as "serving on" is printed must start the drain, not
	// kill the process by its default action.
	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)

	// Bind before daemonizing claims: a bad -addr must be a prompt,
	// non-zero exit, not a goroutine's log line.
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "netserve: %v\n", err)
		return 1
	}
	srv := &http.Server{
		Handler: gw.Handler(),
		// Header/idle timeouts bound what a slow or silent client can
		// pin; WriteTimeout stays unset because a cold plan of a large
		// graph legitimately takes a while and admission already sheds
		// by the client's own budget.
		ReadHeaderTimeout: 10 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}

	errCh := make(chan error, 1)
	go func() { errCh <- srv.Serve(ln) }()
	fmt.Printf("netserve: serving on %s (seed %d, devices %v)\n",
		ln.Addr(), *seed, gw.Pool().DeviceNames())

	select {
	case sig := <-sigCh:
		fmt.Printf("netserve: %v, draining (timeout %v)\n", sig, *drainTimeout)
		// A second signal during the drain is the operator insisting:
		// force the exit, but say which phase was cut short so a hung
		// drain is diagnosable from the log alone.
		var phase atomic.Value
		phase.Store("http drain")
		go func() {
			sig := <-sigCh
			fmt.Fprintf(os.Stderr, "netserve: %v during %s, forcing exit\n", sig, phase.Load())
			os.Exit(1)
		}()
		ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		defer cancel()
		// Order matters: stop accepting and finish in-flight handlers
		// first (they run and wait on gateway deliveries), then drain
		// the gateway's admitted calls and background loops.
		if err := srv.Shutdown(ctx); err != nil {
			fmt.Fprintf(os.Stderr, "netserve: drain: %v\n", err)
			return 1
		}
		phase.Store("gateway drain")
		if err := gw.Shutdown(ctx); err != nil {
			fmt.Fprintf(os.Stderr, "netserve: drain: %v\n", err)
			return 1
		}
		phase.Store("state save")
		// Snapshot after the drain: every in-flight execution has
		// landed in the caches, so the file captures the fullest warm
		// state this process ever had. A save failure is worth a
		// warning, not a dirty exit — the drain itself succeeded.
		if *stateFile != "" {
			if n, err := gw.SaveStateFile(); err != nil {
				fmt.Fprintf(os.Stderr, "netserve: saving state: %v\n", err)
			} else {
				fmt.Printf("netserve: saved warm state to %s (%d bytes)\n", *stateFile, n)
			}
		}
		fmt.Println("netserve: drained")
		return 0
	case err := <-errCh:
		if !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintf(os.Stderr, "netserve: %v\n", err)
			return 1
		}
		return 0
	}
}
