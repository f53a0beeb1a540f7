// Package netcut reproduces "NetCut: Real-Time DNN Inference Using
// Layer Removal" (Zandigohar, Erdoğmuş, Schirner — DATE 2021) as a Go
// library.
//
// NetCut constructs TRimmed Networks (TRNs) by removing problem-specific
// top layers from pretrained networks used in transfer learning, and
// explores them deadline-first: a latency estimator (a profiler-based
// per-layer table, Eq. (1), or an analytical epsilon-SVR over
// device-agnostic features) proposes only the TRNs that meet an
// application deadline, so just a handful of networks are ever
// retrained.
//
// The root package is a facade over the internal substrates:
//
//   - internal/graph, internal/zoo: layer-graph IR and the seven paper
//     architectures (MobileNetV1/V2, ResNet-50, InceptionV3,
//     DenseNet-121)
//   - internal/trim: blockwise and per-layer TRN construction
//   - internal/device, internal/profiler: a calibrated embedded-GPU
//     simulator standing in for the paper's Jetson Xavier, and the
//     200-warm-up/800-run measurement protocol
//   - internal/svr, internal/estimate: epsilon-SVR (SMO with exact line
//     search), grid search, cross-validation, Eq. (1), and the linear
//     baseline
//   - internal/transfer: the retraining simulator calibrated to the
//     paper's accuracy-vs-removal curves and 183-hour sweep cost
//   - internal/core: Algorithm 1 and the blockwise-sweep baseline
//   - internal/tensor, internal/nn, internal/hands, internal/quant: a
//     real, from-scratch trainable CNN stack for the miniature
//     end-to-end pipeline
//   - internal/emg, internal/fusion, internal/robot: the prosthetic-
//     hand application context that sets the 0.9 ms deadline
//   - internal/exp: the harness regenerating every figure and table
//
// Quick start:
//
//	sel, err := netcut.Select(netcut.Options{DeadlineMs: 0.9})
//	if err != nil { ... }
//	fmt.Println(sel.Network, sel.Accuracy)
//
// # Performance architecture
//
// The measurement pipeline is built for throughput. Loop-invariant work
// is memoized at every layer: the device caches each graph's fused
// kernel plan, steady-state kernel times and MAC-share attribution
// (keyed by structural fingerprint, so independently re-cut copies of
// the same TRN share one plan); the profiler memoizes whole
// measurements and per-layer tables per plan key; and internal/trim
// memoizes built TRNs, so Algorithm 1's inner loop costs one subgraph
// build per distinct cut. The experiment Lab and the Planner it is
// built on guard each shared artefact (candidates, tables, the
// 148-sample set, the sweep, the trained estimators) with a
// singleflight cell and fan their measurement work — per network, per
// TRN, per SVR grid point x fold, per figure — out over a bounded
// worker pool (internal/par).
//
// Determinism contract: parallelism changes wall-clock time only, never
// results. Every task derives its randomness from the configured seed
// plus the task's own identity (the profiler XORs the seed with a hash
// of the network name; the retraining simulator hashes seed, network
// and cut), and fan-outs write into position-indexed slots, so figure
// renders and Select output are byte-identical for a fixed seed across
// repeated runs and any GOMAXPROCS.
//
// # The Planner service
//
// Select builds a fresh measurement lab per call; the Planner
// (NewPlanner, internal/serve) is the long-lived alternative for
// serving a stream of requests:
//
//	planner, err := netcut.NewPlanner(netcut.PlannerConfig{Seed: 1})
//	resp, err := planner.Select(netcut.PlanRequest{Graph: g, DeadlineMs: 0.9})
//
// Lifecycle: construct once, share freely. A Planner is safe for
// arbitrarily many concurrent Select calls and never needs shutdown —
// it owns no goroutines or descriptors, only caches. All requests
// share one simulated device, one profiler and one retraining
// simulator, so each distinct architecture pays for kernel planning,
// the 200/800 measurement protocol and TRN construction once; repeated
// or structurally identical requests are cache hits end to end
// (Planner.Stats exposes the hit counters). Graphs outside the
// calibrated zoo are admitted after graph.Validate and retrain against
// a generic transfer profile derived deterministically from the
// graph's own name and depth.
//
// Cache bounding: every structure-keyed cache is a bounded LRU, so a
// stream of never-repeating graphs runs in constant memory. The knobs
// live on PlannerConfig — PlanCacheCap (device kernel plans, default
// 4096), MeasurementCacheCap (8192) and TableCacheCap (1024) are
// per-planner; CutCacheCap re-bounds the TRN cut cache, which is
// process-wide and shared by every Planner (default 8192; set it once
// at startup in multi-tenant processes). 0 keeps the current setting
// and a negative value unbounds the layer.
//
// Determinism across shared caches: every cached value is a pure
// function of (seed, device config, graph structure), never of request
// order, so the caches are transparent — a hit returns exactly what a
// recompute would, and eviction merely restores the recompute cost.
// Consequently a Planner's responses are byte-identical to single-use
// Select for the same seed, to a serial replay of any concurrent
// request interleaving, and across GOMAXPROCS settings; the planner
// stress tests in determinism_test.go and the eviction-transparency
// tests in internal/{device,profiler,trim,serve} pin all three.
//
// # The serving gateway
//
// The Gateway (NewGateway, internal/gateway) puts a deadline-aware
// HTTP front on a Planner; cmd/netserve is the daemon that mounts it:
//
//	gw, err := netcut.NewGateway(netcut.GatewayConfig{})
//	srv := &http.Server{Addr: ":8080", Handler: gw.Handler()}
//
// POST /v1/plan accepts {"network": "ResNet-50", "deadline_ms": 0.9}
// for calibrated zoo architectures or {"graph": {...}} for arbitrary
// layer graphs (schema: internal/gateway wire format). The body is
// size-limited and the decoded graph stops at graph.Validate —
// malformed or oversized input is a structured 4xx, never a panic.
//
// Admission is deadline-aware in four stages. A repeat of an already
// delivered request — same resolved device, name, structure, deadline
// and estimator — is answered from a bounded rendered-response byte
// cache (GatewayConfig.ByteCacheCap, on by default; negative disables)
// straight from admission, after the drain, quarantine and
// device-health gates but before any queueing, skipping its lane, the
// planner and the JSON rendering. Identical in-flight requests
// coalesce into one planner execution, singleflight-style, and all
// receive byte-identical bodies. Distinct requests wait in a bounded
// per-device queue, and each lane worker plans one of them per pass
// through Planner.Select. A request carrying its own latency budget
// ("budget_ms") that cannot cover the observed warm-path p99 is shed
// up front with 429 and a retry hint — as is any arrival finding the
// queue full — consuming no planner work (a byte-cache hit beats the
// shed: delivering rendered bytes fits any budget). Gateway.Shutdown
// drains gracefully: new requests get 503 with a Retry-After derived
// from the remaining drain budget while every admitted call completes
// and delivers.
//
// Caching, coalescing, lanes and shedding change which executions
// happen and when — never what any request returns: a cached or
// coalesced response body is byte-identical to the same
// request served alone through a Planner (pinned by the gateway
// package tests, the TestByteCache* seam suite and the GOMAXPROCS
// determinism guard). Only fully delivered 200 bodies are cached —
// errors, contained panics and watchdog-abandoned passes never are —
// tripping a device's health purges its entries, and hits/misses are
// distinct /metrics series (netcut_gateway_bytecache_*) next to the
// planner's execution counters.
//
// # Targets & routing
//
// NetCut's latency model is intrinsically per-platform, so the serving
// stack is device-keyed end to end. internal/device carries a registry
// of named calibrations (DeviceProfiles: sim-xavier, the default;
// sim-edge-cpu; sim-server-gpu; sim-int8-accel), and a PlannerPool
// (NewPlannerPool) runs one Planner per registered target behind one
// façade. The Gateway serves the pool: each request picks its target
// with the wire field "target" — a registered name, "" for the default
// device, or "auto", which routes to the fastest device whose
// estimated warm-path latency (warm p99) fits the client's budget_ms
// and sheds only when no device qualifies. GET /v1/devices lists the
// fleet in routing order with live telemetry.
//
// Cross-device isolation is structural, not conventional: the device
// calibration fingerprint (DeviceConfig.Fingerprint) is folded into
// every plan key, which the profiler's measurement and table memos
// inherit, and into the TRN cut-cache keys the planner's explorations
// create — so two targets can never share plans, measurements, tables
// or cuts, while repeats on one target stay warm hits. Cache caps are
// per pool: the configured totals are divided across targets, so
// registering more devices re-slices memory instead of multiplying
// it. Routing, like shedding, is admission policy — it decides where
// an execution runs, never what it returns: per-device responses are
// byte-identical to a single-device Planner with the same seed and
// calibration, and an auto-routed body to the same request naming the
// resolved device explicitly (pinned by the pool tests and the
// gateway's GOMAXPROCS guard, which covers target "auto"). Per-device
// observability rides the same registry: execution, cache and latency
// series carry a device label on /metrics.
//
// # State persistence & lanes
//
// Restarts and slow targets are kept off the warm path. A Planner,
// PlannerPool or Gateway can snapshot its warm state — device kernel
// plans, profiler measurements and tables, and the TRN cut cache,
// which is device-independent and shared by every device — with
// SaveState and restore it with LoadState.
// internal/persist defines the format: a compact, deterministic binary
// envelope (magic, schema-version byte, FNV-1a payload checksum) over
// length-prefixed section frames, one per (kind, device, calibration)
// unit, each with its own identity header, deduplicated string table,
// varint records and per-frame checksum. Sections are independently
// decodable — persist.WriteSections and persist.SectionReader, plus
// the planner/pool StateSections/SaveStateFor/LoadSections entry
// points, expose the snapshot section-by-section so a replica can ship
// or request exactly the device shard it owns. Restore decodes
// sections concurrently and fans cut replay across cores with
// position-indexed slots (insertions stay serial in snapshot order),
// so parallelism changes wall-clock only: save, load, save reproduces
// the file byte for byte. cmd/netserve wires it to the process
// lifecycle: -state-file restores on boot (logging the restore
// duration) and saves after the SIGTERM drain, and POST /v1/state/save
// snapshots on demand. Identity is matched before anything is trusted:
// a snapshot from another schema version (including the retired JSON
// generation), seed, measurement protocol or device calibration is a
// structured rejection and the caches start cold. Because every cached
// value is a pure function of (seed, protocol, calibration,
// structure), a restored entry is byte-identical to a recomputed one —
// restore changes only where the warm path's cost was paid (pinned by
// the serve package's restore-vs-recompute tests). -prewarm
// additionally plans the calibrated zoo across the fleet in the
// background at startup, so steady-state traffic never sees a cold
// miss for a known architecture.
//
// The gateway's admission machinery is one bounded lane — queue plus
// workers — per registered device, with the configured QueueDepth
// total divided evenly across lanes (minimum 1 each, the pool
// cache-cap division rule). Every lane runs GOMAXPROCS workers unless
// GatewayConfig.Workers sets a total, which divides the same way. Lane assignment is the resolved-device
// routing decision, so lanes shift which worker runs an execution and
// when, never what it returns, and one target's cold plan cannot
// head-of-line-block another target's warm traffic.
//
// # Fault tolerance & degradation
//
// Faults are contained at the lane-worker boundary and degradation
// moves or refuses executions, never changes their bytes. A panic
// inside a planner pass becomes a structured 500 for the poisoned
// request — a pass plans exactly one request, so no other request
// shares its fate — and the worker survives;
// request identities that panic repeatedly are quarantined in a
// bounded LRU and refused up front. A client that disconnects while
// queued has its work cancelled before the planner runs. An optional
// execution watchdog (GatewayConfig.ExecTimeout) abandons stuck passes
// with a 504 — abandoned results are never delivered or cached.
// Devices that fault repeatedly are taken out of rotation: "auto"
// routes around them, explicit targeting gets 503 with Retry-After
// (every 429/503 rejection carries one), and a background probe
// restores the device when a probe plan succeeds. GET /readyz is the
// readiness probe (503 until MarkReady after boot restore, and again
// while draining), distinct from /healthz liveness.
//
// Crash safety: GatewayConfig.AutosaveInterval (netserve -autosave)
// snapshots the warm state on a jittered cadence via an atomic
// tmp+rename that also rotates one previous-good ".bak" generation;
// LoadStateFile falls back to .bak when the primary is missing or
// torn, so a kill -9 costs at most one interval of warmth. The whole
// surface is exercised deterministically by internal/faultinject —
// seed/key-matched fault points compiled into the hot paths as no-ops
// unless a test arms them — under the race detector in CI.
//
// # Overload control & degraded serving
//
// A closed-loop controller (GatewayConfig.OverloadInterval, netserve
// -overload-interval) folds per-lane backlog, warm-p99 drift of
// observed execution latency and — when GatewayConfig.HeapLimitBytes
// (-heap-limit) arms the memory signals — heap occupancy and GC-pause
// pressure into one load level — 0 normal, 1 brownout, 2 emergency —
// exported
// as netcut_gateway_load_level. Each level sheds optional work first:
// brownout halves the batch window, pauses prewarming and samples the
// trace ring 1-in-4; emergency drops the window, samples 1-in-16 and
// admits only byte-cache hits and coalesce joins, shedding every cold
// miss pre-execution with a level-scaled, backlog-honest Retry-After
// (ceil(backlog/workers) execution waves of p99+window each). The
// level is a pure function of the current signals, so it returns to
// normal within one interval of the load going away (the drift EWMA,
// the one signal with memory, halves each tick while its lane is
// idle). Each lane runs its full per-lane worker count of concurrent
// passes, so the hint's worker count is exact.
//
// Requests may opt into degraded serving with "allow_degraded": true:
// instead of a budget_too_small or device_unhealthy rejection, the
// request is routed deterministically to the fastest healthy device
// and served with "degraded": true and a degraded_reason spliced into
// the body at write time — byte-identical to the explicit spelling of
// the fallback target modulo the trace ID and those markers
// (StripTraceID / StripDegraded recover the canonical bytes). With no
// healthy device the 503 stands: degradation never conjures capacity.
//
// # Observability
//
// internal/telemetry is a dependency-free metrics registry (counters,
// gauges, histograms) threaded through every cache layer — device
// kernel plans, profiler measurements and tables, the sharded TRN cut
// cache — plus the planner's execution counters and cold/warm latency
// split, the gateway's queue/shed/coalesce counters (queue depth and
// queue-full sheds are per-lane, labeled by device) and Go runtime
// gauges (goroutines, heap bytes, GC pause p99, uptime). The gateway
// serves it at /metrics (Prometheus text format, explicit
// Content-Type) and /debug/stats (JSON); README.md carries the
// complete metric-family catalogue, which the gateway smoke script
// lints against a live scrape.
//
// Request tracing (internal/trace, equally dependency-free) is always
// on: each request gets a deterministic 16-hex trace ID — returned in
// the X-Netcut-Trace response header and the trace_id body field —
// and a record of timestamped stage spans covering decode, every
// admission gate with its verdict (drain, quarantine, route, health,
// bytecache, coalesce, shed, degraded on opt-in fallbacks), enqueue,
// queue wait and planner
// execution as separate spans, encode and delivery. Completed traces
// land in a bounded lock-sharded ring served at GET /debug/trace
// (filterable by id, device, status, min_ms, limit;
// GatewayConfig.TraceRingCap / netserve -trace-ring bounds it);
// in-flight requests are visible at GET /debug/requests, oldest
// first, so stuck work surfaces at the top. Requests slower than
// GatewayConfig.SlowTraceMs (netserve -slow-trace) are additionally
// logged as structured log/slog lines carrying the full stage
// breakdown, and per-stage latency is exported as the
// netcut_gateway_stage_ms{stage,device} histogram family. Tracing
// never changes a response byte apart from the injected trace_id
// field — the determinism contract holds modulo that one field, and
// the GOMAXPROCS guard pins exactly that. GatewayConfig.Pprof
// (netserve -pprof) mounts net/http/pprof under /debug/pprof/, off by
// default.
//
// See DESIGN.md for the system inventory and EXPERIMENTS.md for
// paper-vs-measured results.
package netcut
