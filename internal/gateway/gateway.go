// Package gateway is the deadline-aware serving layer of NetCut: a
// JSON-over-HTTP planning API on top of a device-keyed
// serve.PlannerPool that routes, admits, coalesces and — when the
// client's own latency budget cannot be met on any target — sheds
// requests, with a telemetry registry exposed in Prometheus text
// format at /metrics and as JSON at /debug/stats.
//
// Request flow: every plan request takes the steps below in this
// order, each once — a degraded request re-runs steps 4 to 7 once on
// its fallback device. The order is written out once, in admit, resolve
// and gates, and the invariants below rely on it.
//
//  1. Decode: the body is size-limited (Config.MaxBodyBytes) and the
//     decoded graph stops at graph.Validate — malformed or oversized
//     input is a structured 400/413, never a panic or an OOM.
//  2. Drain and quarantine: a draining gateway answers 503 with a
//     Retry-After from the remaining drain budget (resident answers
//     stop too); an identity quarantined for repeated planner panics
//     gets a structured 500 — on every target, so before routing.
//  3. Route: the target ("" = default device, a registered name from
//     GET /v1/devices, or "auto" = fastest eligible device whose
//     estimated warm-path latency fits the budget) resolves to one
//     device; an unregistered name is a 400. When no device qualifies
//     for "auto", an identical execution in flight on any eligible
//     device is joined; failing that, no eligible device at all is 503
//     no_healthy_device, and otherwise the request is shed with 429 or
//     degrades (step 8).
//  4. Health: a device tripped unhealthy is 503 device_unhealthy.
//  5. Resident: a request whose deadline falls on a step of the
//     device planner's answer staircase that an earlier request
//     accepted (serve.Planner.Resident) is answered on the handler
//     goroutine from that step's canonical body, rendered once — no
//     lane, no planner pass, no encode — even under a tight budget_ms,
//     since a rendered body fits any budget. It beats every shed, and
//     it is counted by netcut_gateway_resident_total, never as a
//     planner execution.
//  6. Coalesce: requests with identical (device, name, structure,
//     deadline, estimator) share one in-flight planner execution and
//     receive byte-identical response bodies, singleflight-style, at no
//     planner work and no queue slot.
//  7. Budget: a would-be leader whose budget_ms cannot cover the
//     device's warm-path p99 is shed with 429 and a retry hint ("auto"
//     was checked by its route in step 3).
//  8. Degrade: with "allow_degraded": true, a request that step 3's
//     budget check, step 4 or step 7 would refuse is served instead: it
//     falls back to the fastest eligible device and re-enters at step 4
//     there, once, with step 7 skipped. It is counted as degraded,
//     never as shed; with no eligible device left it is 503
//     no_healthy_device.
//  9. Lane: an admitted leader waits in its device's bounded lane — a
//     waiting room plus a fixed number of pass permits per registered
//     device, so one slow target's cold plan can never
//     head-of-line-block another target's warm traffic; a full waiting
//     room sheds that lane's arrivals, and only those, with 429
//     queue_full. Holding a permit, the leader runs one
//     planner pass for its request on its own handler goroutine;
//     identical stragglers that miss the pass find its accepted step
//     resident (step 5). Every lane has GOMAXPROCS permits unless
//     Config.Workers is set; lane capacities divide the QueueDepth (and
//     an explicit Workers) total evenly across devices (minimum 1
//     each), as the planner pool divides its cache caps.
//
// Shed and refused requests never consume planner work. Shutdown stops
// admission at step 2, lets every admitted call finish and deliver, then
// waits for the background loops (autosave, prewarm, probes).
//
// Fault containment & graceful degradation: every planner pass runs
// behind a panic boundary — a panicking request gets a structured 500,
// counted per device, and identities that panic repeatedly are
// quarantined at admission by a bounded LRU. A pass holds its lane
// permit until it returns. Consecutive panics trip a device unhealthy:
// "auto" routing skips it, explicit requests get 503 + Retry-After, and
// a background probe plan restores it on first success. Waiting calls whose waiters all disconnect are
// cancelled before they consume a planner execution. An optional
// autosave loop (Config.AutosaveInterval) snapshots warm state
// crash-safely — atomic rename plus one previous-good ".bak" generation
// that LoadStateFile falls back to — and GET /readyz reports readiness
// (restored, not draining) separately from /healthz liveness. Every
// containment decision is admission policy: it moves or refuses
// executions, never changes what any execution returns.
//
// Overload control & degraded serving: a load level, read from the
// live lane backlog wherever it acts or is shown, pauses prewarm at
// brownout — it refuses no request; each lane's waiting room is the
// only backlog shed — and requests may opt into degraded fallback
// routing with "allow_degraded": true. See the package comment in
// overload.go for the ladder and its signal.
//
// Warm-state persistence: POST /v1/state/save (enabled by
// Config.StatePath) snapshots every planner's caches to disk via
// serve.PlannerPool.SaveState, and LoadState restores a snapshot on
// boot, so a restarted daemon's first requests run on the warm path.
// Prewarm plans the calibrated zoo across the fleet in the background,
// one task per device with up to GOMAXPROCS devices at once, to
// eliminate the remaining cold misses.
//
// Determinism contract: routing, coalescing, lanes, resident answers
// and shedding change which executions happen, where and when — never
// what any execution returns. A coalesced or resident response body is
// byte-identical to the same request served alone through that
// device's serve.Planner, and an auto-routed body to the same request
// naming the resolved device explicitly — pinned by the package tests
// and the GOMAXPROCS determinism guard.
package gateway

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/pprof"
	"os"
	"path/filepath"
	"runtime/debug"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"netcut/internal/device"
	"netcut/internal/faultinject"
	"netcut/internal/graph"
	"netcut/internal/lru"
	"netcut/internal/par"
	"netcut/internal/serve"
	"netcut/internal/telemetry"
	"netcut/internal/trace"
	"netcut/internal/zoo"
)

// Config parameterizes a Gateway. The zero value serves the full
// device registry with the default planner configuration and the
// documented knob defaults.
type Config struct {
	// Planner is the per-device planner template (seed, protocol,
	// pool-wide cache caps). Its Device field selects a single-target
	// gateway when Devices is empty.
	Planner serve.Config
	// Devices lists the target calibrations this gateway serves, in
	// the order "auto" routing tie-breaks on; the first is the default
	// target. Empty means: Planner.Device alone if set, otherwise the
	// full device registry (device.Profiles, Xavier first).
	Devices []device.Config

	// MaxBodyBytes caps a request body; larger bodies get 413.
	// 0 means DefaultMaxBodyBytes; negative means no limit.
	MaxBodyBytes int64
	// QueueDepth bounds the total admission queue — admitted leaders
	// waiting for a pass permit; it is divided evenly across the
	// per-device lanes (minimum 1 each, the pool cache-cap division
	// rule), and arrivals beyond a lane's slice are shed with 429. 0
	// means DefaultQueueDepth.
	QueueDepth int
	// Workers is the total number of concurrent planner passes, divided
	// evenly across the per-device lanes with at least one per lane, so
	// no device is ever without one: each lane holds max(1,
	// Workers/devices) pass permits, and a pass plans one request. 0
	// gives every lane par.Workers() (GOMAXPROCS) permits, so a single
	// lane can keep every core busy.
	Workers int
	// StatePath enables warm-state persistence: POST /v1/state/save
	// atomically writes the pool's snapshot there (and cmd/netserve
	// saves on SIGTERM drain / restores on boot). Empty disables the
	// endpoint.
	StatePath string
	// DrainTimeout is the drain budget Shutdown assumes when its
	// context carries no deadline (a context deadline takes
	// precedence), and the basis of the Retry-After hint every
	// drain-time rejection carries: the remaining budget — how long
	// until this listener is gone and a retry lands on a peer — rather
	// than a hardcoded constant. 0 means DefaultDrainTimeout; negative
	// is a configuration error.
	DrainTimeout time.Duration

	// AutosaveInterval enables crash-safe periodic persistence: a
	// background loop snapshots the warm state to StatePath roughly
	// every interval (±10% deterministic jitter, so a fleet of replicas
	// started together doesn't write in lockstep), keeping the previous
	// good snapshot as StatePath+".bak". Requires StatePath; 0 (the
	// default) disables autosaving; negative is a configuration error.
	AutosaveInterval time.Duration

	// SlowTraceMs emits a structured log/slog line (on slog.Default())
	// for every request whose end-to-end trace exceeds this many
	// milliseconds, with per-stage durations as attributes. 0 (the
	// default) disables slow-trace logging; negative is a configuration
	// error.
	SlowTraceMs float64
	// Pprof mounts net/http/pprof's profiling handlers under
	// /debug/pprof/ on the gateway mux. Off by default: the profile
	// endpoints can stall the process (CPU profiles block for their
	// duration), so they are opt-in, next to the always-on /metrics.
	Pprof bool
}

// Defaults for the Config knobs.
const (
	DefaultMaxBodyBytes = 1 << 20 // 1 MiB: ~10x the largest zoo graph's wire form
	DefaultQueueDepth   = 256
	// DefaultDrainTimeout matches cmd/netserve's -drain-timeout
	// default: the drain budget assumed when Shutdown's context has no
	// deadline.
	DefaultDrainTimeout = 30 * time.Second
	// DefaultTraceRingCap is how many of the most recent completed
	// traces GET /debug/trace retains: a trace is a few hundred bytes,
	// so the window costs well under a megabyte while covering several
	// seconds of saturated traffic. The ring's cost is flat in its size
	// from 8 to 512 entries, so it is fixed rather than configured.
	DefaultTraceRingCap = 512
)

// Fixed admission and containment settings.
const (
	// shedMinSamples is how many warm executions a target's latency
	// histogram must hold before budget-based shedding and its warm
	// estimate's part in "auto" ranking activate:
	// shedding on a cold estimate would reject half of a fresh server's
	// first clients.
	shedMinSamples = 64
	// unhealthyAfter is how many consecutive panics on one device trip
	// it into the unhealthy state, where "auto" routing skips it and
	// explicit requests get 503 + Retry-After until a background probe
	// plan succeeds.
	unhealthyAfter = 3
	// probeInterval is how often an unhealthy device is probed with one
	// real prewarm-style plan; the first success restores it.
	probeInterval = 500 * time.Millisecond
	// prewarmPause is how long a prewarm task paused by a brownout
	// sleeps between reads of the load level.
	prewarmPause = 100 * time.Millisecond
	// quarantineAfter is how many panics one request key may cause
	// before the key is quarantined: further spellings of it are
	// rejected with a structured 500 at admission, without taking a
	// pass permit, so a poison graph cannot re-crash lanes in a tight retry
	// loop.
	quarantineAfter = 2
	// quarantineCap bounds the panic-count LRU: big enough to hold a
	// burst of distinct poison keys, small enough that the quarantine
	// itself can never become a memory sink.
	quarantineCap = 128
)

func (c *Config) fill() error {
	// MaxBodyBytes is the one knob where negative is meaningful (no
	// limit); for the rest a negative value is a configuration error,
	// surfaced from New rather than panicking in a channel make or a
	// WaitGroup.
	for _, k := range []struct {
		name string
		val  int
	}{
		{"QueueDepth", c.QueueDepth},
		{"Workers", c.Workers},
	} {
		if k.val < 0 {
			return fmt.Errorf("negative %s %d", k.name, k.val)
		}
	}
	for _, k := range []struct {
		name string
		val  time.Duration
	}{
		{"AutosaveInterval", c.AutosaveInterval},
		{"DrainTimeout", c.DrainTimeout},
	} {
		if k.val < 0 {
			return fmt.Errorf("negative %s %v", k.name, k.val)
		}
	}
	if c.SlowTraceMs < 0 {
		return fmt.Errorf("negative SlowTraceMs %v", c.SlowTraceMs)
	}
	if c.AutosaveInterval > 0 && c.StatePath == "" {
		return fmt.Errorf("AutosaveInterval requires a StatePath")
	}
	if c.MaxBodyBytes == 0 {
		c.MaxBodyBytes = DefaultMaxBodyBytes
	}
	if c.QueueDepth == 0 {
		c.QueueDepth = DefaultQueueDepth
	}
	if c.DrainTimeout == 0 {
		c.DrainTimeout = DefaultDrainTimeout
	}
	return nil
}

// call is one in-flight planner execution and the response every
// coalesced waiter shares. lane is the resolved target's lane
// (key.device names it). The leader's handler goroutine holds the call
// from admission to delivery (see lead), so it alone delivers or
// cancels it, exactly once.
//
// waiters counts the handlers still waiting on done: it starts at 1
// for the leader, coalesce joins increment it (under the gateway
// mutex), and a handler whose client disconnects decrements it. A
// leader that gets its permit for a call nobody waits for anymore
// cancels it before it consumes a planner execution.
type call struct {
	key  coalesceKey
	req  serve.Request
	lane *lane
	done chan struct{}
	// status and body are written once, before done closes.
	status  int
	body    []byte
	waiters atomic.Int64

	// Execution timeline, written by the leader before done closes
	// (the close is the happens-before edge) and read by every waiter
	// afterwards, so each trace can carve its wait into queue-wait,
	// execution and encode spans. planPhases holds the planner's
	// internal phase windows (measure, estimate, explore), reported
	// through the serve.Request.Trace callback on the leader's
	// goroutine while the pass runs.
	execStartAt time.Time
	execEndAt   time.Time
	encodeDur   time.Duration
	planPhases  []phaseWindow
}

// phaseWindow is one planner phase's absolute time window.
type phaseWindow struct {
	name       string
	start, end time.Time
}

// notePhase is the serve.Request.Trace callback target.
func (c *call) notePhase(name string, start, end time.Time) {
	c.planPhases = append(c.planPhases, phaseWindow{name, start, end})
}

// lane is one registered device's record: its slice of the admission
// machinery — a bounded waiting room plus a fixed number of pass
// permits — its fault-containment state and its device-labeled series.
// A leader runs its pass on its own handler goroutine while it holds
// one of its lane's permits. Lane assignment is the resolved-device
// routing decision the admission path already makes, so lanes shift
// when an execution runs — never what it returns — and a cold plan
// holding one lane's permits cannot delay another device's traffic.
type lane struct {
	device    string
	planner   *serve.Planner
	shedQueue *telemetry.Counter // queue_full sheds on this lane
	// permits holds one token per pass running on the lane; its
	// capacity, laneWorkers, is the lane's fixed parallelism.
	permits chan struct{}
	// waiting counts the admitted leaders not yet holding a permit: the
	// lane's backlog, bounded by laneQueueCap at admission.
	waiting atomic.Int64

	// Fault containment: consecutive counts panics since the last
	// successful pass; reaching unhealthyAfter trips unhealthy, and only
	// a successful background probe plan clears it.
	consecutive    atomic.Int64
	unhealthy      atomic.Bool
	panics         *telemetry.Counter
	unhealthyGauge *telemetry.Gauge
	probes         *telemetry.Counter
	// resident is the device's netcut_gateway_resident_total series,
	// registered on its first resident answer (see residentCounter).
	resident atomic.Pointer[telemetry.Counter]
	// stages holds the device's netcut_gateway_stage_ms histograms, by
	// stage.
	stages map[string]*telemetry.Histogram
}

// Gateway is the serving layer. Construct with New, expose Handler on
// an http.Server, and call Shutdown to drain.
type Gateway struct {
	cfg   Config
	pool  *serve.PlannerPool
	reg   *telemetry.Registry
	mux   *http.ServeMux
	lanes map[string]*lane // one per registered device; immutable after New

	// laneQueueCap / laneWorkers are the per-lane waiting room and
	// permit count, the slices of the configured QueueDepth / Workers
	// totals (laneWorkers is par.Workers() when Workers is unset).
	laneQueueCap int
	laneWorkers  int

	mu        sync.Mutex
	saveMu    sync.Mutex // serializes SaveStateFile writers
	inflight  map[coalesceKey]*call
	draining  bool
	drainDone chan struct{} // closed once the drain completes
	// drainDeadline is the drain budget's end (unix nanos), written
	// once when the drain starts; the Retry-After hint drain rejections
	// carry is the remaining budget, not a hardcoded constant.
	drainDeadline atomic.Int64
	stop          chan struct{}  // closed when the drain starts: background loops exit
	pending       sync.WaitGroup // admitted, not yet delivered calls
	// background tracks the gateway-owned background goroutines —
	// autosave loop, prewarm sweeps, health probes — so Shutdown can
	// wait for them to wind down (no save left mid-write, no tmp file
	// left behind). New entries register through goBackground, which
	// refuses once draining is set.
	background sync.WaitGroup

	// ready gates GET /readyz: the embedder (cmd/netserve) marks the
	// gateway ready once boot-time state restore has completed, so a
	// load balancer never routes to a replica still rebuilding warmth.
	// Liveness (GET /healthz) is independent and always true while the
	// process serves.
	ready atomic.Bool

	// quarantine maps panic-causing request identities (the coalesce
	// key minus its device: a poison graph is poison on every target)
	// to their panic counts. Bounded, so it can never out-grow the
	// blast radius it guards against.
	quarantine *lru.Cache[coalesceKey, *atomic.Int64]

	requests       *telemetry.Counter
	coalesced      *telemetry.Counter
	autoRouted     *telemetry.Counter
	shedBudget     *telemetry.Counter
	shedDraining   *telemetry.Counter
	rejected       *telemetry.Counter
	planErrors     *telemetry.Counter
	prewarmed      *telemetry.Counter
	stateSaves     *telemetry.Counter
	autosaves      *telemetry.Counter
	autosaveErrors *telemetry.Counter
	restoreFallbck *telemetry.Counter
	cancelled      *telemetry.Counter
	quarantined    *telemetry.Counter
	slowTraces     *telemetry.Counter
	requestLatMs   *telemetry.Histogram

	degradedServed *telemetry.Counter
	// cancelledLatMs records the wall-clock latency of admitted
	// requests whose client disconnected before delivery — its own
	// series, so cancellations neither vanish from latency telemetry
	// (survivorship bias) nor pollute the delivered-request histogram.
	cancelledLatMs *telemetry.Histogram
	testHookPass   func(device string) // test-only: runs under the permit before each planner pass
	testHookProbe  func(device string) // test-only: runs before each health probe plan

	// Request tracing (see trace.go in this package): ids mints the
	// deterministic-format trace IDs, live tracks in-flight traces for
	// GET /debug/requests, ring retains completed ones for
	// GET /debug/trace, and stagesNone carries the
	// netcut_gateway_stage_ms{stage,device="none"} histograms of requests
	// refused before routing, on the two stages such a request can
	// record (each lane carries its device's).
	ids        *trace.IDGen
	live       *trace.Live
	ring       *trace.Ring
	stagesNone map[string]*telemetry.Histogram
}

// New builds the gateway — one planner per registered device behind a
// serve.PlannerPool, each with its lane — and instruments every planner
// and cache layer under it (per-device series carry a device label).
// Callers own the HTTP server; see Handler.
func New(cfg Config) (*Gateway, error) {
	if err := cfg.fill(); err != nil {
		return nil, fmt.Errorf("gateway: %w", err)
	}
	devs := cfg.Devices
	if len(devs) == 0 && cfg.Planner.Device != nil {
		devs = []device.Config{*cfg.Planner.Device}
	}
	base := cfg.Planner
	base.Device = nil
	pool, err := serve.NewPool(serve.PoolConfig{Base: base, Devices: devs})
	if err != nil {
		return nil, fmt.Errorf("gateway: %w", err)
	}
	reg := telemetry.NewRegistry()
	pool.Instrument(reg)

	g := &Gateway{
		cfg:        cfg,
		pool:       pool,
		reg:        reg,
		inflight:   make(map[coalesceKey]*call),
		stop:       make(chan struct{}),
		quarantine: lru.New[coalesceKey, *atomic.Int64](quarantineCap),

		requests:     reg.Counter("netcut_gateway_requests_total", "plan requests received"),
		coalesced:    reg.Counter("netcut_gateway_coalesced_total", "requests that joined an identical in-flight execution"),
		autoRouted:   reg.Counter("netcut_gateway_auto_routed_total", "requests with target \"auto\" resolved to a device"),
		shedBudget:   reg.Counter("netcut_gateway_shed_budget_total", "requests shed because budget_ms cannot cover the warm p99"),
		shedDraining: reg.Counter("netcut_gateway_shed_draining_total", "requests rejected during drain"),
		rejected:     reg.Counter("netcut_gateway_rejected_total", "malformed requests rejected at the decode boundary"),
		planErrors:   reg.Counter("netcut_gateway_plan_errors_total", "admitted requests the planner returned an error for"),
		prewarmed:    reg.Counter("netcut_gateway_prewarmed_total", "zoo x fleet plans completed by startup prewarming"),
		stateSaves:   reg.Counter("netcut_gateway_state_saves_total", "warm-state snapshots written to the configured state path"),
		autosaves:    reg.Counter("netcut_gateway_autosaves_total", "warm-state snapshots written by the periodic autosave loop"),
		autosaveErrors: reg.Counter("netcut_gateway_autosave_errors_total",
			"autosave attempts that failed (the previous good snapshot and .bak stay in place)"),
		restoreFallbck: reg.Counter("netcut_gateway_state_restore_fallback_total",
			"boot restores that fell back to the .bak snapshot after rejecting the primary"),
		cancelled: reg.Counter("netcut_gateway_cancelled_total",
			"queued calls cancelled because every waiting client disconnected before execution"),
		quarantined: reg.Counter("netcut_gateway_quarantined_total",
			"requests rejected at admission because their key previously caused repeated panics"),
		slowTraces: reg.Counter("netcut_gateway_slow_traces_total",
			"requests whose end-to-end trace exceeded Config.SlowTraceMs and were logged"),
		degradedServed: reg.Counter("netcut_gateway_degraded_total",
			"allow_degraded requests served from a fallback device instead of being rejected"),
		requestLatMs: reg.Histogram("netcut_gateway_request_ms", "wall-clock request latency of admitted plan requests", nil),
		cancelledLatMs: reg.Histogram("netcut_gateway_request_cancelled_lat_ms",
			"wall-clock latency of admitted plan requests cancelled by client disconnect before delivery", nil),
	}
	reg.GaugeFunc("netcut_gateway_inflight", "distinct in-flight executions (coalescing keys)",
		func() float64 {
			g.mu.Lock()
			defer g.mu.Unlock()
			return float64(len(g.inflight))
		})
	telemetry.RegisterRuntime(reg)
	reg.GaugeFunc("netcut_gateway_load_level",
		"overload-controller load level: 0 normal, 1 brownout",
		func() float64 { return float64(g.level()) })

	// Request tracing: the ID stream derives from the planner seed, so a
	// replay with the same seed and admission order reproduces the same
	// trace IDs — deterministic in format and in sequence.
	g.ids = trace.NewIDGen(uint64(cfg.Planner.Seed))
	g.live = trace.NewLive()
	g.ring = trace.NewRing(DefaultTraceRingCap)
	reg.GaugeFunc("netcut_gateway_trace_ring_entries",
		"completed traces retained in the /debug/trace ring buffer",
		func() float64 { return float64(g.ring.Len()) })
	reg.GaugeFunc("netcut_gateway_traces_inflight",
		"requests currently in flight (live traces, dumped at /debug/requests)",
		func() float64 { return float64(g.live.Len()) })

	// One lane per registered device: the configured queue-depth and
	// permit totals divide evenly across lanes (minimum 1 each, the
	// same division rule the planner pool applies to cache caps), and
	// each lane's queue depth and queue_full sheds are device-labeled
	// series on the shared registry. With Workers unset every lane gets
	// one permit per core: a pass plans one request, so lane width is
	// the only way one device's traffic reaches a second core.
	names := pool.DeviceNames()
	g.laneQueueCap = max(1, cfg.QueueDepth/len(names))
	g.laneWorkers = par.Workers()
	if cfg.Workers > 0 {
		g.laneWorkers = max(1, cfg.Workers/len(names))
	}
	g.lanes = make(map[string]*lane, len(names))
	for _, name := range names {
		p, err := pool.Planner(name)
		if err != nil {
			return nil, fmt.Errorf("gateway: %w", err)
		}
		labels := []telemetry.Label{{Key: "device", Value: name}}
		l := &lane{
			device:  name,
			planner: p,
			permits: make(chan struct{}, g.laneWorkers),
			shedQueue: reg.CounterWith("netcut_gateway_shed_queue_full_total",
				"requests shed because the device's admission lane was full", labels),
		}
		reg.GaugeFuncWith("netcut_gateway_queue_depth",
			"requests waiting in the device's admission lane", labels,
			func() float64 { return float64(l.waiting.Load()) })
		l.panics = reg.CounterWith("netcut_gateway_panics_total",
			"planner panics recovered at the execution boundary", labels)
		l.unhealthyGauge = reg.GaugeWith("netcut_gateway_device_unhealthy",
			"1 while the device is tripped unhealthy, 0 while it is serving", labels)
		l.probes = reg.CounterWith("netcut_gateway_probes_total",
			"health probe plans attempted against an unhealthy device", labels)
		g.lanes[name] = l
	}

	// Per-stage latency histograms, pre-registered for every device plus
	// the "none" pseudo-device. Only the clock-bounded stages get series;
	// the admission gates record zero-duration verdict spans in traces,
	// not histogram mass. A request refused before routing (decode
	// error, drain, quarantine) records only decode and deliver, so
	// "none" carries just those two.
	registerStages := func(dev string, stages []string) map[string]*telemetry.Histogram {
		byStage := make(map[string]*telemetry.Histogram, len(stages))
		for _, st := range stages {
			byStage[st] = reg.HistogramWith("netcut_gateway_stage_ms",
				"per-stage latency of plan requests, carved from request traces at completion", nil,
				[]telemetry.Label{{Key: "stage", Value: st}, {Key: "device", Value: dev}})
		}
		return byStage
	}
	for _, name := range names {
		g.lanes[name].stages = registerStages(name, timedStages)
	}
	g.stagesNone = registerStages(stageDeviceNone, []string{stageDecode, stageDeliver})

	g.mux = http.NewServeMux()
	g.mux.HandleFunc("POST /v1/plan", g.handlePlan)
	g.mux.HandleFunc("GET /v1/devices", g.handleDevices)
	g.mux.HandleFunc("GET /metrics", g.handleMetrics)
	g.mux.HandleFunc("GET /debug/stats", g.handleStats)
	g.mux.HandleFunc("POST /v1/state/save", g.handleStateSave)
	g.mux.HandleFunc("GET /debug/trace", g.handleTrace)
	g.mux.HandleFunc("GET /debug/requests", g.handleRequests)
	if cfg.Pprof {
		// Opt-in profiling handlers on the gateway mux itself, so one
		// listener serves planning, metrics and profiles; pprof.Index
		// dispatches the named sub-profiles (heap, goroutine, ...).
		g.mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		g.mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		g.mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		g.mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		g.mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	}
	g.mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	g.mux.HandleFunc("GET /readyz", g.handleReady)

	if cfg.AutosaveInterval > 0 {
		g.goBackground(g.autosaveLoop)
	}
	return g, nil
}

// MarkReady flips GET /readyz to 200. The embedder calls it once boot
// work — state restore in cmd/netserve — has completed, so a load
// balancer doesn't route traffic to a replica still rebuilding warmth.
func (g *Gateway) MarkReady() { g.ready.Store(true) }

// handleReady is readiness, distinct from liveness: not-ready before
// MarkReady and again once draining, while /healthz stays 200 for as
// long as the process serves at all.
func (g *Gateway) handleReady(w http.ResponseWriter, _ *http.Request) {
	g.mu.Lock()
	draining := g.draining
	g.mu.Unlock()
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if g.ready.Load() && !draining {
		fmt.Fprintln(w, "ready")
		return
	}
	w.Header().Set("Retry-After", retryAfterSeconds(g.drainRemainingMs()))
	w.WriteHeader(http.StatusServiceUnavailable)
	fmt.Fprintln(w, "not ready")
}

// Handler returns the gateway's HTTP surface: POST /v1/plan,
// GET /v1/devices, GET /metrics, GET /debug/stats, GET /debug/trace,
// GET /debug/requests, GET /healthz, GET /readyz — plus
// GET /debug/pprof/ when Config.Pprof is set.
func (g *Gateway) Handler() http.Handler { return g.mux }

// Planner exposes the default target's planning service (for embedding
// the gateway and the planner API in one process).
func (g *Gateway) Planner() *serve.Planner { return g.pool.Default() }

// Pool exposes the device-keyed planner pool behind the gateway.
func (g *Gateway) Pool() *serve.PlannerPool { return g.pool }

// Registry exposes the telemetry registry, so embedders can add their
// own series next to the gateway's.
func (g *Gateway) Registry() *telemetry.Registry { return g.reg }

// Shutdown drains the gateway: new plan requests are rejected with 503,
// every already-admitted call runs to completion and delivers its
// response, then the background loops — autosave, prewarm, health
// probes — wind down, so no save is left mid-write and
// no temp file is left behind. Safe to call more than once — concurrent
// and repeated callers all wait on the same drain, so nil always means
// "fully drained". The context bounds each caller's wait.
func (g *Gateway) Shutdown(ctx context.Context) error {
	g.mu.Lock()
	if !g.draining {
		g.draining = true
		// Record when the drain budget runs out — the context deadline
		// if the first caller carries one, Config.DrainTimeout
		// otherwise — so every drain-time rejection can report the
		// honest remaining budget as its Retry-After.
		deadline := time.Now().Add(g.cfg.DrainTimeout)
		if d, ok := ctx.Deadline(); ok {
			deadline = d
		}
		g.drainDeadline.Store(deadline.UnixNano())
		close(g.stop) // background loops see the drain without polling
		g.drainDone = make(chan struct{})
		go func() {
			g.pending.Wait() // all admitted calls delivered
			g.background.Wait()
			close(g.drainDone)
		}()
	}
	done := g.drainDone
	g.mu.Unlock()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// goBackground runs fn on a drain-tracked goroutine: Shutdown waits for
// it, and once draining has begun no new background work can start (the
// drain goroutine may already be past background.Wait). Returns whether
// fn was started.
func (g *Gateway) goBackground(fn func()) bool {
	g.mu.Lock()
	if g.draining {
		g.mu.Unlock()
		return false
	}
	g.background.Add(1)
	g.mu.Unlock()
	go func() {
		defer g.background.Done()
		fn()
	}()
	return true
}

// writeJSONHeader sends the header of every JSON answer: Retry-After
// from a positive retryAfterMs, the content type and the status.
func writeJSONHeader(w http.ResponseWriter, status int, retryAfterMs float64) {
	if retryAfterMs > 0 {
		w.Header().Set("Retry-After", retryAfterSeconds(retryAfterMs))
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
}

func writeJSON(w http.ResponseWriter, status int, body []byte) {
	writeJSONHeader(w, status, 0)
	w.Write(body)
}

func (g *Gateway) writeErr(w http.ResponseWriter, e *apiError) {
	writeJSONHeader(w, e.status, e.wire.RetryAfterMs)
	w.Write(e.body())
}

// retryAfterSeconds renders a retry hint in milliseconds as a
// Retry-After header value: rounded up to whole seconds and clamped to
// at least 1 — the header's unit is seconds, and 0 would invite an
// immediate, pointless retry. Every ms-to-seconds conversion for the
// header goes through here.
func retryAfterSeconds(ms float64) string {
	s := int64(math.Ceil(ms / 1000))
	if s < 1 {
		s = 1
	}
	return strconv.FormatInt(s, 10)
}

// drainRemainingMs is the remaining drain budget in milliseconds, the
// honest Retry-After for drain-time rejections: how long until this
// listener is gone and a retry will land on a live peer. Clamped to at
// least one second; before any drain has started (boot-time
// not-ready) the floor applies.
func (g *Gateway) drainRemainingMs() float64 {
	dl := g.drainDeadline.Load()
	if dl == 0 {
		return 1000
	}
	ms := float64(time.Until(time.Unix(0, dl))) / float64(time.Millisecond)
	if ms < 1000 {
		return 1000
	}
	return ms
}

// handlePlan is the admission path described in the package comment,
// threaded through a request trace: every stage below marks a span on
// tr, the trace ID rides out in the X-Netcut-Trace header and the
// trace_id body field, and finishTrace files the completed record.
// Tracing is observability only — it never changes a response byte.
func (g *Gateway) handlePlan(w http.ResponseWriter, r *http.Request) {
	g.requests.Inc()
	start := time.Now()
	tr := trace.Start(g.ids.Next(), start)
	g.live.Add(tr)
	w.Header().Set(TraceHeader, tr.ID())

	body := r.Body
	if g.cfg.MaxBodyBytes > 0 {
		body = http.MaxBytesReader(w, r.Body, g.cfg.MaxBodyBytes)
	}
	dec, aerr := decodeRequest(body)
	var c *call
	var resident []byte
	if aerr != nil {
		tr.Mark(stageDecode, "error")
		g.rejected.Inc()
	} else {
		tr.SetRequest(dec.key.name, dec.target)
		tr.Mark(stageDecode, verdictOK)
		c, resident, aerr = g.admit(dec, tr)
	}
	if aerr != nil {
		g.writePlanTraced(w, tr, aerr.status, aerr.body(), aerr.wire.Code, aerr.wire.RetryAfterMs)
		return
	}
	// A resident answer's rendered body short-circuited lane, planner
	// and wire-marshal; it is counted by netcut_gateway_resident_total,
	// distinct from planner executions. Otherwise a leader runs its own
	// pass and comes back with c delivered, unless its client left while
	// the call waited for a permit.
	status, out := http.StatusOK, resident
	if resident == nil {
		if dec.lead && !g.lead(r.Context(), c, func() { g.finishCancelled(tr, start) }) {
			return
		}
		select {
		case <-c.done:
			// The leader published the call's execution timeline before
			// closing done; carve it into queue-wait / exec / encode spans.
			stitchCallSpans(tr, c)
			status, out = c.status, c.body
		case <-r.Context().Done():
			// The client went away. If other waiters remain, the execution
			// keeps running for them (its result is cached work, not waste);
			// if this was the last waiter, the leader cancels the call when
			// it gets its permit, before it consumes a planner execution.
			c.waiters.Add(-1)
			g.finishCancelled(tr, start)
			return
		}
	}
	if dec.degradedReason != "" && status == http.StatusOK {
		// The degraded markers are this response's, not the call's: the
		// canonical body (shared with coalesced waiters and the resident
		// step) stays clean, like the trace ID.
		out = injectDegraded(out, dec.degradedReason)
	}
	// Every answer, resident or delivered, counts as an admitted request
	// in the latency histogram.
	end := g.writePlanTraced(w, tr, status, out, verdictOK, 0)
	g.requestLatMs.Observe(float64(end.Sub(start)) / float64(time.Millisecond))
}

// finishCancelled closes the trace of a request whose client left
// before delivery. The cancellation is still a request with a latency —
// recorded in its own histogram, so delivered-request p99s aren't
// survivorship-biased by the clients who gave up.
func (g *Gateway) finishCancelled(tr *trace.Trace, start time.Time) {
	now := tr.Mark(stageDeliver, "disconnected")
	g.cancelledLatMs.Observe(float64(now.Sub(start)) / float64(time.Millisecond))
	g.finishTrace(tr, statusClientClosed, now)
}

// admit is the admission pipeline of one decoded request: it returns
// either a rendered body (a resident answer) or the call to wait on.
// The gate order of the package comment is written out once — the
// drain and quarantine gates here, then resolve, then gates — and a
// degraded fallback re-enters gates rather than copying it.
func (g *Gateway) admit(dec *decodedRequest, tr *trace.Trace) (*call, []byte, *apiError) {
	g.mu.Lock()
	defer g.mu.Unlock()

	if g.draining {
		tr.Mark(stageDrain, "draining")
		g.shedDraining.Inc()
		e := errf(http.StatusServiceUnavailable, "draining", "gateway is draining")
		e.wire.RetryAfterMs = g.drainRemainingMs()
		return nil, nil, e
	}
	// One clock read covers the whole gate run-up (including any wait
	// for the gateway mutex); the later gates record zero-duration
	// verdict spans at this timestamp — their decisions take
	// nanoseconds, and what matters is which gate refused, not a
	// duration below the clock's resolution.
	tr.Mark(stageDrain, verdictOK)
	// Quarantine gate: a request identity that already crashed planner
	// passes quarantineAfter times is rejected here, before it can touch
	// a permit — containment of a poison graph must not cost a lane per
	// retry. The key ignores the device (a graph that panics the trim
	// layer panics it on every target), so the gate runs before target
	// resolution.
	if n, ok := g.quarantine.Get(quarantineKey(dec.key)); ok && n.Load() >= quarantineAfter {
		tr.MarkZero(stageQuarantine, "quarantined")
		g.quarantined.Inc()
		return nil, nil, errf(http.StatusInternalServerError, "quarantined",
			"this request previously crashed %d planner passes and is quarantined", n.Load())
	}
	tr.MarkZero(stageQuarantine, verdictOK)

	dev, c, e := g.resolve(dec, tr)
	if c != nil || e != nil {
		return c, nil, e
	}
	return g.gates(dec, dev, tr)
}

// resolve turns the request's target spelling into one device: "" is
// the default device, any other name must be registered (400
// unknown_device otherwise), and "auto" routes to the fastest eligible
// device whose estimated warm-path latency fits the budget — the budget
// gate then skips it, since re-checking could shed a request Route just
// qualified. Resolution decides where an execution runs, never what it
// returns: the device joins the coalescing key, so an auto-routed body
// is byte-identical to the same request naming the device explicitly.
//
// When no device qualifies for "auto", an identical execution already
// in flight on any eligible device still serves the request at zero
// planner cost (returned as the call to wait on). Failing that, an
// empty eligible set is the fleet-down 503, and otherwise the request
// degrades if it opted in and is shed with 429 if not.
func (g *Gateway) resolve(dec *decodedRequest, tr *trace.Trace) (string, *call, *apiError) {
	if dec.target != "auto" {
		dev := dec.target
		if dev == "" {
			dev = g.pool.Default().DeviceName()
		}
		if _, err := g.pool.Planner(dev); err != nil {
			tr.MarkZero(stageRoute, "unknown")
			g.rejected.Inc()
			return "", nil, errf(http.StatusBadRequest, "unknown_device", "%v", err)
		}
		tr.MarkZero(stageRoute, dev)
		return dev, nil, nil
	}
	dev, est, ok := g.pool.Route(dec.budgetMs, shedMinSamples, g.deviceEligible)
	if ok {
		g.autoRouted.Inc()
		tr.Mark(stageRoute, dev)
		return dev, nil, nil
	}
	tr.Mark(stageRoute, "none")
	for _, name := range g.pool.DeviceNames() {
		k := dec.key
		k.device = name
		if c, inFlight := g.inflight[k]; inFlight && g.deviceEligible(name) {
			g.coalesced.Inc()
			c.waiters.Add(1)
			tr.SetDevice(name)
			tr.MarkZero(stageCoalesce, "follower")
			return "", c, nil
		}
	}
	// Route reports +Inf exactly when the eligible set was empty.
	if math.IsInf(est, 1) {
		return "", nil, g.fleetDown(tr)
	}
	if dec.allowDegraded {
		dev, e := g.fallback(dec, degradedBudget, tr)
		return dev, nil, e
	}
	tr.MarkZero(stageShed, "budget")
	g.shedBudget.Inc()
	e := errf(http.StatusTooManyRequests, "budget_too_small",
		"budget %.3f ms is below every device's estimated warm-path latency (fastest: %.3f ms)",
		dec.budgetMs, est)
	e.wire.RetryAfterMs = est
	return "", nil, e
}

// gates runs the per-device gates on a resolved device, each exactly
// once, in the package comment's order: health, resident, coalesce,
// budget, enqueue. A health or budget refusal of a request
// that opted into allow_degraded, and has not degraded yet, is not
// applied — no verdict, no shed counter — and the request degrades
// instead.
func (g *Gateway) gates(dec *decodedRequest, dev string, tr *trace.Trace) (*call, []byte, *apiError) {
	mayDegrade := dec.allowDegraded && dec.degradedReason == ""
	dec.key.device = dev
	tr.SetDevice(dev)

	if !g.deviceEligible(dev) {
		if mayDegrade {
			return g.degrade(dec, degradedUnhealthy, tr)
		}
		tr.MarkZero(stageHealth, "unhealthy")
		return nil, nil, g.unhealthyErr(dev)
	}
	tr.MarkZero(stageHealth, verdictOK)

	// A resident answer comes after the drain, quarantine and health
	// gates (a refused request is refused whether or not its step is
	// resident) and before every shed: the staircase step's body was
	// rendered once from a completed response, and it fits any budget.
	// It also serves the stragglers of a pass: climb publishes the
	// accepted step before Select returns, so before deliver removes
	// the in-flight entry, and an identical request that finds no
	// entry to join finds the step here.
	l := g.lanes[dev]
	if a, ok := l.planner.Resident(dec.req); ok {
		body := a.Body(EncodeResponse)
		g.residentCounter(l).Inc()
		tr.Mark(stageResident, "hit")
		return nil, body, nil
	}
	tr.MarkZero(stageResident, "miss")

	// Coalesce before shedding: joining an in-flight execution consumes
	// no planner work. The join increments waiters under the gateway
	// mutex — the same lock cancellation holds — so a call can never be
	// cancelled between being found here and being waited on.
	if c, ok := g.inflight[dec.key]; ok {
		g.coalesced.Inc()
		c.waiters.Add(1)
		tr.MarkZero(stageCoalesce, "follower")
		return c, nil, nil
	}
	tr.MarkZero(stageCoalesce, "leader")

	// Budget gate: if the client's budget cannot cover the warm p99,
	// queueing only manufactures a guaranteed-late response. "auto"
	// already applied it in Route; a degraded request opted into
	// lateness.
	if dec.budgetMs > 0 && dec.target != "auto" && dec.degradedReason == "" {
		p99, samples := l.planner.WarmQuantile(0.99)
		if samples >= shedMinSamples && dec.budgetMs < p99 {
			if mayDegrade {
				return g.degrade(dec, degradedBudget, tr)
			}
			tr.MarkZero(stageShed, "budget")
			g.shedBudget.Inc()
			e := errf(http.StatusTooManyRequests, "budget_too_small",
				"budget %.3f ms is below device %s's estimated warm-path latency of %.3f ms",
				dec.budgetMs, dev, p99)
			e.wire.RetryAfterMs = p99
			return nil, nil, e
		}
	}
	tr.MarkZero(stageShed, verdictOK)

	c := &call{key: dec.key, req: dec.req, lane: l, done: make(chan struct{})}
	// The planner reports its internal phase timings (measure /
	// estimate / explore) into the call, where every coalesced waiter's
	// trace picks them up after delivery. Observability only: the
	// callback cannot influence the response, and it is not part of the
	// coalescing identity (dec.key was computed before it existed).
	c.req.Trace = c.notePhase
	c.waiters.Store(1) // the leader
	// Only admission, under g.mu, adds to a lane's waiting room, and a
	// leader leaves it only for a permit, so the room checked here is
	// still there when the leader is counted in. The enqueue mark comes
	// first: the queue-wait span stitched in after delivery begins at
	// it, before the leader can take a permit and start its pass.
	if int(l.waiting.Load()) >= g.laneQueueCap {
		tr.Mark(stageEnqueue, "full")
		l.shedQueue.Inc()
		e := errf(http.StatusTooManyRequests, "queue_full",
			"admission lane of %d for device %s is full", g.laneQueueCap, l.device)
		// A full lane means a backlog of whole execution waves stands
		// between this client and service: ceil(backlog / permits)
		// passes of roughly p99 each.
		p99, _ := l.planner.WarmQuantile(0.99)
		e.wire.RetryAfterMs = math.Max(laneWaves(int(l.waiting.Load()), g.laneWorkers)*p99, 1)
		return nil, nil, e
	}
	tr.Mark(stageEnqueue, verdictOK)
	g.inflight[dec.key] = c
	g.pending.Add(1)
	l.waiting.Add(1)
	dec.lead = true
	return c, nil, nil
}

// degrade is the allow_degraded exit of the health and budget gates:
// fall back, then run the gates once more on the fallback device.
func (g *Gateway) degrade(dec *decodedRequest, reason string, tr *trace.Trace) (*call, []byte, *apiError) {
	dev, e := g.fallback(dec, reason, tr)
	if e != nil {
		return nil, nil, e
	}
	return g.gates(dec, dev, tr)
}

// fallback picks a degraded request's device: the fastest eligible one,
// by the same unbudgeted ranking an explicit Route would use, so the
// body is byte-identical to the explicit spelling of that device; the
// response is marked degraded at write time.
func (g *Gateway) fallback(dec *decodedRequest, reason string, tr *trace.Trace) (string, *apiError) {
	dev, _, ok := g.pool.Fastest(shedMinSamples, g.deviceEligible)
	if !ok {
		return "", g.fleetDown(tr)
	}
	dec.degradedReason = reason
	g.degradedServed.Inc()
	tr.MarkZero(stageDegraded, reason)
	return dev, nil
}

// deviceEligible is the health predicate "auto" routing and explicit
// admission share: a device is eligible unless its containment state
// has tripped unhealthy. Health, like the rest of admission, decides
// where executions run, never what they return. Every caller passes a
// registered device name.
func (g *Gateway) deviceEligible(name string) bool {
	return !g.lanes[name].unhealthy.Load()
}

// unhealthyErr is the 503 an explicit request for a tripped device
// receives; Retry-After carries the probe cadence, the soonest the
// device could come back.
func (g *Gateway) unhealthyErr(name string) *apiError {
	e := errf(http.StatusServiceUnavailable, "device_unhealthy",
		"device %s is unhealthy after repeated containment events; a background probe will restore it", name)
	e.wire.RetryAfterMs = float64(probeInterval) / float64(time.Millisecond)
	return e
}

// fleetDown is the 503 for a fleet with no eligible device: nothing to
// route or degrade onto until a background probe restores one.
func (g *Gateway) fleetDown(tr *trace.Trace) *apiError {
	tr.MarkZero(stageHealth, "no_healthy_device")
	e := errf(http.StatusServiceUnavailable, "no_healthy_device",
		"every registered device is unhealthy; background probes are running")
	e.wire.RetryAfterMs = float64(probeInterval) / float64(time.Millisecond)
	return e
}

// quarantineKey is a call's panic-attribution identity: the coalesce
// key with the device cleared, because a poison structure is poison on
// every target.
func quarantineKey(k coalesceKey) coalesceKey {
	k.device = ""
	return k
}

// lead runs a leader's call on the leader's handler goroutine, one
// request per planner pass: it waits in the lane for a permit, leaves
// the waiting room, cancels the call if nobody waits for it anymore or
// runs the pass, and releases the permit. Permits never cross lanes, so
// a cold plan here cannot delay any other device's traffic.
//
// A leader whose client leaves while it waits drops its waiter count
// and calls leave, which closes its request's trace. With no waiter
// left the call is cancelled at once; otherwise the leader still takes
// a permit and runs the pass for its followers. lead reports whether
// the leader's client was still there at the permit.
func (g *Gateway) lead(ctx context.Context, c *call, leave func()) bool {
	l, stayed := c.lane, true
	select {
	case l.permits <- struct{}{}:
	case <-ctx.Done():
		stayed = false
		c.waiters.Add(-1)
		leave()
		if g.tryCancel(c) {
			l.waiting.Add(-1)
			return false
		}
		l.permits <- struct{}{}
	}
	l.waiting.Add(-1)
	if !g.tryCancel(c) {
		g.execute(c)
	}
	<-l.permits
	return stayed
}

// tryCancel retires a waiting call whose waiters have all disconnected.
// The decision is made under the gateway mutex — the lock coalesce
// joins hold — so a join either lands before the final check (and keeps
// the call alive) or finds the key already gone from inflight and
// starts a fresh execution. A cancelled call never reaches a planner:
// the acceptance criterion is that it costs zero executions.
func (g *Gateway) tryCancel(c *call) bool {
	if c.waiters.Load() > 0 {
		return false
	}
	g.mu.Lock()
	if c.waiters.Load() > 0 { // a join landed between the two checks
		g.mu.Unlock()
		return false
	}
	delete(g.inflight, c.key)
	g.mu.Unlock()
	g.cancelled.Inc()
	close(c.done) // no reader remains
	g.pending.Done()
	return true
}

// passResult is one planner pass's outcome, including a recovered
// panic.
type passResult struct {
	resp     *serve.Response
	err      error
	panicked bool
	pval     any
	stack    []byte
}

// runPass executes one planner pass with the panic boundary. A panic
// anywhere under Select — trim, profiler, estimator — is contained
// here: every mutex on the planning path releases by defer, and the
// caches only ever hold completed values, so the planner stays
// serviceable after the unwind. A panic raised inside a par fan-out
// arrives wrapped in a *par.TaskPanic; the result carries the original
// value and the stack of the goroutine that panicked, so the log names
// the panic site rather than par's re-raise.
func runPass(p *serve.Planner, req serve.Request) (res passResult) {
	defer func() {
		if r := recover(); r != nil {
			res.panicked = true
			res.pval, res.stack = r, debug.Stack()
			if tp, ok := r.(*par.TaskPanic); ok {
				res.pval, res.stack = tp.Value, tp.Stack
			}
		}
	}()
	res.resp, res.err = p.Select(req)
	return res
}

// execute runs one call as a planner pass on its device's planner,
// inline behind the panic boundary, and delivers the outcome.
// Two clock reads bracket the pass; waiters stitch the window into
// their traces as the exec span after done closes.
func (g *Gateway) execute(c *call) {
	if hook := g.testHookPass; hook != nil {
		hook(c.lane.device)
	}
	c.execStartAt = time.Now()
	res := runPass(c.lane.planner, c.req)
	c.execEndAt = time.Now()
	if res.panicked {
		g.deliverPanic(c, res)
		return
	}
	deviceOK(c.lane)
	g.deliverResult(c, res.resp, res.err)
}

// deliverResult publishes a completed execution's response (success or
// structured planner error) to a call.
func (g *Gateway) deliverResult(c *call, resp *serve.Response, err error) {
	if err != nil {
		g.planErrors.Inc()
		e := planError(err)
		g.deliver(c, e.status, e.body())
		return
	}
	encStart := time.Now()
	body := EncodeResponse(resp)
	c.encodeDur = time.Since(encStart)
	g.deliver(c, http.StatusOK, body)
}

// deliverPanic converts a recovered planner panic into a structured 500
// for exactly the call that caused it, records the containment — the
// per-device panic counter, the quarantine count for the request
// identity, the health state — and logs the stack once to stderr.
func (g *Gateway) deliverPanic(c *call, res passResult) {
	dev := c.lane.device
	c.lane.panics.Inc()
	g.notePanicKey(c.key)
	g.deviceFault(c.lane)
	fmt.Fprintf(os.Stderr, "gateway: contained planner panic for %q on %s: %v\n%s",
		c.key.name, dev, res.pval, res.stack)
	e := errf(http.StatusInternalServerError, "internal_panic",
		"planner panicked serving this request on %s; the panic was contained and the lane keeps serving", dev)
	g.deliver(c, e.status, e.body())
}

// notePanicKey bumps a request identity's panic count in the bounded
// quarantine LRU. Add has LoadOrStore semantics, so concurrent bumps
// share one canonical counter.
func (g *Gateway) notePanicKey(k coalesceKey) {
	n := g.quarantine.Add(quarantineKey(k), new(atomic.Int64))
	n.Add(1)
}

// deviceFault marks one containment event (a panic) against a device;
// unhealthyAfter consecutive events trip it unhealthy and start the
// probe loop that will restore it.
func (g *Gateway) deviceFault(l *lane) {
	if l.consecutive.Add(1) >= unhealthyAfter && l.unhealthy.CompareAndSwap(false, true) {
		l.unhealthyGauge.Set(1)
		g.goBackground(func() { g.probeLoop(l) })
	}
}

// deviceOK resets a device's consecutive-fault count after a successful
// execution. The unhealthy flag itself is only cleared by a probe, so
// recovery is observable as exactly one transition.
func deviceOK(l *lane) {
	l.consecutive.Store(0)
}

// probeLoop probes an unhealthy device with one real plan per
// probeInterval until a probe succeeds (restoring the device) or
// the gateway drains. The probe is a prewarm-style zoo plan against the
// device's planner directly — real planner work, so a success is
// evidence the target actually serves again, not just that the process
// is alive.
func (g *Gateway) probeLoop(l *lane) {
	for {
		if !g.sleep(probeInterval) {
			return
		}
		if hook := g.testHookProbe; hook != nil {
			hook(l.device)
		}
		l.probes.Inc()
		if zooPlan(l.planner, zoo.Paper7()[0]) {
			l.consecutive.Store(0)
			l.unhealthy.Store(false)
			l.unhealthyGauge.Set(0)
			return
		}
	}
}

// planError maps a planner error to an HTTP status: admission conflicts
// (a name already bound to a different structure) are the client's 409;
// anything else is a 422 — the request was well-formed but could not be
// planned.
func planError(err error) *apiError {
	if errors.Is(err, serve.ErrNameBound) {
		return errf(http.StatusConflict, "name_conflict", "%v", err)
	}
	return errf(http.StatusUnprocessableEntity, "plan_failed", "%v", err)
}

// deliver publishes a call's response and retires its coalescing key:
// it writes the response fields, closes done (the happens-before edge
// every waiter reads through) and releases the pending count. Only the
// leader holding the call calls it, once.
func (g *Gateway) deliver(c *call, status int, body []byte) {
	g.mu.Lock()
	delete(g.inflight, c.key)
	g.mu.Unlock()
	c.status, c.body = status, body
	close(c.done)
	g.pending.Done()
}

// SaveState snapshots every planner's warm state (see
// serve.PlannerPool.SaveState). Safe to call while serving.
func (g *Gateway) SaveState(w io.Writer) error { return g.pool.SaveState(w) }

// LoadState restores a snapshot into the pool's caches (see
// serve.PlannerPool.LoadState). Call it on boot, before traffic —
// restoring under load is safe (caches are add-only and transparent)
// but wastes the work of any cold plans already in flight.
func (g *Gateway) LoadState(r io.Reader) error { return g.pool.LoadState(r) }

// SaveStateFile writes the pool snapshot to Config.StatePath atomically
// (unique temp file, synced, then renamed, so a crash mid-write never
// leaves a torn file — the decoder would reject one anyway, but the
// previous good snapshot is worth keeping), rotating the previous
// snapshot to StatePath+".bak" first so one known-good generation
// always survives a save that lands corrupt. A failed write or sync
// fails the save: the temp file is removed and the previous snapshot
// stands. Saves are serialized under a mutex:
// concurrent POST /v1/state/save calls each write their own temp file,
// but interleaving the renames is pointless work, and the lock keeps
// the "last save wins" ordering trivially true. It returns the
// snapshot size in bytes.
func (g *Gateway) SaveStateFile() (int64, error) {
	if g.cfg.StatePath == "" {
		return 0, fmt.Errorf("gateway: no state path configured")
	}
	g.saveMu.Lock()
	defer g.saveMu.Unlock()
	f, err := os.CreateTemp(filepath.Dir(g.cfg.StatePath), filepath.Base(g.cfg.StatePath)+".tmp*")
	if err != nil {
		return 0, err
	}
	tmp := f.Name()
	err = faultinject.Error(faultinject.SnapshotWrite, g.cfg.StatePath)
	if err == nil {
		err = g.pool.SaveState(f)
	}
	if err != nil {
		f.Close()
		os.Remove(tmp)
		return 0, err
	}
	size, err := f.Seek(0, io.SeekCurrent)
	if faultinject.Fire(faultinject.StateCorrupt, g.cfg.StatePath) {
		// Torn-write simulation: stomp the envelope header so the decoder
		// must reject this generation and restore falls back to .bak.
		f.WriteAt([]byte("\x00CORRUPT\x00"), 0)
	}
	// Sync before the rename: without it a power cut could leave the
	// new name pointing at data the disk never received.
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmp)
		return 0, err
	}
	// Best-effort rotation: keep the previous good snapshot as .bak. A
	// missing primary (first save) or a rotation error never fails the
	// save — the new generation is strictly better than nothing.
	if _, serr := os.Stat(g.cfg.StatePath); serr == nil {
		os.Rename(g.cfg.StatePath, g.cfg.StatePath+".bak")
	}
	if err := os.Rename(tmp, g.cfg.StatePath); err != nil {
		os.Remove(tmp)
		return 0, err
	}
	g.stateSaves.Inc()
	return size, nil
}

// LoadStateFile restores the pool's warm state from Config.StatePath,
// falling back to the ".bak" previous-good generation when the primary
// is missing, torn, or from a different build (the snapshot codec
// verifies magic, version and checksum before applying anything, so a
// rejected file restores nothing). It returns the path actually
// restored; when both generations fail, the primary's error.
func (g *Gateway) LoadStateFile() (string, error) {
	if g.cfg.StatePath == "" {
		return "", fmt.Errorf("gateway: no state path configured")
	}
	primaryErr := g.loadFrom(g.cfg.StatePath)
	if primaryErr == nil {
		return g.cfg.StatePath, nil
	}
	bak := g.cfg.StatePath + ".bak"
	if err := g.loadFrom(bak); err == nil {
		g.restoreFallbck.Inc()
		return bak, nil
	}
	return "", primaryErr
}

func (g *Gateway) loadFrom(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return g.pool.LoadState(f)
}

// autosaveLoop is the crash-safety loop behind Config.AutosaveInterval:
// it snapshots warm state on a jittered cadence until the drain starts.
// Jitter is ±10%, deterministic from the planner seed — replicas of a
// fleet started together don't write in lockstep, yet a fixed seed
// reproduces the schedule.
func (g *Gateway) autosaveLoop() {
	rng := rand.New(rand.NewSource(g.cfg.Planner.Seed))
	for {
		jittered := time.Duration(float64(g.cfg.AutosaveInterval) * (0.9 + 0.2*rng.Float64()))
		if !g.sleep(jittered) {
			return
		}
		if _, err := g.SaveStateFile(); err != nil {
			g.autosaveErrors.Inc()
			fmt.Fprintf(os.Stderr, "gateway: autosave failed (previous snapshot stands): %v\n", err)
		} else {
			g.autosaves.Inc()
		}
	}
}

// handleStateSave is the admin endpoint behind POST /v1/state/save:
// it persists the pool's warm state to the configured StatePath. The
// endpoint is gated on that configuration — a gateway without a state
// path (the default) exposes no way to make the daemon write files.
func (g *Gateway) handleStateSave(w http.ResponseWriter, _ *http.Request) {
	if g.cfg.StatePath == "" {
		g.writeErr(w, errf(http.StatusNotFound, "state_disabled",
			"state persistence is not configured (start with a state path to enable)"))
		return
	}
	size, err := g.SaveStateFile()
	if err != nil {
		g.writeErr(w, errf(http.StatusInternalServerError, "state_save_failed", "%v", err))
		return
	}
	b, _ := json.Marshal(map[string]any{"path": g.cfg.StatePath, "bytes": size})
	writeJSON(w, http.StatusOK, append(b, '\n'))
}

// Prewarm plans the calibrated zoo on every registered device in the
// background, so steady-state traffic never sees a cold miss for a
// known architecture. The sweep fans out with par.ForEach, one task
// per device (GOMAXPROCS devices at a time), and each task plans the
// zoo on its own device in zoo order. It runs at low priority —
// against the planners directly, bypassing the lanes so it can never
// occupy a waiting-room slot or a permit — and stops early if the
// gateway starts draining. Prewarming is pure cache warming: every
// value it computes is one a request would compute identically, so it
// shifts cold costs off the request path without changing any
// response; two devices cutting the same parent at once through the
// shared cut cache compute the same cut. The returned channel closes
// when the sweep finishes (or aborts on drain);
// netcut_gateway_prewarmed_total counts completed plans.
func (g *Gateway) Prewarm() <-chan struct{} {
	done := make(chan struct{})
	started := g.goBackground(func() {
		defer close(done)
		names := g.pool.DeviceNames()
		par.ForEach(len(names), func(i int) error {
			g.prewarmDevice(g.lanes[names[i]].planner)
			return nil
		})
	})
	if !started { // already draining: nothing to warm
		close(done)
	}
	return done
}

// prewarmDevice is one device's share of the Prewarm sweep: the zoo in
// zoo order, re-checking the drain and the load level before each
// plan.
func (g *Gateway) prewarmDevice(p *serve.Planner) {
	for _, net := range zoo.Paper7() {
		select {
		case <-g.stop:
			return
		default:
		}
		// Prewarming is the most optional work there is: any brownout
		// pauses the sweep until the level clears (it resumes where it
		// left off; drain still aborts it).
		for g.level() >= levelBrownout {
			if !g.sleep(prewarmPause) {
				return
			}
		}
		if zooPlan(p, net) {
			g.prewarmed.Inc()
		}
	}
}

// zooPlan plans a zoo network for the background paths — prewarm and
// health probes, which run planner work outside a lane — behind the
// lane's panic boundary, so a poison zoo entry cannot crash the
// process from a background goroutine either. It reports success; a
// panic or a planner error is a failure.
func zooPlan(p *serve.Planner, net *graph.Graph) bool {
	res := runPass(p, serve.Request{Graph: net, DeadlineMs: 0.9, Estimator: "profiler"})
	return !res.panicked && res.err == nil
}

func (g *Gateway) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	g.reg.WritePrometheus(w)
}

// handleDevices serves the registered targets in registration order —
// the routing tie-break order, default device first — with each
// target's calibration summary and live planning telemetry.
func (g *Gateway) handleDevices(w http.ResponseWriter, _ *http.Request) {
	names := g.pool.DeviceNames()
	out := make([]DeviceWire, 0, len(names))
	for i, name := range names {
		p := g.lanes[name].planner
		cfg := p.DeviceConfig()
		p99, samples := p.WarmQuantile(0.99)
		if samples < shedMinSamples {
			p99 = 0 // below activation: neither shedding nor ranking reads it
		}
		out = append(out, DeviceWire{
			Name:             cfg.Name,
			Default:          i == 0,
			Healthy:          g.deviceEligible(name),
			Precision:        cfg.Precision.String(),
			PeakMACs:         cfg.PeakMACs,
			MemBandwidth:     cfg.MemBandwidth,
			LaunchOverheadMs: cfg.LaunchOverheadMs,
			Fusion:           cfg.Fusion,
			Executions:       p.Executions(),
			WarmP99Ms:        p99,
		})
	}
	b, err := json.MarshalIndent(map[string]any{"devices": out}, "", "  ")
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	writeJSON(w, http.StatusOK, append(b, '\n'))
}

// handleStats serves the registry snapshot plus per-device planner
// cache stats and resident-answer counts as one JSON document
// ("planner" remains the default target's stats for single-device
// dashboards).
func (g *Gateway) handleStats(w http.ResponseWriter, _ *http.Request) {
	doc := map[string]any{
		"metrics":  g.reg.Snapshot(),
		"planner":  g.pool.Default().Stats(),
		"devices":  g.pool.Stats(),
		"overload": g.overloadStats(),
		"resident": g.residentCounts(),
	}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	writeJSON(w, http.StatusOK, append(b, '\n'))
}

// residentCounter returns the lane's netcut_gateway_resident_total
// series, registering it on the device's first resident answer, so a
// device that never answers from its staircase adds no zero series.
// The registry returns the existing series to a racing registration.
func (g *Gateway) residentCounter(l *lane) *telemetry.Counter {
	if c := l.resident.Load(); c != nil {
		return c
	}
	c := g.reg.CounterWith("netcut_gateway_resident_total",
		"requests answered from a resident staircase step, without a lane or planner pass",
		[]telemetry.Label{{Key: "device", Value: l.device}})
	l.resident.Store(c)
	return c
}

// residentCounts reports the resident answers per device, over every
// registered device.
func (g *Gateway) residentCounts() map[string]uint64 {
	out := make(map[string]uint64, len(g.lanes))
	for dev, l := range g.lanes {
		var n uint64
		if c := l.resident.Load(); c != nil {
			n = c.Value()
		}
		out[dev] = n
	}
	return out
}
