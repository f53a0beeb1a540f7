// Package gateway is the deadline-aware serving layer of NetCut: a
// JSON-over-HTTP planning API on top of a device-keyed
// serve.PlannerPool that routes, admits, coalesces, batches and —
// when the client's own latency budget cannot be met on any target —
// sheds requests, with a telemetry registry exposed in Prometheus text
// format at /metrics and as JSON at /debug/stats.
//
// Request flow: every plan request takes the steps below in this
// order, each once — a degraded request re-runs steps 4 to 8 once on
// its fallback device. The order is written out once, in admit, resolve
// and gates, and the invariants below rely on it.
//
//  1. Decode: the body is size-limited (Config.MaxBodyBytes) and the
//     decoded graph stops at graph.Validate — malformed or oversized
//     input is a structured 400/413, never a panic or an OOM.
//  2. Drain and quarantine: a draining gateway answers 503 with a
//     Retry-After from the remaining drain budget (byte-cache hits
//     stop too); an identity quarantined for repeated planner panics
//     gets a structured 500 — on every target, so before routing.
//  3. Route: the target ("" = default device, a registered name from
//     GET /v1/devices, or "auto" = fastest eligible device whose
//     estimated warm-path latency fits the budget) resolves to one
//     device; an unregistered name is a 400. When no device qualifies
//     for "auto", an identical execution in flight on any eligible
//     device is joined; failing that, no eligible device at all is 503
//     no_healthy_device, and otherwise the request is shed with 429 or
//     degrades (step 9).
//  4. Health: a device tripped unhealthy is 503 device_unhealthy.
//  5. Byte cache: a request whose fully resolved identity (device +
//     calibration, name + structure, deadline, estimator) already has a
//     delivered body in the bounded rendered-response cache
//     (Config.ByteCacheCap) is answered from those bytes — no lane, no
//     planner pass, no wire-marshal — even under a tight budget_ms,
//     since rendered bytes fit any budget. Hits are transparent and are
//     counted by netcut_gateway_bytecache_hits_total, never as planner
//     executions.
//  6. Coalesce: requests with identical (device, name, structure,
//     deadline, estimator) share one in-flight planner execution and
//     receive byte-identical response bodies, singleflight-style, at no
//     planner work and no queue slot.
//  7. Emergency: at load level 2 (see overload.go) a would-be leader
//     is shed with 429 overload_shed.
//  8. Budget: a would-be leader whose budget_ms cannot cover the
//     device's warm-path p99 plus the batching window is shed with 429
//     and a retry hint ("auto" was checked by its route in step 3).
//  9. Degrade: with "allow_degraded": true, a request that step 3's
//     budget check, step 4 or step 8 would refuse is served instead: it
//     falls back to the fastest eligible device and re-enters at step 4
//     there, once, with step 8 skipped. It is counted as degraded,
//     never as shed; with no eligible device left it is 503
//     no_healthy_device.
//  10. Batch: admitted leaders sit in their device's bounded lane — one
//     queue plus workers per registered device, so one slow target's
//     cold plan can never head-of-line-block another target's warm
//     traffic; a full lane sheds with 429. The lane's workers drain
//     bursts, hold the pass open for Config.BatchWindow when staggered
//     arrivals are expected, and group compatible requests (same
//     deadline and estimator) into one SelectBatch planner pass. Lane
//     capacities divide the QueueDepth/Workers totals evenly across
//     devices (minimum 1 each), as the planner pool divides its cache
//     caps.
//
// Shed and refused requests never consume planner work. Shutdown stops
// admission at step 2, lets every queued call finish and deliver, then
// stops every lane's workers and waits for the background loops
// (autosave, prewarm, probes).
//
// Fault containment & graceful degradation: every planner pass runs
// behind a panic boundary — a panicking request gets a structured 500
// (grouped passes retry solo first, so only the poison request pays),
// counted per device, and identities that panic repeatedly are
// quarantined at admission by a bounded LRU. An optional execution
// watchdog (Config.ExecTimeout) abandons stuck passes with a 504 so one
// wedged request cannot stall a lane. Consecutive containment events
// trip a device unhealthy: "auto" routing skips it, explicit requests
// get 503 + Retry-After, and a background probe plan restores it on
// first success. Queued calls whose waiters all disconnect are
// cancelled before they consume a planner execution. An optional
// autosave loop (Config.AutosaveInterval) snapshots warm state
// crash-safely — atomic rename plus one previous-good ".bak" generation
// that LoadStateFile falls back to — and GET /readyz reports readiness
// (restored, not draining) separately from /healthz liveness. Every
// containment decision is admission policy: it moves or refuses
// executions, never changes what any execution returns.
//
// Overload control & degraded serving: a closed-loop controller
// (Config.OverloadInterval) publishes a load level that
// deterministically sheds optional work — down to serving only
// byte-cache hits and coalesce joins at level 2 — each lane's
// execution parallelism adapts by AIMD, and requests may opt into
// degraded fallback routing with "allow_degraded": true. See the
// package comment in overload.go for the ladder and its signals.
//
// Warm-state persistence: POST /v1/state/save (enabled by
// Config.StatePath) snapshots every planner's caches to disk via
// serve.PlannerPool.SaveState, and LoadState restores a snapshot on
// boot, so a restarted daemon's first requests run on the warm path.
// Prewarm plans the calibrated zoo across the fleet in the background
// to eliminate the remaining cold misses.
//
// Determinism contract: routing, coalescing, batching and shedding
// change which executions happen, where and when — never what any
// execution returns. A coalesced or batched response body is
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
	"log/slog"
	"math"
	"math/rand"
	"net/http"
	"net/http/pprof"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"netcut/internal/device"
	"netcut/internal/faultinject"
	"netcut/internal/lru"
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
	// QueueDepth bounds the total admission queue; it is divided evenly
	// across the per-device lanes (minimum 1 each, the pool cache-cap
	// division rule), and arrivals beyond a lane's slice are shed with
	// 429. 0 means DefaultQueueDepth.
	QueueDepth int
	// BatchMax caps how many queued requests one worker drains into a
	// single planner pass. 0 means DefaultBatchMax.
	BatchMax int
	// Workers is the total number of batch workers, divided evenly
	// across the per-device lanes (minimum 1 each) so no device is ever
	// without a worker. 0 means DefaultWorkers.
	Workers int
	// StatePath enables warm-state persistence: POST /v1/state/save
	// atomically writes the pool's snapshot there (and cmd/netserve
	// saves on SIGTERM drain / restores on boot). Empty disables the
	// endpoint.
	StatePath string
	// ShedMinSamples is how many warm executions a target's latency
	// histogram must hold before budget-based shedding (and its warm
	// estimate's participation in "auto" ranking) activates — shedding
	// on a cold estimate would reject half of a fresh server's first
	// clients. 0 means DefaultShedMinSamples.
	ShedMinSamples int
	// ByteCacheCap bounds the rendered-response byte cache: fully
	// delivered 200 bodies, keyed by complete response identity
	// (resolved device + its calibration fingerprint, graph name +
	// structure, deadline, estimator), are served straight from
	// admission — after the drain, quarantine and device-health gates,
	// before queueing — so a repeat request skips its lane, the planner
	// and the wire-marshal. Hits are transparent: responses are pure
	// functions of seed + config, so a hit returns exactly the bytes a
	// fresh execution would render, on or off, at any GOMAXPROCS.
	// 0 means DefaultByteCacheCap; negative disables the cache (tests
	// that exercise the planner's own warm path via repeated requests
	// do this).
	ByteCacheCap int
	// DrainTimeout is the drain budget Shutdown assumes when its
	// context carries no deadline (a context deadline takes
	// precedence), and the basis of the Retry-After hint every
	// drain-time rejection carries: the remaining budget — how long
	// until this listener is gone and a retry lands on a peer — rather
	// than a hardcoded constant. 0 means DefaultDrainTimeout; negative
	// is a configuration error.
	DrainTimeout time.Duration
	// BatchWindow is how long a worker holds a drained burst open for
	// stragglers before executing its planner pass: with socket-
	// staggered bursts, a small window (hundreds of microseconds to a
	// few milliseconds) lets the whole burst coalesce/batch into one
	// pass instead of two or three. 0 (the default) keeps the
	// zero-latency behavior: one cooperative yield, then a
	// non-blocking sweep. Negative is a configuration error.
	BatchWindow time.Duration

	// ExecTimeout is the per-pass execution watchdog: a planner pass
	// still running after this long is abandoned — its calls get a
	// structured 504, the coalesce entries are invalidated and the lane
	// worker moves on, so one stuck request can never wedge a lane. The
	// abandoned goroutine's eventual result is discarded. 0 (the
	// default) disables the watchdog; negative is a configuration
	// error.
	ExecTimeout time.Duration
	// AutosaveInterval enables crash-safe periodic persistence: a
	// background loop snapshots the warm state to StatePath roughly
	// every interval (±10% deterministic jitter, so a fleet of replicas
	// started together doesn't write in lockstep), keeping the previous
	// good snapshot as StatePath+".bak". Requires StatePath; 0 (the
	// default) disables autosaving; negative is a configuration error.
	AutosaveInterval time.Duration
	// UnhealthyAfter is how many consecutive containment events
	// (panics or watchdog abandons) on one device trip it into the
	// unhealthy state, where "auto" routing skips it and explicit
	// requests get 503 + Retry-After until a background probe plan
	// succeeds. 0 means DefaultUnhealthyAfter; negative disables
	// health tracking entirely.
	UnhealthyAfter int
	// ProbeInterval is how often an unhealthy device is probed with one
	// real prewarm-style plan; the first success restores it. 0 means
	// DefaultProbeInterval; negative is a configuration error.
	ProbeInterval time.Duration
	// QuarantineAfter is how many panics one request key may cause
	// before the key is quarantined: further spellings of it are
	// rejected with a structured 500 at admission, without touching a
	// worker, so a poison graph cannot re-crash lanes in a tight
	// retry loop. Quarantined keys live in a small bounded LRU
	// (quarantineCap), so the set cannot grow without bound either.
	// 0 means DefaultQuarantineAfter; negative disables quarantining.
	QuarantineAfter int

	// OverloadInterval is the closed-loop overload controller's sampling
	// cadence: every interval a background sampler folds the signals the
	// process already has — per-lane backlog, warm-p99 drift of observed
	// execution latency, heap and GC-pause gauges — into a discrete load
	// level (0 normal, 1 brownout, 2 emergency) that deterministically
	// disables optional work (see the package comment's "Overload"
	// section). The level is a pure function of the current signals, so
	// it returns to 0 within one interval of the load going away.
	// 0 means DefaultOverloadInterval; negative disables the controller
	// (the level is pinned at 0), mirroring the ByteCacheCap convention.
	OverloadInterval time.Duration
	// HeapLimitBytes arms the controller's memory signals: live heap at
	// or above this limit is an emergency (level 2), at or above 80% of
	// it — or a p99 GC stop-the-world pause over 50ms — a brownout
	// (level 1). 0 (the default) disables both memory signals; negative
	// is a configuration error.
	HeapLimitBytes int64
	// BrownoutQueueFrac and EmergencyQueueFrac are the lane-backlog
	// thresholds of the load ladder, as fractions of a lane's queue
	// capacity: the fullest lane at or past the brownout fraction holds
	// the level at 1, past the emergency fraction at 2. 0 means the
	// defaults (0.5 and 0.9); out of (0, 1] is a configuration error.
	BrownoutQueueFrac  float64
	EmergencyQueueFrac float64

	// SlowTraceMs emits a structured log/slog line (on SlowLog, or the
	// process default logger) for every request whose end-to-end trace
	// exceeds this many milliseconds, with per-stage durations as
	// attributes. 0 (the default) disables slow-trace logging; negative
	// is a configuration error.
	SlowTraceMs float64
	// SlowLog receives the slow-trace lines; nil means slog.Default().
	SlowLog *slog.Logger
	// TraceRingCap bounds the completed-trace ring buffer behind
	// GET /debug/trace (the retained count rounds up to a multiple of
	// the ring's shard count). 0 means DefaultTraceRingCap; negative
	// disables the ring — requests are still traced (header, body
	// trace_id, /debug/requests, stage histograms, slow logging), but
	// completed traces are not retained.
	TraceRingCap int
	// Pprof mounts net/http/pprof's profiling handlers under
	// /debug/pprof/ on the gateway mux. Off by default: the profile
	// endpoints can stall the process (CPU profiles block for their
	// duration), so they are opt-in, next to the always-on /metrics.
	Pprof bool
}

// Defaults for the Config knobs.
const (
	DefaultMaxBodyBytes    = 1 << 20 // 1 MiB: ~10x the largest zoo graph's wire form
	DefaultQueueDepth      = 256
	DefaultBatchMax        = 16
	DefaultWorkers         = 2
	DefaultShedMinSamples  = 64
	DefaultUnhealthyAfter  = 3
	DefaultProbeInterval   = 500 * time.Millisecond
	DefaultQuarantineAfter = 2
	// DefaultByteCacheCap bounds the rendered-response byte cache:
	// bodies are a few hundred bytes, so the default is ~1 MiB of
	// rendered responses — the full zoo x fleet x a generous spread of
	// deadlines stays resident.
	DefaultByteCacheCap = 4096
	// DefaultDrainTimeout matches cmd/netserve's -drain-timeout
	// default: the drain budget assumed when Shutdown's context has no
	// deadline.
	DefaultDrainTimeout = 30 * time.Second
	// DefaultTraceRingCap retains the most recent completed traces for
	// GET /debug/trace: a trace is a few hundred bytes, so the default
	// window costs well under a megabyte while covering several seconds
	// of saturated traffic.
	DefaultTraceRingCap = 512
	// DefaultOverloadInterval is the overload controller's sampling
	// cadence: fast enough that the level tracks a traffic step within
	// ~100ms, slow enough that a tick's few atomic reads never register
	// against the request path.
	DefaultOverloadInterval = 100 * time.Millisecond
	// DefaultBrownoutQueueFrac / DefaultEmergencyQueueFrac are the lane
	// backlog thresholds of the load ladder: half-full lanes start the
	// brownout, near-full lanes declare the emergency.
	DefaultBrownoutQueueFrac  = 0.5
	DefaultEmergencyQueueFrac = 0.9

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
		{"BatchMax", c.BatchMax},
		{"Workers", c.Workers},
		{"ShedMinSamples", c.ShedMinSamples},
	} {
		if k.val < 0 {
			return fmt.Errorf("negative %s %d", k.name, k.val)
		}
	}
	for _, k := range []struct {
		name string
		val  time.Duration
	}{
		{"BatchWindow", c.BatchWindow},
		{"ExecTimeout", c.ExecTimeout},
		{"AutosaveInterval", c.AutosaveInterval},
		{"ProbeInterval", c.ProbeInterval},
		{"DrainTimeout", c.DrainTimeout},
	} {
		if k.val < 0 {
			return fmt.Errorf("negative %s %v", k.name, k.val)
		}
	}
	if c.SlowTraceMs < 0 {
		return fmt.Errorf("negative SlowTraceMs %v", c.SlowTraceMs)
	}
	if c.HeapLimitBytes < 0 {
		return fmt.Errorf("negative HeapLimitBytes %d", c.HeapLimitBytes)
	}
	for _, k := range []struct {
		name string
		val  float64
	}{
		{"BrownoutQueueFrac", c.BrownoutQueueFrac},
		{"EmergencyQueueFrac", c.EmergencyQueueFrac},
	} {
		if k.val < 0 || k.val > 1 {
			return fmt.Errorf("%s %v outside (0, 1]", k.name, k.val)
		}
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
	if c.BatchMax == 0 {
		c.BatchMax = DefaultBatchMax
	}
	if c.Workers == 0 {
		c.Workers = DefaultWorkers
	}
	if c.ShedMinSamples == 0 {
		c.ShedMinSamples = DefaultShedMinSamples
	}
	if c.UnhealthyAfter == 0 {
		c.UnhealthyAfter = DefaultUnhealthyAfter
	}
	if c.ProbeInterval == 0 {
		c.ProbeInterval = DefaultProbeInterval
	}
	if c.QuarantineAfter == 0 {
		c.QuarantineAfter = DefaultQuarantineAfter
	}
	if c.ByteCacheCap == 0 {
		c.ByteCacheCap = DefaultByteCacheCap
	}
	if c.TraceRingCap == 0 {
		c.TraceRingCap = DefaultTraceRingCap
	}
	if c.DrainTimeout == 0 {
		c.DrainTimeout = DefaultDrainTimeout
	}
	// OverloadInterval follows the ByteCacheCap convention: 0 means the
	// default, negative means disabled.
	if c.OverloadInterval == 0 {
		c.OverloadInterval = DefaultOverloadInterval
	}
	if c.BrownoutQueueFrac == 0 {
		c.BrownoutQueueFrac = DefaultBrownoutQueueFrac
	}
	if c.EmergencyQueueFrac == 0 {
		c.EmergencyQueueFrac = DefaultEmergencyQueueFrac
	}
	return nil
}

// call is one in-flight planner execution and the response every
// coalesced waiter shares. planner is the resolved target's planner
// (key.device names it). body and status are written exactly once,
// before done is closed; delivered guards that write so a watchdog
// abandonment and the abandoned pass's late completion can race for a
// call without double-delivering it.
//
// waiters counts the handlers still waiting on done: it starts at 1
// for the leader, coalesce joins increment it (under the gateway
// mutex), and a handler whose client disconnects decrements it. A
// worker that dequeues a call nobody waits for anymore cancels it
// before it consumes a planner execution.
type call struct {
	key     coalesceKey
	req     serve.Request
	planner *serve.Planner
	done    chan struct{}
	// status, body and retryAfterMs are written exactly once, by the
	// delivered CAS winner, before done closes; retryAfterMs > 0 adds a
	// Retry-After header (watchdog 504s carry one).
	status       int
	body         []byte
	retryAfterMs float64
	waiters      atomic.Int64
	delivered    atomic.Bool

	// Execution timeline, written by the lane worker before done closes
	// (the close is the happens-before edge) and read by every waiter
	// afterwards, so each trace can carve its wait into queue-wait,
	// execution and encode spans. Zero when the call never reached a
	// planner (cancelled in queue).
	execStartAt time.Time
	execEndAt   time.Time
	encodeDur   time.Duration

	// planPhases collects the planner's internal phase windows
	// (measure, estimate, explore) via the serve.Request.Trace
	// callback. Guarded by phaseMu rather than the done happens-before
	// edge alone: a watchdog-abandoned pass keeps running in the
	// background and may still be appending while waiters read.
	phaseMu    sync.Mutex
	planPhases []phaseWindow
}

// phaseWindow is one planner phase's absolute time window.
type phaseWindow struct {
	name       string
	start, end time.Time
}

// notePhase is the serve.Request.Trace callback target.
func (c *call) notePhase(name string, start, end time.Time) {
	c.phaseMu.Lock()
	c.planPhases = append(c.planPhases, phaseWindow{name, start, end})
	c.phaseMu.Unlock()
}

// phases snapshots the recorded planner phases.
func (c *call) phases() []phaseWindow {
	c.phaseMu.Lock()
	defer c.phaseMu.Unlock()
	return append([]phaseWindow(nil), c.planPhases...)
}

// clearPhases drops phases recorded by a pass that will be redone (the
// solo retry after a grouped panic).
func (c *call) clearPhases() {
	c.phaseMu.Lock()
	c.planPhases = c.planPhases[:0]
	c.phaseMu.Unlock()
}

// deviceHealth is one device's fault-containment state. consecutive
// counts containment events (panics, watchdog abandons) since the last
// successful execution; crossing Config.UnhealthyAfter trips unhealthy,
// and only a successful background probe plan clears it.
type deviceHealth struct {
	device      string
	consecutive atomic.Int64
	unhealthy   atomic.Bool
}

// lane is one device's slice of the admission machinery: a bounded
// queue plus dedicated workers. Lane assignment is the resolved-device
// routing decision the admission path already makes, so lanes shift
// which worker runs an execution and when — never what it returns —
// and a cold plan occupying one lane's workers cannot delay another
// device's traffic.
type lane struct {
	device    string
	planner   *serve.Planner
	queue     chan *call
	shedQueue *telemetry.Counter // queue_full sheds on this lane

	// AIMD execution-concurrency limit (see overload.go): workers
	// acquire a slot before running a planner pass. execLimit moves
	// between 1 and the configured per-lane worker count — additive
	// increase while observed pass latency tracks the warm p99,
	// multiplicative decrease on containment events — and execEwmaMs is
	// the smoothed observed pass latency the overload controller reads
	// as its warm-p99 drift signal. All guarded by execMu.
	execMu        sync.Mutex
	execCond      *sync.Cond
	execLimit     int
	execActive    int
	execEwmaMs    float64
	aimdDecreases *telemetry.Counter
}

// Gateway is the serving layer. Construct with New, expose Handler on
// an http.Server, and call Shutdown to drain.
type Gateway struct {
	cfg   Config
	pool  *serve.PlannerPool
	reg   *telemetry.Registry
	mux   *http.ServeMux
	lanes map[string]*lane // one per registered device

	// laneQueueCap / laneWorkers are the per-lane slices of the
	// configured QueueDepth / Workers totals.
	laneQueueCap int
	laneWorkers  int

	// bytes is the rendered-response byte cache (nil when disabled by a
	// negative Config.ByteCacheCap); calib maps each registered device
	// to its calibration fingerprint, the byteKey component that pins
	// cached bytes to the calibration that produced them.
	bytes *lru.Sharded[byteKey, []byte]
	calib map[string]uint64

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
	pending       sync.WaitGroup // queued, not yet delivered calls
	workers       sync.WaitGroup
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

	// health tracks per-device fault containment (see deviceHealth);
	// immutable map built at construction, one entry per lane.
	health map[string]*deviceHealth

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
	batches        *telemetry.Counter
	batchedReqs    *telemetry.Counter
	planErrors     *telemetry.Counter
	prewarmed      *telemetry.Counter
	stateSaves     *telemetry.Counter
	autosaves      *telemetry.Counter
	autosaveErrors *telemetry.Counter
	restoreFallbck *telemetry.Counter
	cancelled      *telemetry.Counter
	quarantined    *telemetry.Counter
	panicsByDev    map[string]*telemetry.Counter
	abandonedByDev map[string]*telemetry.Counter
	unhealthyByDev map[string]*telemetry.Gauge
	probesByDev    map[string]*telemetry.Counter
	slowTraces     *telemetry.Counter
	requestLatMs   *telemetry.Histogram

	// Overload control (see overload.go): loadLevel is the controller's
	// published load level (0 normal, 1 brownout, 2 emergency), mem the
	// memoized MemStats sampler its heap/GC signals read, traceSeq the
	// deterministic counter behind brownout trace-ring sampling.
	loadLevel       atomic.Int32
	mem             *telemetry.MemSampler
	traceSeq        atomic.Uint64
	loadTransitions *telemetry.Counter
	shedOverload    *telemetry.Counter
	degradedServed  *telemetry.Counter
	traceSampledOut *telemetry.Counter
	// cancelledLatMs records the wall-clock latency of admitted
	// requests whose client disconnected before delivery — its own
	// series, so cancellations neither vanish from latency telemetry
	// (survivorship bias) nor pollute the delivered-request histogram.
	cancelledLatMs *telemetry.Histogram
	testHookBatch  func(device string, n int) // test-only: runs in a worker before a planner pass of n requests on one device
	testHookProbe  func(device string)        // test-only: runs before each health probe plan

	// Request tracing (see trace.go in this package): ids mints the
	// deterministic-format trace IDs, live tracks in-flight traces for
	// GET /debug/requests, ring retains completed ones for
	// GET /debug/trace (nil when disabled), and stageHists carries the
	// netcut_gateway_stage_ms{stage,device} histograms, pre-registered
	// per device (plus "none" for requests refused before routing).
	ids        *trace.IDGen
	live       *trace.Live
	ring       *trace.Ring
	stageHists map[string]map[string]*telemetry.Histogram
}

// New builds the gateway — one planner per registered device behind a
// serve.PlannerPool — instruments every planner and cache layer under
// it (per-device series carry a device label), and starts the batch
// workers. Callers own the HTTP server; see Handler.
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
		batches:      reg.Counter("netcut_gateway_batches_total", "planner passes executed by the batch workers"),
		batchedReqs:  reg.Counter("netcut_gateway_batched_requests_total", "requests served through batched planner passes"),
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
		loadTransitions: reg.Counter("netcut_gateway_load_transitions_total",
			"overload-controller load-level changes (any direction)"),
		shedOverload: reg.Counter("netcut_gateway_shed_overload_total",
			"cold misses shed at admission while the load level was 2 (emergency)"),
		degradedServed: reg.Counter("netcut_gateway_degraded_total",
			"allow_degraded requests served from a fallback device instead of being rejected"),
		traceSampledOut: reg.Counter("netcut_gateway_trace_sampled_out_total",
			"completed traces dropped from the /debug/trace ring by brownout sampling"),
		mem:          &telemetry.MemSampler{},
		requestLatMs: reg.Histogram("netcut_gateway_request_ms", "wall-clock request latency of admitted plan requests", nil),
		cancelledLatMs: reg.Histogram("netcut_gateway_request_cancelled_lat_ms",
			"wall-clock latency of admitted plan requests cancelled by client disconnect before delivery", nil),
	}
	if cfg.ByteCacheCap > 0 {
		g.bytes = lru.NewSharded[byteKey, []byte](byteCacheShards, cfg.ByteCacheCap, hashByteKey)
		lru.Instrument(reg, "netcut_gateway_bytecache", g.bytes)
	}
	reg.GaugeFunc("netcut_gateway_inflight", "distinct in-flight executions (coalescing keys)",
		func() float64 {
			g.mu.Lock()
			defer g.mu.Unlock()
			return float64(len(g.inflight))
		})
	telemetry.RegisterRuntime(reg)
	reg.GaugeFunc("netcut_gateway_load_level",
		"overload-controller load level: 0 normal, 1 brownout, 2 emergency",
		func() float64 { return float64(g.loadLevel.Load()) })

	// Request tracing: the ID stream derives from the planner seed, so a
	// replay with the same seed and admission order reproduces the same
	// trace IDs — deterministic in format and in sequence.
	g.ids = trace.NewIDGen(uint64(cfg.Planner.Seed))
	g.live = trace.NewLive()
	if cfg.TraceRingCap > 0 {
		g.ring = trace.NewRing(cfg.TraceRingCap)
		reg.GaugeFunc("netcut_gateway_trace_ring_entries",
			"completed traces retained in the /debug/trace ring buffer",
			func() float64 { return float64(g.ring.Len()) })
	}
	reg.GaugeFunc("netcut_gateway_traces_inflight",
		"requests currently in flight (live traces, dumped at /debug/requests)",
		func() float64 { return float64(g.live.Len()) })

	// One lane per registered device: the configured queue-depth and
	// worker totals divide evenly across lanes (minimum 1 each, the
	// same division rule the planner pool applies to cache caps), and
	// each lane's queue depth and queue_full sheds are device-labeled
	// series on the shared registry.
	names := pool.DeviceNames()
	g.laneQueueCap = cfg.QueueDepth / len(names)
	if g.laneQueueCap < 1 {
		g.laneQueueCap = 1
	}
	g.laneWorkers = cfg.Workers / len(names)
	if g.laneWorkers < 1 {
		g.laneWorkers = 1
	}
	g.lanes = make(map[string]*lane, len(names))
	g.health = make(map[string]*deviceHealth, len(names))
	g.calib = make(map[string]uint64, len(names))
	g.panicsByDev = make(map[string]*telemetry.Counter, len(names))
	g.abandonedByDev = make(map[string]*telemetry.Counter, len(names))
	g.unhealthyByDev = make(map[string]*telemetry.Gauge, len(names))
	g.probesByDev = make(map[string]*telemetry.Counter, len(names))
	for _, name := range names {
		p, err := pool.Planner(name)
		if err != nil {
			return nil, fmt.Errorf("gateway: %w", err)
		}
		dc := p.DeviceConfig()
		g.calib[name] = dc.Fingerprint()
		labels := []telemetry.Label{{Key: "device", Value: name}}
		l := &lane{
			device:  name,
			planner: p,
			queue:   make(chan *call, g.laneQueueCap),
			shedQueue: reg.CounterWith("netcut_gateway_shed_queue_full_total",
				"requests shed because the device's admission lane was full", labels),
			execLimit: g.laneWorkers,
			aimdDecreases: reg.CounterWith("netcut_gateway_aimd_decreases_total",
				"multiplicative decreases of the lane's AIMD execution-concurrency limit", labels),
		}
		l.execCond = sync.NewCond(&l.execMu)
		reg.GaugeFuncWith("netcut_gateway_queue_depth",
			"requests waiting in the device's admission lane", labels,
			func() float64 { return float64(len(l.queue)) })
		reg.GaugeFuncWith("netcut_gateway_lane_concurrency",
			"current AIMD execution-concurrency limit of the device's lane", labels,
			func() float64 {
				l.execMu.Lock()
				defer l.execMu.Unlock()
				return float64(l.execLimit)
			})
		g.lanes[name] = l
		g.health[name] = &deviceHealth{device: name}
		g.panicsByDev[name] = reg.CounterWith("netcut_gateway_panics_total",
			"planner panics recovered at the execution boundary", labels)
		g.abandonedByDev[name] = reg.CounterWith("netcut_gateway_watchdog_abandoned_total",
			"planner passes abandoned by the execution watchdog", labels)
		g.unhealthyByDev[name] = reg.GaugeWith("netcut_gateway_device_unhealthy",
			"1 while the device is tripped unhealthy, 0 while it is serving", labels)
		g.probesByDev[name] = reg.CounterWith("netcut_gateway_probes_total",
			"health probe plans attempted against an unhealthy device", labels)
	}

	// Per-stage latency histograms, pre-registered for every device plus
	// the "none" pseudo-device (requests refused before routing). Only
	// the clock-bounded stages get series; the admission gates record
	// zero-duration verdict spans in traces, not histogram mass.
	g.stageHists = make(map[string]map[string]*telemetry.Histogram, len(names)+1)
	for _, dev := range append(append(make([]string, 0, len(names)+1), names...), stageDeviceNone) {
		byStage := make(map[string]*telemetry.Histogram, len(timedStages))
		for _, st := range timedStages {
			byStage[st] = reg.HistogramWith("netcut_gateway_stage_ms",
				"per-stage latency of plan requests, carved from request traces at completion", nil,
				[]telemetry.Label{{Key: "stage", Value: st}, {Key: "device", Value: dev}})
		}
		g.stageHists[dev] = byStage
	}

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

	for _, name := range names {
		l := g.lanes[name]
		g.workers.Add(g.laneWorkers)
		for i := 0; i < g.laneWorkers; i++ {
			go g.worker(l)
		}
	}
	if cfg.AutosaveInterval > 0 {
		g.goBackground(g.autosaveLoop)
	}
	if cfg.OverloadInterval > 0 {
		g.goBackground(g.overloadLoop)
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
// response, then the workers stop and the background loops — autosave,
// prewarm, health probes — wind down, so no save is left mid-write and
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
			g.pending.Wait() // all queued calls delivered
			for _, l := range g.lanes {
				close(l.queue) // no producer can enqueue once draining is set
			}
			g.workers.Wait()
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

func writeJSON(w http.ResponseWriter, status int, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(body)
}

func (g *Gateway) writeErr(w http.ResponseWriter, e *apiError) {
	if e.wire.RetryAfterMs > 0 {
		w.Header().Set("Retry-After", retryAfterSeconds(e.wire.RetryAfterMs))
	}
	b, _ := json.Marshal(e.wire)
	writeJSON(w, e.status, append(b, '\n'))
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
	if aerr != nil {
		tr.Mark(stageDecode, "error")
		g.rejected.Inc()
		g.writeErrTraced(w, aerr, tr)
		return
	}
	tr.SetRequest(dec.key.name, dec.target)
	tr.Mark(stageDecode, verdictOK)

	c, cached, aerr := g.admit(dec, tr)
	if aerr != nil {
		g.writeErrTraced(w, aerr, tr)
		return
	}
	if cached != nil {
		// Byte-cache hit: the rendered body short-circuited lane,
		// planner and wire-marshal. It still counts as an admitted
		// request in the latency histogram; the hit itself is counted
		// by the cache's own netcut_gateway_bytecache_hits_total,
		// distinct from planner executions.
		if dec.degradedReason != "" {
			cached = injectDegraded(cached, dec.degradedReason)
		}
		end := g.writePlanTraced(w, http.StatusOK, cached, tr)
		g.requestLatMs.Observe(float64(end.Sub(start)) / float64(time.Millisecond))
		return
	}

	select {
	case <-c.done:
		// The worker published the call's execution timeline before
		// closing done; carve it into queue-wait / exec / encode spans.
		stitchCallSpans(tr, c)
		if c.retryAfterMs > 0 {
			w.Header().Set("Retry-After", retryAfterSeconds(c.retryAfterMs))
		}
		body := c.body
		if dec.degradedReason != "" && c.status == http.StatusOK {
			// The degraded markers are this response's, not the call's:
			// the canonical body (shared with coalesced waiters and the
			// byte cache) stays clean, like the trace ID.
			body = injectDegraded(body, dec.degradedReason)
		}
		end := g.writePlanTraced(w, c.status, body, tr)
		g.requestLatMs.Observe(float64(end.Sub(start)) / float64(time.Millisecond))
	case <-r.Context().Done():
		// The client went away. If other waiters remain, the execution
		// keeps running for them (its result is cached work, not waste);
		// if this was the last waiter, the worker that dequeues the call
		// cancels it before it consumes a planner execution. The
		// cancellation is still a request with a latency — recorded in
		// its own histogram, so delivered-request p99s aren't
		// survivorship-biased by the clients who gave up.
		c.waiters.Add(-1)
		now := tr.Mark(stageDeliver, "disconnected")
		g.cancelledLatMs.Observe(float64(now.Sub(start)) / float64(time.Millisecond))
		g.finishTrace(tr, statusClientClosed, now)
	}
}

// windowMs is the timed batching window expressed in the latency
// arithmetic's unit. Every pass leader waits up to this long before
// executing, so the budget shed predicates fold it into the expected
// service time — admitting a request whose budget covers only the
// bare warm p99 would queue it into guaranteed lateness.
func (g *Gateway) windowMs() float64 {
	return float64(g.cfg.BatchWindow) / float64(time.Millisecond)
}

// admit is the admission pipeline of one decoded request: it returns
// either a cached rendered body (byte-cache hit) or the call to wait
// on. The gate order of the package comment is written out once — the
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
	// passes QuarantineAfter times is rejected here, before it can touch
	// a worker — containment of a poison graph must not cost a lane per
	// retry. The key ignores the device (a graph that panics the trim
	// layer panics it on every target), so the gate runs before target
	// resolution.
	if g.cfg.QuarantineAfter > 0 {
		if n, ok := g.quarantine.Get(quarantineKey(dec.key)); ok && n.Load() >= int64(g.cfg.QuarantineAfter) {
			tr.MarkZero(stageQuarantine, "quarantined")
			g.quarantined.Inc()
			return nil, nil, errf(http.StatusInternalServerError, "quarantined",
				"this request previously crashed %d planner passes and is quarantined", n.Load())
		}
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
	dev, est, ok := g.pool.Route(dec.budgetMs, g.windowMs(), uint64(g.cfg.ShedMinSamples), g.deviceEligible)
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
// once, in the package comment's order: health, byte cache, coalesce,
// emergency, budget, enqueue. A health or budget refusal of a request
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

	// The byte cache comes after the drain, quarantine and health gates
	// (a refused request is refused whether or not its bytes are
	// resident) and before every shed: a hit is served even to a
	// budget-constrained request, since rendered bytes fit any budget.
	if body, ok := g.byteCacheGet(dec.key); ok {
		tr.Mark(stageByteCache, "hit")
		return nil, body, nil
	}
	tr.MarkZero(stageByteCache, "miss")

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

	l := g.lanes[dev]
	// Emergency gate: at load level 2 every cold miss — degraded ones
	// too, a fallback still costs an execution — is shed pre-execution
	// with a level-scaled backlog-honest hint.
	if lvl := int(g.loadLevel.Load()); lvl >= levelEmergency {
		tr.MarkZero(stageShed, "overload")
		g.shedOverload.Inc()
		e := errf(http.StatusTooManyRequests, "overload_shed",
			"gateway is at load level %d (emergency): only cached responses and coalesce joins are served", lvl)
		p99, _ := l.planner.WarmQuantile(0.99)
		e.wire.RetryAfterMs = math.Max(float64(lvl)*laneWaves(len(l.queue), g.laneWorkers)*(p99+g.windowMs()), 1)
		return nil, nil, e
	}
	// Budget gate: if the client's budget cannot cover the warm p99 plus
	// the batching window every pass leader waits out, queueing only
	// manufactures a guaranteed-late response. "auto" already applied
	// it in Route; a degraded request opted into lateness.
	if dec.budgetMs > 0 && dec.target != "auto" && dec.degradedReason == "" {
		p99, samples := l.planner.WarmQuantile(0.99)
		need := p99 + g.windowMs()
		if samples >= uint64(g.cfg.ShedMinSamples) && dec.budgetMs < need {
			if mayDegrade {
				return g.degrade(dec, degradedBudget, tr)
			}
			tr.MarkZero(stageShed, "budget")
			g.shedBudget.Inc()
			e := errf(http.StatusTooManyRequests, "budget_too_small",
				"budget %.3f ms is below device %s's estimated warm-path latency of %.3f ms",
				dec.budgetMs, dev, need)
			e.wire.RetryAfterMs = need
			return nil, nil, e
		}
	}
	tr.MarkZero(stageShed, verdictOK)

	c := &call{key: dec.key, req: dec.req, planner: l.planner, done: make(chan struct{})}
	// The planner reports its internal phase timings (measure /
	// estimate / explore) into the call, where every coalesced waiter's
	// trace picks them up after delivery. Observability only: the
	// callback cannot influence the response, and it is not part of the
	// coalescing identity (dec.key was computed before it existed).
	c.req.Trace = c.notePhase
	c.waiters.Store(1) // the leader
	// Admission holds g.mu and is the lanes' only producer, and workers
	// only drain, so a lane with room now still has room at the send.
	// That lets the enqueue mark go in before the send: a worker may
	// start the pass the instant the call lands, and the queue-wait
	// span stitched in after delivery begins at this mark.
	if len(l.queue) == cap(l.queue) {
		tr.Mark(stageEnqueue, "full")
		l.shedQueue.Inc()
		e := errf(http.StatusTooManyRequests, "queue_full",
			"admission lane of %d for device %s is full", g.laneQueueCap, l.device)
		// A full lane means a backlog of whole execution waves stands
		// between this client and service: ceil(backlog / workers)
		// passes of roughly (p99 + window) each.
		p99, _ := l.planner.WarmQuantile(0.99)
		e.wire.RetryAfterMs = math.Max(laneWaves(len(l.queue), g.laneWorkers)*(p99+g.windowMs()), 1)
		return nil, nil, e
	}
	tr.Mark(stageEnqueue, verdictOK)
	g.inflight[dec.key] = c
	g.pending.Add(1)
	l.queue <- c
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
	dev, _, ok := g.pool.Fastest(g.windowMs(), uint64(g.cfg.ShedMinSamples), g.deviceEligible)
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
// where executions run, never what they return.
func (g *Gateway) deviceEligible(name string) bool {
	h := g.health[name]
	return h == nil || !h.unhealthy.Load()
}

// unhealthyErr is the 503 an explicit request for a tripped device
// receives; Retry-After carries the probe cadence, the soonest the
// device could come back.
func (g *Gateway) unhealthyErr(name string) *apiError {
	e := errf(http.StatusServiceUnavailable, "device_unhealthy",
		"device %s is unhealthy after repeated containment events; a background probe will restore it", name)
	e.wire.RetryAfterMs = float64(g.cfg.ProbeInterval) / float64(time.Millisecond)
	return e
}

// fleetDown is the 503 for a fleet with no eligible device: nothing to
// route or degrade onto until a background probe restores one.
func (g *Gateway) fleetDown(tr *trace.Trace) *apiError {
	tr.MarkZero(stageHealth, "no_healthy_device")
	e := errf(http.StatusServiceUnavailable, "no_healthy_device",
		"every registered device is unhealthy; background probes are running")
	e.wire.RetryAfterMs = float64(g.cfg.ProbeInterval) / float64(time.Millisecond)
	return e
}

// quarantineKey is a call's panic-attribution identity: the coalesce
// key with the device cleared, because a poison structure is poison on
// every target.
func quarantineKey(k coalesceKey) coalesceKey {
	k.device = ""
	return k
}

// worker drains one device's admission lane: one blocking receive, a
// cooperative yield, an optional timed batching window, then an
// opportunistic non-blocking sweep up to BatchMax, grouped into
// compatible planner passes. Workers never cross lanes, so a cold plan
// here cannot delay any other device's queue.
func (g *Gateway) worker(l *lane) {
	defer g.workers.Done()
	for first := range l.queue {
		// The yield lets the rest of a concurrent burst reach admission
		// before this pass executes: arrivals for the same key join the
		// in-flight call (coalesce), compatible distinct ones land in
		// the queue for the sweep below (batch). Without it, a
		// fully-loaded single-core scheduler runs the worker ahead of
		// the burst's remaining handlers and serializes the burst into
		// per-request executions. Costs nothing when idle.
		runtime.Gosched()
		batch := []*call{first}
		if w := g.effectiveBatchWindow(); w > 0 {
			// Timed window: hold the pass open for socket-staggered
			// stragglers. The yield catches bursts already in flight;
			// the window catches bursts whose members are still
			// arriving over real connections. Like every admission
			// mechanism it shifts when executions run, never what they
			// return. The cost: every pass leader — including a lone,
			// uncontended request — waits up to BatchWindow before
			// executing, which is why the budget shed predicates add
			// windowMs to the expected service time. Under overload the
			// window shrinks (brownout) or disappears (emergency) —
			// holding passes open is optional work.
			timer := time.NewTimer(w)
		window:
			for len(batch) < g.cfg.BatchMax {
				select {
				case c, ok := <-l.queue:
					if !ok {
						break window // draining: run what we have
					}
					batch = append(batch, c)
				case <-timer.C:
					break window
				}
			}
			timer.Stop()
		}
	sweep:
		for len(batch) < g.cfg.BatchMax {
			select {
			case c, ok := <-l.queue:
				if !ok {
					break sweep
				}
				batch = append(batch, c)
			default:
				break sweep
			}
		}
		// Cancellation sweep: a dequeued call nobody waits on anymore —
		// every coalesced client disconnected while it was queued — is
		// retired here, before it can consume a planner execution.
		live := batch[:0]
		for _, c := range batch {
			if !g.tryCancel(c) {
				live = append(live, c)
			}
		}
		if len(live) > 0 {
			// The AIMD slot bounds how many of this lane's workers run
			// planner passes concurrently; the queue stays drained by
			// everyone, so admission behavior is unchanged — only the
			// execution parallelism adapts.
			l.acquireExec()
			g.execute(live)
			l.releaseExec()
		}
	}
}

// tryCancel retires a queued call whose waiters have all disconnected.
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
	if g.inflight[c.key] == c {
		delete(g.inflight, c.key)
	}
	g.mu.Unlock()
	g.cancelled.Inc()
	if c.delivered.CompareAndSwap(false, true) {
		c.status = http.StatusGone // no reader remains; set for completeness
		close(c.done)
		g.pending.Done()
	}
	return true
}

// execute groups a drained burst by (device, deadline, estimator) and
// runs each group as one SelectBatch pass on that device's planner,
// delivering every call's response. Grouping preserves arrival order
// within a group, and responses are position-indexed, so batching
// cannot permute results; two targets never share a planner pass.
func (g *Gateway) execute(batch []*call) {
	type groupKey struct {
		device    string
		deadline  float64
		estimator string
	}
	order := make([]groupKey, 0, len(batch))
	groups := make(map[groupKey][]*call, 1)
	for _, c := range batch {
		k := groupKey{c.key.device, c.req.DeadlineMs, c.req.Estimator}
		if _, ok := groups[k]; !ok {
			order = append(order, k)
		}
		groups[k] = append(groups[k], c)
	}
	for _, k := range order {
		g.executeGroup(k.device, groups[k])
	}
}

// passResult is one planner pass's outcome, including a recovered
// panic: the recover happens on the goroutine that ran the pass (the
// only place Go allows it), and the result crosses back to the worker
// as a value.
type passResult struct {
	resps    []*serve.Response
	errs     []error
	panicked bool
	pval     any
	stack    []byte
}

// runPass executes one planner pass with the panic boundary. A panic
// anywhere under SelectBatch — trim, profiler, estimator — is contained
// here: every mutex on the planning path releases by defer, and the
// caches only ever hold completed values, so the planner stays
// serviceable after the unwind.
func runPass(p *serve.Planner, reqs []serve.Request) (res passResult) {
	defer func() {
		if r := recover(); r != nil {
			res.panicked = true
			res.pval = r
			res.stack = debug.Stack()
		}
	}()
	res.resps, res.errs = p.SelectBatch(reqs)
	return res
}

// runGuarded is runPass plus the execution watchdog. With ExecTimeout
// unset the pass runs inline (no goroutine, no timer). With it set, the
// pass runs on its own goroutine; if it outlives the timeout the worker
// abandons it — abandoned reports true, the goroutine's eventual result
// lands in the buffered channel and is discarded, and the lane moves
// on. Abandonment never caches anything at the gateway layer: the
// coalesce entries die with the calls.
func (g *Gateway) runGuarded(p *serve.Planner, reqs []serve.Request) (res passResult, abandoned bool) {
	if g.cfg.ExecTimeout <= 0 {
		return runPass(p, reqs), false
	}
	ch := make(chan passResult, 1)
	go func() { ch <- runPass(p, reqs) }()
	timer := time.NewTimer(g.cfg.ExecTimeout)
	defer timer.Stop()
	select {
	case res = <-ch:
		return res, false
	case <-timer.C:
		return passResult{}, true
	}
}

// executeGroup runs one compatible group as a planner pass behind the
// panic and watchdog boundaries. A panic in a grouped pass cannot name
// the request that caused it, so the group retries solo — byte-identity
// (solo == batched) guarantees the innocent requests' retried bodies
// are exactly what the batched pass would have returned, and only the
// poison request pays with a 500.
func (g *Gateway) executeGroup(dev string, calls []*call) {
	if hook := g.testHookBatch; hook != nil {
		hook(dev, len(calls))
	}
	reqs := make([]serve.Request, len(calls))
	for i, c := range calls {
		reqs[i] = c.req
	}
	g.batches.Inc()
	g.batchedReqs.Add(uint64(len(calls)))
	// Two clock reads bracket the pass for the whole group; every call
	// shares them, and waiters stitch the window into their traces as
	// the exec span after done closes.
	execStart := time.Now()
	for _, c := range calls {
		c.execStartAt = execStart
	}
	res, abandoned := g.runGuarded(calls[0].planner, reqs)
	execEnd := time.Now()
	for _, c := range calls {
		c.execEndAt = execEnd
	}
	switch {
	case abandoned:
		g.abandonCalls(dev, calls)
	case res.panicked && len(calls) > 1:
		for _, c := range calls {
			c.clearPhases() // the panicked group pass's partial phases
			c.execStartAt = time.Now()
			sres, sab := g.runGuarded(c.planner, []serve.Request{c.req})
			c.execEndAt = time.Now()
			switch {
			case sab:
				g.abandonCalls(dev, []*call{c})
			case sres.panicked:
				g.deliverPanic(c, sres)
			default:
				g.deviceOK(dev)
				g.laneAIMDIncrease(dev, float64(c.execEndAt.Sub(c.execStartAt))/float64(time.Millisecond))
				g.deliverResult(c, sres.resps[0], sres.errs[0])
			}
		}
	case res.panicked:
		g.deliverPanic(calls[0], res)
	default:
		g.deviceOK(dev)
		g.laneAIMDIncrease(dev, float64(execEnd.Sub(execStart))/float64(time.Millisecond))
		for i, c := range calls {
			g.deliverResult(c, res.resps[i], res.errs[i])
		}
	}
}

// deliverResult publishes a completed execution's response (success or
// structured planner error) to a call. The success path is the byte
// cache's only population point: a body cached here was fully rendered
// and delivered, so errors, contained panics and watchdog-abandoned
// passes can never seed the fast path.
func (g *Gateway) deliverResult(c *call, resp *serve.Response, err error) {
	if err != nil {
		g.planErrors.Inc()
		e := planError(err)
		b, _ := json.Marshal(e.wire)
		g.deliver(c, e.status, append(b, '\n'), 0)
		return
	}
	encStart := time.Now()
	body := EncodeResponse(resp)
	c.encodeDur = time.Since(encStart)
	g.byteCacheAdd(c.key, body)
	g.deliver(c, http.StatusOK, body, 0)
}

// deliverPanic converts a recovered planner panic into a structured 500
// for exactly the call that caused it, records the containment — the
// per-device panic counter, the quarantine count for the request
// identity, the health state — and logs the stack once to stderr.
func (g *Gateway) deliverPanic(c *call, res passResult) {
	dev := c.key.device
	g.panicsByDev[dev].Inc()
	g.notePanicKey(c.key)
	g.deviceFault(dev)
	fmt.Fprintf(os.Stderr, "gateway: contained planner panic for %q on %s: %v\n%s",
		c.key.name, dev, res.pval, res.stack)
	e := errf(http.StatusInternalServerError, "internal_panic",
		"planner panicked serving this request on %s; the panic was contained and the lane keeps serving", dev)
	b, _ := json.Marshal(e.wire)
	g.deliver(c, e.status, append(b, '\n'), 0)
}

// abandonCalls is the watchdog outcome: every call of the abandoned
// pass gets a 504 with a Retry-After, the coalesce entries die (an
// abandoned result is never cached at this layer), and the device takes
// a containment mark.
func (g *Gateway) abandonCalls(dev string, calls []*call) {
	g.abandonedByDev[dev].Inc()
	g.deviceFault(dev)
	retryMs := float64(g.cfg.ExecTimeout) / float64(time.Millisecond)
	e := errf(http.StatusGatewayTimeout, "watchdog_timeout",
		"planner pass on %s exceeded the %v execution watchdog and was abandoned", dev, g.cfg.ExecTimeout)
	e.wire.RetryAfterMs = retryMs
	b, _ := json.Marshal(e.wire)
	body := append(b, '\n')
	for _, c := range calls {
		g.deliver(c, e.status, body, retryMs)
	}
}

// notePanicKey bumps a request identity's panic count in the bounded
// quarantine LRU. Add has LoadOrStore semantics, so concurrent bumps
// share one canonical counter.
func (g *Gateway) notePanicKey(k coalesceKey) {
	if g.cfg.QuarantineAfter <= 0 {
		return
	}
	n := g.quarantine.Add(quarantineKey(k), new(atomic.Int64))
	n.Add(1)
}

// deviceFault marks one containment event (panic or watchdog abandon)
// against a device; crossing Config.UnhealthyAfter consecutive events
// trips it unhealthy and starts the probe loop that will restore it.
func (g *Gateway) deviceFault(dev string) {
	// Containment events are the AIMD limit's multiplicative-decrease
	// trigger: a panicking or wedging device should immediately see
	// less concurrent pressure, even with health tracking disabled.
	g.laneAIMDDecrease(dev)
	if g.cfg.UnhealthyAfter < 0 {
		return
	}
	h := g.health[dev]
	if h == nil {
		return
	}
	if h.consecutive.Add(1) >= int64(g.cfg.UnhealthyAfter) && h.unhealthy.CompareAndSwap(false, true) {
		g.unhealthyByDev[dev].Set(1)
		// A tripped device's rendered bodies leave the fast path with
		// it: eligibility already gates every lookup, and the purge
		// keeps the cache's contents honest about who is serving.
		g.byteCachePurgeDevice(dev)
		g.goBackground(func() { g.probeLoop(h) })
	}
}

// deviceOK resets a device's consecutive-fault count after a successful
// execution. The unhealthy flag itself is only cleared by a probe, so
// recovery is observable as exactly one transition.
func (g *Gateway) deviceOK(dev string) {
	if h := g.health[dev]; h != nil {
		h.consecutive.Store(0)
	}
}

// probeLoop probes an unhealthy device with one real plan per
// Config.ProbeInterval until a probe succeeds (restoring the device) or
// the gateway drains. The probe is a prewarm-style zoo plan against the
// device's planner directly — real planner work, so a success is
// evidence the target actually serves again, not just that the process
// is alive.
func (g *Gateway) probeLoop(h *deviceHealth) {
	p, err := g.pool.Planner(h.device)
	if err != nil {
		return
	}
	for {
		if !g.sleep(g.cfg.ProbeInterval) {
			return
		}
		if hook := g.testHookProbe; hook != nil {
			hook(h.device)
		}
		g.probesByDev[h.device].Inc()
		if g.probe(p) {
			h.consecutive.Store(0)
			h.unhealthy.Store(false)
			g.unhealthyByDev[h.device].Set(0)
			return
		}
	}
}

// probe runs one guarded zoo plan; any panic or error is a failed probe.
func (g *Gateway) probe(p *serve.Planner) bool {
	zg, err := zooGraph(zoo.Names[0])
	if err != nil {
		return false
	}
	_, err = guardedSelect(p, serve.Request{Graph: zg, DeadlineMs: 0.9, Estimator: "profiler"})
	return err == nil
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

// deliver publishes a call's response and retires its coalescing key.
// The delivered CAS makes publication exactly-once: the winner writes
// the response fields, closes done (the happens-before edge every
// waiter reads through) and releases the pending count; any later
// attempt is a no-op. The inflight delete checks identity, because
// after a watchdog abandonment a fresh call may already own the key.
func (g *Gateway) deliver(c *call, status int, body []byte, retryAfterMs float64) {
	g.mu.Lock()
	if g.inflight[c.key] == c {
		delete(g.inflight, c.key)
	}
	g.mu.Unlock()
	if c.delivered.CompareAndSwap(false, true) {
		c.status, c.body, c.retryAfterMs = status, body, retryAfterMs
		close(c.done)
		g.pending.Done()
	}
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
// (unique temp file + rename, so a crash mid-write never leaves a torn
// file — the decoder would reject one anyway, but the previous good
// snapshot is worth keeping), rotating the previous snapshot to
// StatePath+".bak" first so one known-good generation always survives a
// save that lands corrupt. Saves are serialized under a mutex:
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
// known architecture. It runs at low priority — one sequential
// goroutine against the planners directly, bypassing the lanes so it
// can never occupy a queue slot or a worker — and stops early if the
// gateway starts draining. Prewarming is pure cache warming: every
// value it computes is one a request would compute identically, so it
// shifts cold costs off the request path without changing any
// response. The returned channel closes when the sweep finishes (or
// aborts on drain); netcut_gateway_prewarmed_total counts completed
// plans.
func (g *Gateway) Prewarm() <-chan struct{} {
	done := make(chan struct{})
	started := g.goBackground(func() {
		defer close(done)
		for _, name := range g.pool.DeviceNames() {
			p, err := g.pool.Planner(name)
			if err != nil {
				continue // Route only registers known names; defensive
			}
			for _, netName := range zoo.Names {
				select {
				case <-g.stop:
					return
				default:
				}
				// Prewarming is the most optional work there is: any
				// brownout pauses the sweep until the level clears (it
				// resumes where it left off; drain still aborts it).
				for g.loadLevel.Load() >= levelBrownout {
					if !g.sleep(g.cfg.OverloadInterval) {
						return
					}
				}
				zg, err := zooGraph(netName)
				if err != nil {
					continue
				}
				if _, err := guardedSelect(p, serve.Request{Graph: zg, DeadlineMs: 0.9, Estimator: "profiler"}); err == nil {
					g.prewarmed.Inc()
				}
			}
		}
	})
	if !started { // already draining: nothing to warm
		close(done)
	}
	return done
}

// guardedSelect is Planner.Select behind the panic boundary, for the
// background paths (prewarm) that run planner work outside a worker's
// containment: a poison zoo entry must not crash the process from a
// warming goroutine either.
func guardedSelect(p *serve.Planner, req serve.Request) (resp *serve.Response, err error) {
	defer func() {
		if r := recover(); r != nil {
			resp, err = nil, fmt.Errorf("planner panic: %v", r)
		}
	}()
	return p.Select(req)
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
		p, err := g.pool.Planner(name)
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		cfg := p.DeviceConfig()
		p99, samples := p.WarmQuantile(0.99)
		if samples < uint64(g.cfg.ShedMinSamples) {
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
// cache stats as one JSON document ("planner" remains the default
// target's stats for single-device dashboards).
func (g *Gateway) handleStats(w http.ResponseWriter, _ *http.Request) {
	doc := map[string]any{
		"metrics":  g.reg.Snapshot(),
		"planner":  g.pool.Default().Stats(),
		"devices":  g.pool.Stats(),
		"overload": g.overloadStats(),
	}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	writeJSON(w, http.StatusOK, append(b, '\n'))
}
