package netcut

import (
	"fmt"
	"sync"

	"netcut/internal/core"
	"netcut/internal/device"
	"netcut/internal/estimate"
	"netcut/internal/exp"
	"netcut/internal/gateway"
	"netcut/internal/graph"
	"netcut/internal/pareto"
	"netcut/internal/profiler"
	"netcut/internal/serve"
	"netcut/internal/trim"
	"netcut/internal/zoo"
)

// Re-exported core types, so downstream users need only this package
// for the common flows.
type (
	// Graph is a network as a layer graph. Graphs are immutable once
	// built: a built graph records its structural fingerprint, and the
	// measurement and planning layers memoize per graph structure, so
	// mutating a built Graph's fields — even before passing it to any
	// function in this package — yields stale cached results.
	Graph = graph.Graph
	// TRN is a trimmed network.
	TRN = trim.TRN
	// HeadSpec describes the replacement transfer-learning head.
	HeadSpec = trim.HeadSpec
	// Result is a full NetCut exploration run.
	Result = core.Result
	// Proposal is one deadline-feasible TRN.
	Proposal = core.Proposal
	// DeviceConfig parameterizes the simulated embedded GPU.
	DeviceConfig = device.Config
	// Point is a latency/accuracy point for Pareto analysis.
	Point = pareto.Point
)

// DefaultHead is the paper's replacement head (GAP + 2 FC/ReLU +
// FC/Softmax over 5 grasp classes).
var DefaultHead = trim.DefaultHead

// Networks returns the seven networks of the paper's study: the
// process's shared, immutable instances, in a fresh slice.
func Networks() []*Graph { return zoo.Paper7() }

// NetworkNames lists the canonical network names, fastest first.
func NetworkNames() []string { return append([]string(nil), zoo.Names...) }

// NetworkByName returns the process's shared, immutable instance of one
// of the paper's networks by name.
func NetworkByName(name string) (*Graph, error) { return zoo.ByName(name) }

// XavierConfig returns the calibrated embedded-GPU simulation standing
// in for the paper's Jetson Xavier.
func XavierConfig() DeviceConfig { return device.Xavier() }

// DeviceProfiles returns the registered target calibrations in
// canonical order — Xavier (the default) first, then the fleet
// profiles (edge CPU, server GPU, INT8 accelerator). This is the
// device set a zero-config Gateway serves and the order "auto"
// routing tie-breaks on.
func DeviceProfiles() []DeviceConfig { return device.Profiles() }

// DeviceProfileNames lists the registered profile names in canonical
// order.
func DeviceProfileNames() []string { return device.ProfileNames() }

// DeviceProfileByName returns the registered calibration with the
// given name.
func DeviceProfileByName(name string) (DeviceConfig, error) { return device.ProfileByName(name) }

// EstimatorKind selects the latency estimator NetCut explores with.
type EstimatorKind string

const (
	// ProfilerEstimator is the per-layer-table Eq. (1) estimator.
	ProfilerEstimator EstimatorKind = "profiler"
	// AnalyticalEstimator is the epsilon-SVR over device-agnostic
	// features.
	AnalyticalEstimator EstimatorKind = "analytical"
	// LinearEstimator is the OLS baseline (for ablations).
	LinearEstimator EstimatorKind = "linear"
)

// Options configures a NetCut run.
type Options struct {
	// DeadlineMs is the application deadline; 0 means the prosthetic
	// hand's 0.9 ms.
	DeadlineMs float64
	// Estimator defaults to ProfilerEstimator.
	Estimator EstimatorKind
	// Seed fixes measurement and retraining noise; 0 is a valid seed.
	Seed int64
	// Device overrides the simulated device; nil uses XavierConfig.
	Device *DeviceConfig
	// Head overrides the replacement head; zero value uses DefaultHead.
	Head HeadSpec
}

// Selection is the outcome of Select: the most accurate network meeting
// the deadline.
type Selection struct {
	// Network is the paper-style TRN label, e.g. "ResNet-50/104".
	Network string
	// Parent is the off-the-shelf network the TRN was cut from.
	Parent string
	// BlocksRemoved and LayersRemoved describe the cut.
	BlocksRemoved int
	LayersRemoved int
	// EstimatedMs is the estimator's latency; MeasuredMs the simulated
	// ground truth.
	EstimatedMs float64
	MeasuredMs  float64
	// Accuracy is the retrained angular-similarity accuracy.
	Accuracy float64
	// Result carries the full exploration run.
	Result *Result
}

// Select runs the complete NetCut pipeline — profile the zoo on the
// device, train the chosen estimator, run Algorithm 1 — and returns the
// highest-accuracy network meeting the deadline. Each call builds a
// fresh Lab, and with it a single-use Planner; an invalid Options.Device
// is an error.
func Select(opts Options) (*Selection, error) {
	lab, est, err := buildLab(opts)
	if err != nil {
		return nil, err
	}
	res, err := lab.Explore(est)
	if err != nil {
		return nil, err
	}
	if res.Best == nil {
		return nil, fmt.Errorf("netcut: no network can meet %.3f ms (deepest cuts still too slow)", lab.Deadline())
	}
	best := res.Best
	return &Selection{
		Network:       best.TRN.Name(),
		Parent:        best.TRN.Parent.Name,
		BlocksRemoved: best.Cutpoint,
		LayersRemoved: best.TRN.LayersRemoved,
		EstimatedMs:   best.EstimateMs,
		MeasuredMs:    lab.Device().LatencyMs(best.TRN.Graph),
		Accuracy:      best.Accuracy,
		Result:        res,
	}, nil
}

// Explore runs Algorithm 1 and returns the full run (one proposal per
// network) without reducing it to a single selection.
func Explore(opts Options) (*Result, error) {
	lab, est, err := buildLab(opts)
	if err != nil {
		return nil, err
	}
	return lab.Explore(est)
}

// NewLab exposes the full experiment harness (figure and table
// generators) used by cmd/netexp and the benchmarks.
func NewLab(cfg exp.Config) (*exp.Lab, error) { return exp.NewLab(cfg) }

// LabConfig is the experiment-harness configuration.
type LabConfig = exp.Config

func buildLab(opts Options) (*exp.Lab, estimate.Estimator, error) {
	cfg := exp.Config{
		Seed:       opts.Seed,
		DeadlineMs: opts.DeadlineMs,
		Device:     opts.Device,
		Head:       opts.Head,
	}
	lab, err := exp.NewLab(cfg)
	if err != nil {
		return nil, nil, err
	}
	var est estimate.Estimator
	switch opts.Estimator {
	case "", ProfilerEstimator:
		est = lab.ProfilerEstimator()
	case AnalyticalEstimator:
		est, err = lab.AnalyticalEstimator()
	case LinearEstimator:
		est, err = lab.LinearEstimator()
	default:
		return nil, nil, fmt.Errorf("netcut: unknown estimator %q", opts.Estimator)
	}
	if err != nil {
		return nil, nil, err
	}
	return lab, est, nil
}

// defaultDevice is the shared calibrated device behind the
// package-level measurement helpers. Sharing one device (rather than
// building one per call) keeps its kernel-plan cache warm across calls:
// repeated MeasureMs/ProfileTable queries for the same network hit the
// memoized plan instead of re-running the fusion pass and roofline.
var defaultDevice = sync.OnceValue(func() *device.Device {
	return device.New(device.Xavier())
})

// MeasureMs reports the simulated steady-state latency of any graph on
// the calibrated device. g must not be mutated afterwards (see Graph).
func MeasureMs(g *Graph) float64 {
	return defaultDevice().LatencyMs(g)
}

// ProfileTable measures the per-layer latency table of a network under
// the paper's 200/800 protocol. g must not be mutated afterwards (see
// Graph).
func ProfileTable(g *Graph, seed int64) (*profiler.Table, error) {
	p, err := profiler.New(defaultDevice(), profiler.PaperProtocol(), seed)
	if err != nil {
		return nil, err
	}
	return p.Profile(g), nil
}

// Cut removes the last blocks of a network and attaches the replacement
// head, returning the TRN.
func Cut(g *Graph, blocks int, head HeadSpec) (*TRN, error) {
	return trim.Cut(g, blocks, head)
}

// BlockwiseTRNs enumerates a network's blockwise TRN family
// (cutpoints 1..BlockCount).
func BlockwiseTRNs(g *Graph, head HeadSpec) ([]*TRN, error) {
	return trim.EnumerateBlockwise(g, head, false)
}

// Frontier extracts the Pareto-optimal subset of latency/accuracy
// points.
func Frontier(points []Point) []Point { return pareto.Frontier(points) }

// Planner is the long-lived, concurrency-safe planning service: one
// Planner accepts Select-style requests from many goroutines, shares a
// single device/profiler/retraining simulator across all of them, and
// keeps every structure-keyed cache bounded so a stream of arbitrary
// user graphs plans in constant memory. Responses are pure functions of
// (PlannerConfig, PlanRequest): concurrency and cache eviction change
// wall-clock time only, never results. SaveState/LoadState snapshot and
// restore the warm caches across process restarts (versioned format,
// identity-matched; see internal/persist) — a restored Planner answers
// byte-identically to the freshly warmed one that wrote the snapshot.
type (
	Planner = serve.Planner
	// PlannerConfig parameterizes a Planner: seed, device, protocol,
	// head, and the LRU caps of the shared caches (0 = package default,
	// negative = unbounded).
	PlannerConfig = serve.Config
	// PlanRequest is one planning request: graph + deadline + estimator
	// kind ("profiler", "analytical" or "linear").
	PlanRequest = serve.Request
	// PlanResponse is the planning outcome: the highest-accuracy cut
	// meeting the deadline, or Feasible == false.
	PlanResponse = serve.Response
	// PlannerStats snapshots the planner's request and cache counters.
	PlannerStats = serve.Stats
)

// NewPlanner builds the planning service. Select runs the same pipeline
// on a fresh single-use Planner per call; a long-lived Planner amortizes
// profiling across requests: repeated or structurally identical graphs
// are cache hits end to end, and its proposals are byte-identical to
// single-use Select for the same seed.
func NewPlanner(cfg PlannerConfig) (*Planner, error) { return serve.New(cfg) }

// PlannerPool is the multi-target planning service: one Planner per
// registered device calibration behind a single façade, with
// device-isolated caches (plan keys, measurement/table memos and
// cut-cache entries all fold in the device-calibration fingerprint, so
// no two targets share an entry) and pool-wide cache bounds (the
// configured caps are divided across targets, never multiplied by
// them). Responses are byte-identical to a single-device Planner built
// with the same seed and calibration.
type (
	PlannerPool = serve.PlannerPool
	// PoolConfig parameterizes a PlannerPool: the per-planner template
	// plus the target calibrations (empty = the full device registry).
	PoolConfig = serve.PoolConfig
)

// NewPlannerPool builds one Planner per registered device. An invalid
// device profile is a structured constructor error naming the device,
// never a panic.
func NewPlannerPool(cfg PoolConfig) (*PlannerPool, error) { return serve.NewPool(cfg) }

// Gateway is the deadline-aware HTTP serving layer on top of a
// PlannerPool: a JSON planning API (POST /v1/plan) with per-request
// device targeting ("target": a registered device name, "auto", or
// empty for the default device; GET /v1/devices lists the fleet),
// singleflight coalescing of identical requests, resident answers (a
// request whose deadline lands on an answer-staircase step an earlier
// request accepted is answered with that step's once-rendered body
// straight from admission — after the drain, quarantine and
// device-health gates, before any queueing), per-device lanes (one
// bounded waiting room + a fixed number of pass permits per target; a
// request that starts an execution plans on its own handler goroutine,
// one request per pass, so a cold plan on one device never
// head-of-line-blocks another's warm traffic), load shedding keyed to the client's own
// latency budget, graceful drain, warm-state snapshot/restore
// (SaveState/LoadState, POST /v1/state/save via GatewayConfig.StatePath)
// with background zoo prewarming (Prewarm), and a telemetry registry
// exposed at /metrics (Prometheus text, per-device series carry a
// device label) and /debug/stats (JSON). Routing, coalescing, lanes,
// resident answers and shedding change which executions happen, where
// and when — never what any request returns: a coalesced or resident
// response body is byte-identical to the same request served alone
// through that device's Planner, and an auto-routed body to the same
// request naming the resolved device explicitly.
//
// Faults are contained rather than propagated: planner-pass panics are
// recovered per request (only the poison request fails, repeat
// offenders are quarantined), disconnected clients have waiting work
// cancelled before execution, repeatedly panicking devices leave
// rotation until a background probe restores them, and
// GatewayConfig.AutosaveInterval snapshots the warm state crash-safely
// (atomic rename plus a previous-good .bak generation that
// LoadStateFile falls back to). GET /readyz reports
// readiness (flip it with MarkReady after boot restore), distinct from
// /healthz liveness. Every 429/503 rejection carries a Retry-After
// header. See the package comment's "Fault tolerance & degradation"
// section.
//
// Under sustained pressure the gateway degrades instead of failing
// binary: lane backlog, read wherever the level acts or is shown, folds
// into a load level (0 normal, 1 brownout; netcut_gateway_load_level,
// Gateway.LoadLevel), and brownout pauses prewarming. Only a full lane
// sheds, and only its own arrivals: 429 queue_full with a
// backlog-honest Retry-After hint. Requests that
// prefer a degraded answer over a rejection set "allow_degraded": true
// in the body: a budget-infeasible or unhealthy-device request then
// falls back deterministically to the fastest healthy device and
// returns its plan with "degraded": true and a "degraded_reason"
// ("budget_infeasible" or "unhealthy_device") spliced in at write
// time — the body is byte-identical to the explicit spelling of the
// fallback target modulo trace_id and those markers (strip them with
// StripDegraded / StripTraceID).
// See the gateway package comment's "Overload" section.
//
// Every request is traced: the response carries the trace ID in the
// X-Netcut-Trace header and the trace_id body field (the only byte
// tracing adds — everything else is observability-only), completed
// traces are served from a bounded ring at GET /debug/trace (the
// newest DefaultTraceRingCap), in-flight ones at GET /debug/requests,
// per-stage latencies feed the netcut_gateway_stage_ms histograms,
// requests slower than GatewayConfig.SlowTraceMs log one structured
// line, and GatewayConfig.Pprof mounts net/http/pprof under
// /debug/pprof/. See the package comment's "Observability" section for
// the catalogue.
type (
	Gateway = gateway.Gateway
	// GatewayConfig parameterizes a Gateway: the embedded PlannerConfig
	// template and device list plus the deployment settings (body size
	// limit, queue depth, pass-permit count, state path, autosave
	// interval, slow-trace logging).
	// The shed warm-up (64 warm executions), the health and quarantine
	// thresholds, the probe cadence and the trace-ring size are fixed.
	GatewayConfig = gateway.Config
)

// DefaultTraceRingCap is the completed-trace retention of GET
// /debug/trace: the ring keeps the newest DefaultTraceRingCap traces.
const DefaultTraceRingCap = gateway.DefaultTraceRingCap

// NewGateway builds the serving gateway with one lane per device.
// Mount Handler() on an http.Server and call Shutdown to drain:
//
//	gw, err := netcut.NewGateway(netcut.GatewayConfig{})
//	srv := &http.Server{Addr: ":8080", Handler: gw.Handler()}
//	... srv.ListenAndServe() ...
//	srv.Shutdown(ctx) // stop accepting, finish in-flight handlers
//	gw.Shutdown(ctx)  // deliver every admitted call, stop background loops
func NewGateway(cfg GatewayConfig) (*Gateway, error) { return gateway.New(cfg) }

// StripTraceID removes the write-time-injected trace_id member from a
// response body, recovering the canonical rendering; StripDegraded
// does the same for the degraded/degraded_reason markers of an
// allow_degraded fallback. Together they recover the byte-identity
// invariant from any served body: two responses to the same resolved
// request are byte-identical after stripping both.
func StripTraceID(body []byte) []byte { return gateway.StripTraceID(body) }

// StripDegraded removes the degraded markers; see StripTraceID.
func StripDegraded(body []byte) []byte { return gateway.StripDegraded(body) }
