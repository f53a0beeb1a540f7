// Package serve implements the long-lived, concurrency-safe planning
// service on top of the NetCut substrates: one Planner accepts
// Select-style requests (graph + deadline + estimator kind) from many
// goroutines, shares a single simulated device, profiler and retraining
// simulator across all of them, and keeps every structure-keyed cache
// bounded, so a stream of arbitrary user graphs plans in constant
// memory.
//
// A Planner is also the one NetCut pipeline in the repository: the
// figure-reproduction Lab (internal/exp) is built on a Planner and takes
// its device, profiler, retraining simulator, zoo samples, trained
// estimators and candidates (Candidate) from it, adding only the
// paper-zoo artefacts the figures need. Measurement results are pure
// functions of (seed, device config, graph structure), so cross-request
// sharing is exact: a Planner's proposal for a paper network is
// byte-identical to the one a fresh single-use Lab would produce for the
// same seed, and repeated requests for the same architecture are cache
// hits end to end.
//
// Determinism contract: the Planner inherits the repository-wide rule
// that concurrency changes wall-clock time only. Every noise stream
// derives from Config.Seed plus the network's own name, generic
// transfer profiles derive from (name, layer count) alone, and caches
// are transparent (eviction forces an identical recompute), so N
// goroutines issuing any interleaving of requests receive byte-identical
// responses to a serial replay — the property the root package's
// planner stress tests pin.
//
// Because names seed those streams, admission enforces one structure
// per name for the life of the service (zoo names are reserved for the
// calibrated networks): a graph reusing an admitted name with a
// different structure is rejected with an error instead of being
// silently served with the earlier structure's curves.
package serve

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"netcut/internal/core"
	"netcut/internal/device"
	"netcut/internal/estimate"
	"netcut/internal/faultinject"
	"netcut/internal/graph"
	"netcut/internal/lru"
	"netcut/internal/par"
	"netcut/internal/profiler"
	"netcut/internal/telemetry"
	"netcut/internal/transfer"
	"netcut/internal/trim"
	"netcut/internal/zoo"
)

// Config parameterizes a Planner. The zero value serves with the
// calibrated Xavier device, the paper's measurement protocol and head,
// seed 0, and the package-default cache caps.
type Config struct {
	// Seed fixes every measurement and retraining noise stream; 0 is a
	// valid seed.
	Seed int64
	// Device overrides the simulated device; nil uses device.Xavier.
	Device *device.Config
	// Protocol overrides the measurement protocol; zero uses the
	// paper's 200/800.
	Protocol profiler.Protocol
	// Head overrides the replacement head; zero uses trim.DefaultHead.
	Head trim.HeadSpec
	// TrainFraction is the analytical estimator's train split; 0 = 20%.
	TrainFraction float64

	// Cache caps; 0 keeps each layer's current setting, negative means
	// unbounded. PlanCacheCap bounds the device's fingerprint-keyed
	// kernel plans and MeasurementCacheCap / TableCacheCap the profiler
	// memos — all three are per-Planner.
	PlanCacheCap        int
	MeasurementCacheCap int
	TableCacheCap       int
	// CutCacheCap re-bounds the TRN cut cache, which is process-wide
	// state shared by every Planner and direct trim.Cut caller: setting
	// it here is a convenience for single-tenant processes and affects
	// all of them (multi-tenant processes should call
	// trim.SetCutCacheCap once at startup instead). 0 leaves the
	// current cap — which may not be the package default if another
	// Planner already changed it — untouched.
	CutCacheCap int
}

func (c *Config) fill() {
	if c.Device == nil {
		cfg := device.Xavier()
		c.Device = &cfg
	}
	if c.Protocol == (profiler.Protocol{}) {
		c.Protocol = profiler.PaperProtocol()
	}
	if c.Head == (trim.HeadSpec{}) {
		c.Head = trim.DefaultHead
	}
	if c.TrainFraction == 0 {
		c.TrainFraction = 0.2
	}
}

// cap maps the Config cap convention (0 = default, negative =
// unbounded) onto the lru convention (<= 0 = unbounded).
func capOrDefault(v, def int) int {
	switch {
	case v == 0:
		return def
	case v < 0:
		return 0
	default:
		return v
	}
}

// ErrNameBound is the admission rejection for a graph reusing an
// already-admitted name with a different structure; callers branch on
// it with errors.Is (the gateway maps it to 409).
var ErrNameBound = errors.New("name is already bound to a different structure")

// Request asks the Planner for the deepest-accuracy cut of one graph
// that meets a deadline.
type Request struct {
	// Graph is the user network. It must pass graph.Validate and must
	// not be mutated after submission (the caches key on structure). A
	// graph sealed by its constructor (Builder.Finish, or graph.Check in
	// the gateway and snapshot decoders) is not validated again, and
	// its fingerprint is read, not recomputed; a hand-built graph is
	// validated and hashed on every request.
	Graph *graph.Graph
	// DeadlineMs is the application deadline; 0 means the prosthetic
	// hand's 0.9 ms. A negative or NaN deadline is rejected; +Inf is
	// met by the unmodified network (cut 0).
	DeadlineMs float64
	// Estimator selects the latency estimator: "profiler" (default,
	// Eq. 1 over the graph's own per-layer table), "analytical"
	// (shared epsilon-SVR trained once on the paper zoo), or "linear".
	Estimator string
	// Trace, when non-nil, receives the planner's internal phase
	// boundaries for this request — "measure" (profile registration +
	// device measurement + off-the-shelf accuracy, and for the
	// profiler estimator the graph's per-layer table), "estimate"
	// (estimator resolution, including a shared model's first
	// training), "explore" (Algorithm 1) — with absolute start/end
	// timestamps. Observability only: the callback sees timings, never
	// influences the response, and a request with the callback plans
	// identically to one without. It is invoked from whichever
	// goroutine runs this request's exploration, so it must be safe for
	// that (the gateway records into per-call storage read only after
	// delivery).
	Trace func(phase string, start, end time.Time)
}

// Response is the planning outcome for one request.
type Response struct {
	// Device names the calibrated target this response was planned
	// for: estimates, measurements and the accepted cut are all
	// functions of it.
	Device string
	// Feasible reports whether any cut of the graph meets the deadline;
	// when false the remaining fields are zero.
	Feasible bool
	// Network is the paper-style TRN label, e.g. "ResNet-50/104".
	Network string
	// Parent is the requested network's name.
	Parent string
	// BlocksRemoved / LayersRemoved describe the accepted cut.
	BlocksRemoved int
	LayersRemoved int
	// EstimatedMs is the estimator's latency for the accepted TRN;
	// MeasuredMs is the simulated ground truth.
	EstimatedMs float64
	MeasuredMs  float64
	// Accuracy is the retrained accuracy; TrainHours its simulated cost.
	Accuracy   float64
	TrainHours float64
	// Iterations counts the cutpoints Algorithm 1 examined.
	Iterations int
	// TRN is the accepted trimmed network (nil when infeasible).
	TRN *trim.TRN
}

// Planner is the long-lived planning service. One Planner is safe for
// arbitrarily many concurrent Select calls; all requests share the
// device's kernel-plan cache, the profiler's measurement and table
// memos, the process-wide cut cache, and the lazily trained analytical
// and linear estimators.
type Planner struct {
	cfg  Config
	dev  *device.Device
	prof *profiler.Profiler
	sim  *transfer.Simulator
	rt   core.Retrainer

	// zooSamples is the 148-TRN measured regression set the shared
	// analytical/linear estimators train on, built at most once.
	zooSamples par.Lazy[[]estimate.Sample]
	analytical par.Lazy[*estimate.AnalyticalEstimator]
	linear     par.Lazy[*estimate.LinearEstimator]

	// names binds each admitted network name to its structural
	// fingerprint. The measurement seeds, transfer profiles and
	// boundary memos all key on the name, so one name must mean one
	// structure for the life of the service; a graph reusing an
	// admitted name with a different structure is rejected rather than
	// silently served with the earlier structure's retraining curve.
	// Zoo names are never stored here (see Select).
	names sync.Map // name -> graph fingerprint (uint64)

	// stairs holds the answer staircases (staircase.go): one
	// core.Staircase per (name, structure, estimator) with the finished
	// answers of its accepted steps, bounded like the per-structure
	// profiler tables.
	stairs *lru.Cache[stairKey, *stairs]

	requests atomic.Uint64

	// tel is the optional telemetry surface, set by Instrument. It is
	// observability only: recording never influences a response, so the
	// determinism contract is untouched.
	tel atomic.Pointer[plannerTel]
}

// plannerTel bundles the planner's own series: how many requests ran a
// real planning execution (the gateway's coalescing divides its request
// count by this), and the cold/warm split of execution latency (the
// gateway's load shedding reads the warm p99).
type plannerTel struct {
	executions *telemetry.Counter
	coldMs     *telemetry.Histogram
	warmMs     *telemetry.Histogram
}

// New builds a Planner and applies the configured cache bounds. An
// invalid device profile is a structured constructor error — the
// service boundary never panics on configuration input.
func New(cfg Config) (*Planner, error) {
	cfg.fill()
	dev, err := device.NewChecked(*cfg.Device)
	if err != nil {
		return nil, fmt.Errorf("serve: device %q: %w", cfg.Device.Name, err)
	}
	dev.SetPlanCacheCap(capOrDefault(cfg.PlanCacheCap, device.DefaultPlanCacheCap))
	prof, err := profiler.New(dev, cfg.Protocol, cfg.Seed)
	if err != nil {
		return nil, err
	}
	prof.SetCacheCaps(
		capOrDefault(cfg.MeasurementCacheCap, profiler.DefaultMeasurementCacheCap),
		capOrDefault(cfg.TableCacheCap, profiler.DefaultTableCacheCap),
	)
	if cfg.CutCacheCap != 0 {
		trim.SetCutCacheCap(capOrDefault(cfg.CutCacheCap, trim.DefaultCutCacheCap))
	}
	sim := transfer.NewSimulator(cfg.Seed)
	p := &Planner{cfg: cfg, dev: dev, prof: prof, sim: sim,
		stairs: lru.New[stairKey, *stairs](capOrDefault(cfg.TableCacheCap, profiler.DefaultTableCacheCap))}
	p.rt = core.RetrainerFunc(func(t *trim.TRN) (core.TrainResult, error) {
		r, err := sim.Retrain(t)
		return core.TrainResult{Accuracy: r.Accuracy, TrainHours: r.TrainHours}, err
	})
	return p, nil
}

// Seed returns the planner's base seed.
func (p *Planner) Seed() int64 { return p.cfg.Seed }

// DeviceName returns the name of the calibrated target this planner
// plans for.
func (p *Planner) DeviceName() string { return p.cfg.Device.Name }

// DeviceConfig returns the planner's device calibration.
func (p *Planner) DeviceConfig() device.Config { return p.dev.Config() }

// Config returns the planner's configuration with every default
// filled in.
func (p *Planner) Config() Config { return p.cfg }

// Device returns the planner's simulated device.
func (p *Planner) Device() *device.Device { return p.dev }

// Profiler returns the planner's shared profiler.
func (p *Planner) Profiler() *profiler.Profiler { return p.prof }

// Simulator returns the planner's retraining simulator.
func (p *Planner) Simulator() *transfer.Simulator { return p.sim }

// Retrainer returns the retraining backend Algorithm 1 runs with.
func (p *Planner) Retrainer() core.Retrainer { return p.rt }

// Select plans one request: validate the graph, measure it on the
// shared device (a cache hit for any structure seen before), run
// Algorithm 1 with the requested estimator, and return the
// highest-accuracy deadline-feasible cut. Safe for concurrent callers;
// the response is a pure function of (Config, Request).
func (p *Planner) Select(req Request) (*Response, error) {
	p.requests.Add(1)
	g := req.Graph
	if g == nil {
		return nil, fmt.Errorf("serve: nil graph")
	}
	// A sealed graph passed Validate in its constructor (see the
	// graph.Graph doc); only a hand-built one is checked here.
	if !g.Sealed() {
		if err := graph.Validate(g); err != nil {
			return nil, fmt.Errorf("serve: rejecting graph: %w", err)
		}
	}
	deadline := req.DeadlineMs
	if deadline == 0 {
		deadline = 0.9
	}
	if !(deadline >= 0) { // also rejects NaN
		return nil, fmt.Errorf("serve: deadline %v is negative or NaN", deadline)
	}
	// An unknown estimator is rejected before any planner work. The
	// profiler estimator reads g's own per-layer table, which the
	// measure phase builds together with the measurement.
	kind, ok := estimatorKind(req.Estimator)
	if !ok {
		return nil, fmt.Errorf("serve: unknown estimator %q", req.Estimator)
	}
	profiled := kind == "profiler"
	// Admission: one name, one structure (see the names field), bound
	// only by a request that passed every check above. A zoo name is
	// bound to the process's shared calibrated network from the start.
	// The fingerprint-equal path is the common repeated-request case.
	print := graph.Fingerprint(g)
	bound := print
	if zg, ok := zoo.Lookup(g.Name); ok {
		bound = graph.Fingerprint(zg)
	} else if prev, loaded := p.names.LoadOrStore(g.Name, print); loaded {
		bound = prev.(uint64)
	}
	if bound != print {
		return nil, fmt.Errorf("serve: rejecting graph %q: %w", g.Name, ErrNameBound)
	}

	// Telemetry wraps the execution from here down: validation failures
	// above never count as executions, which is what lets the gateway's
	// shed and coalesce tests assert "no planner work" via the counter.
	tel := p.tel.Load()
	var warm bool
	var start time.Time
	if tel != nil {
		tel.executions.Inc()
		// Warm means the request runs no cold protocol: a profiler
		// request whose table is not cached builds one.
		warm = p.prof.HasMeasurement(g) && (!profiled || p.prof.HasTable(g))
		start = time.Now()
	}
	record := func() {
		if tel == nil {
			return
		}
		ms := float64(time.Since(start)) / float64(time.Millisecond)
		if warm {
			tel.warmMs.Observe(ms)
		} else {
			tel.coldMs.Observe(ms)
		}
	}

	// Fault site (no-op unless a test armed it): a stuck execution,
	// placed after the execution counter so a stuck plan is already
	// visible as planner work that started.
	faultinject.Delay(faultinject.ExecDelay, g.Name)

	// Phase boundaries for the optional per-request trace callback: one
	// clock read per boundary, none at all when no trace is attached.
	var phaseStart time.Time
	phase := func(name string) {
		if req.Trace == nil {
			return
		}
		now := time.Now()
		if name != "" {
			req.Trace(name, phaseStart, now)
		}
		phaseStart = now
	}
	phase("")

	cand, tbl, err := p.candidate(g, profiled)
	if err != nil {
		return nil, err
	}
	phase("measure")

	// Algorithm 1 runs on the graph's answer staircase (core.Staircase):
	// the estimator is resolved only when the deadline falls past the
	// explored prefix, and the loop resumes where earlier requests left
	// it. A prefix only grows, so a staircase that was long enough here
	// still is inside climb.
	st := p.staircase(stairKey{name: g.Name, print: print, estimator: kind}, cand)
	var est estimate.Estimator
	if st.cur.Load().Short(deadline) {
		if est, err = p.estimator(kind, g, cand.MeasuredMs, tbl); err != nil {
			return nil, err
		}
	}
	phase("estimate")

	a, err := p.climb(st, cand, deadline, est)
	if err != nil {
		return nil, err
	}
	resp := a.resp
	if resp.Feasible {
		// The staircase holds no TRN; the cut cache does.
		if resp.TRN, err = trim.Cut(g, resp.BlocksRemoved, p.cfg.Head); err != nil {
			return nil, err
		}
	}
	phase("explore")
	record()
	return &resp, nil
}

// Candidate builds the Algorithm-1 input for g: its measured latency on
// the planner's device and its off-the-shelf accuracy, registering a
// generic transfer profile first when g is outside the calibrated zoo.
func (p *Planner) Candidate(g *graph.Graph) (core.Candidate, error) {
	cand, _, err := p.candidate(g, false)
	return cand, err
}

// candidate is Candidate that, when withTable is set, also returns g's
// per-layer profiler table, measuring and profiling g in one
// Profiler.MeasureProfile so the two protocols share one pass over g's
// noise stream.
func (p *Planner) candidate(g *graph.Graph, withTable bool) (core.Candidate, *profiler.Table, error) {
	if err := p.ensureProfile(g); err != nil {
		return core.Candidate{}, nil, err
	}
	acc, err := p.sim.OffTheShelfAccuracy(g.Name)
	if err != nil {
		return core.Candidate{}, nil, err
	}
	var m profiler.Measurement
	var tbl *profiler.Table
	if withTable {
		m, tbl = p.prof.MeasureProfile(g)
	} else {
		m = p.prof.Measure(g)
	}
	return core.Candidate{
		Graph:      g,
		MeasuredMs: m.MeanMs,
		Accuracy:   acc,
	}, tbl, nil
}

// ensureProfile registers a deterministic generic transfer profile for
// networks outside the calibrated zoo, so arbitrary user graphs can be
// "retrained". Derived from (name, feature-layer count) alone, the
// profile is the same whichever request registers it first.
func (p *Planner) ensureProfile(g *graph.Graph) error {
	if p.sim.HasProfile(g.Name) {
		return nil
	}
	return p.sim.RegisterProfile(transfer.GenericProfile(g.Name, g.FeatureLayerCount()))
}

// estimator resolves the per-request estimator. The profiler kind
// reads tbl, the request graph's own profile (one bounded-cached table
// per structure); the analytical and linear kinds share one model
// trained on the paper zoo, overlaid — copy-on-write, never mutating
// the shared model — with the request graph's measured parent latency.
func (p *Planner) estimator(kind string, g *graph.Graph, parentMs float64, tbl *profiler.Table) (estimate.Estimator, error) {
	switch kind {
	case "", "profiler":
		return estimate.NewProfilerEstimator(map[string]*profiler.Table{g.Name: tbl}), nil
	case "analytical":
		base, err := p.AnalyticalEstimator()
		if err != nil {
			return nil, err
		}
		return base.WithParentLatency(g.Name, parentMs), nil
	case "linear":
		base, err := p.LinearEstimator()
		if err != nil {
			return nil, err
		}
		return base.WithParentLatency(g.Name, parentMs), nil
	default:
		return nil, fmt.Errorf("serve: unknown estimator %q", kind)
	}
}

// ZooSamples returns the 148 blockwise TRNs of the paper zoo with
// measured ground-truth latencies, in zoo order: the regression set of
// Sec. V-B2 that the analytical and linear estimators train on. It is
// built once; callers must not mutate the returned slice.
func (p *Planner) ZooSamples() ([]estimate.Sample, error) {
	return p.zooSamples.Get(p.buildZooSamples)
}

// buildZooSamples enumerates the blockwise family of every zoo network
// (cheap, serial) and fans the ground-truth measurements out over the
// pool. Each measurement's noise stream derives from the TRN's own
// name, so the sample list is identical in any schedule.
func (p *Planner) buildZooSamples() ([]estimate.Sample, error) {
	nets := zoo.Paper7()
	parentMs := make([]float64, len(nets))
	err := par.ForEach(len(nets), func(i int) error {
		parentMs[i] = p.prof.Measure(nets[i]).MeanMs
		return nil
	})
	if err != nil {
		return nil, err
	}
	var out []estimate.Sample
	for i, g := range nets {
		trns, err := trim.EnumerateBlockwise(g, p.cfg.Head, false)
		if err != nil {
			return nil, err
		}
		for _, tr := range trns {
			out = append(out, estimate.Sample{TRN: tr, ParentLatencyMs: parentMs[i]})
		}
	}
	err = par.ForEach(len(out), func(i int) error {
		out[i].MeasuredMs = p.prof.Measure(out[i].TRN.Graph).MeanMs
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// AnalyticalEstimator returns the shared SVR estimator, trained once on
// the stratified TrainFraction split of ZooSamples.
func (p *Planner) AnalyticalEstimator() (*estimate.AnalyticalEstimator, error) {
	return p.analytical.Get(p.buildAnalytical)
}

// LinearEstimator returns the shared OLS baseline, trained once on the
// same split.
func (p *Planner) LinearEstimator() (*estimate.LinearEstimator, error) {
	return p.linear.Get(p.buildLinear)
}

func (p *Planner) buildAnalytical() (*estimate.AnalyticalEstimator, error) {
	samples, err := p.ZooSamples()
	if err != nil {
		return nil, err
	}
	train, _ := estimate.StratifiedSplit(samples, p.cfg.TrainFraction, p.cfg.Seed)
	return estimate.TrainAnalytical(train, estimate.AnalyticalConfig{Seed: p.cfg.Seed})
}

func (p *Planner) buildLinear() (*estimate.LinearEstimator, error) {
	samples, err := p.ZooSamples()
	if err != nil {
		return nil, err
	}
	train, _ := estimate.StratifiedSplit(samples, p.cfg.TrainFraction, p.cfg.Seed)
	return estimate.TrainLinear(train)
}

// Stats is a point-in-time snapshot of the planner's shared state.
type Stats struct {
	Requests     uint64
	Plans        lru.Stats // device kernel-plan cache
	Measurements lru.Stats // profiler end-to-end measurements
	Tables       lru.Stats // profiler per-layer tables
	Cuts         lru.Stats // process-wide TRN cut cache
	Staircases   lru.Stats // answer staircases
}

// Instrument threads the planner and every cache layer under it into a
// telemetry registry: the device's kernel-plan cache, the profiler's
// measurement and table memos, the process-wide cut cache, plus the
// planner's own request/execution counters and the cold/warm execution
// latency histograms. Every planner-owned series carries a device
// label with the target's calibration name, so a pool of planners
// shares one registry with per-target series (the cut cache is
// process-wide and stays unlabeled). Call it once, before serving;
// recording is observability only and never influences a response.
func (p *Planner) Instrument(reg *telemetry.Registry) {
	labels := []telemetry.Label{{Key: "device", Value: p.cfg.Device.Name}}
	p.dev.Instrument(reg)
	p.prof.Instrument(reg)
	trim.Instrument(reg)
	reg.CounterFuncWith("netcut_planner_requests_total",
		"planning requests accepted by the planner (including invalid ones)",
		labels, p.requests.Load)
	p.tel.Store(&plannerTel{
		executions: reg.CounterWith("netcut_planner_executions_total",
			"planning executions: validated requests that ran the measurement pipeline and Algorithm 1",
			labels),
		coldMs: reg.HistogramWith("netcut_planner_cold_ms",
			"execution latency of requests whose structure was not yet measured, or not yet profiled for the profiler estimator", nil, labels),
		warmMs: reg.HistogramWith("netcut_planner_warm_ms",
			"execution latency of requests served from the shared measurement and profiler-table caches", nil, labels),
	})
}

// Executions returns the number of planning executions since Instrument
// was called (0 before): the counter the gateway's coalescing and
// shedding assertions read.
func (p *Planner) Executions() uint64 {
	if tel := p.tel.Load(); tel != nil {
		return tel.executions.Value()
	}
	return 0
}

// WarmQuantile estimates the q-quantile of warm execution latency in
// milliseconds, and reports how many warm executions it is based on.
// The gateway's deadline-aware admission reads the p99. When the rank
// falls past the histogram's last finite bucket the estimate is the
// tracked overflow maximum — conservative (an over-estimate sheds a
// request that might have fit; an under-estimate would queue one into
// certain lateness).
func (p *Planner) WarmQuantile(q float64) (ms float64, samples uint64) {
	tel := p.tel.Load()
	if tel == nil {
		return 0, 0
	}
	return tel.warmMs.Quantile(q), tel.warmMs.Count()
}

// Stats reports request and cache counters, the service's
// observability surface (cmd/netserve prints it).
func (p *Planner) Stats() Stats {
	m, t := p.prof.CacheStats()
	return Stats{
		Requests:     p.requests.Load(),
		Plans:        p.dev.PlanCacheStats(),
		Measurements: m,
		Tables:       t,
		Cuts:         trim.CutCacheStats(),
		Staircases:   p.stairs.Stats(),
	}
}
