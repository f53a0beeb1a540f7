package device

import (
	"math"
	"math/rand"
	"sync"

	"netcut/internal/graph"
	"netcut/internal/lru"
	"netcut/internal/telemetry"
)

// Device is a simulated embedded GPU. It memoizes the fused execution
// plan and steady-state kernel times of every graph it sees, the way a
// deployed engine caches compiled engines: repeated latency queries and
// session opens on the same network cost a cache hit, not a re-plan.
// The cache is two-level — by (weak) graph pointer for O(1) repeats
// that never outlive the graph, by structural fingerprint so
// independently built copies of the same network (e.g. a TRN re-cut by
// two explorations) share one plan. The fingerprint level is a bounded
// LRU (DefaultPlanCacheCap), so a service planning a stream of
// arbitrary user graphs runs in constant memory; plans are pure
// functions of (config, structure), so eviction is transparent.
type Device struct {
	cfg     Config
	print   uint64   // cfg.Fingerprint(), folded into every plan key
	byPtr   sync.Map // weak.Pointer[graph.Graph] -> *planInfo, self-evicting
	byPrint *lru.Cache[uint64, *planInfo]
}

// DefaultPlanCacheCap bounds the fingerprint-keyed plan cache. It
// comfortably covers the paper pipeline's working set (7 networks, 148
// blockwise TRNs, a few hundred exhaustive cuts) while capping what a
// stream of distinct user graphs can pin.
const DefaultPlanCacheCap = 4096

// New returns a Device for the given configuration. Configurations are
// static calibration tables, so an invalid one panics rather than
// returning an error through every measurement call. Service
// boundaries that accept device profiles as configuration input use
// NewChecked instead, so a bad profile is a structured startup error
// rather than a crash.
func New(cfg Config) *Device {
	d, err := NewChecked(cfg)
	if err != nil {
		panic(err)
	}
	return d
}

// NewChecked is New with the validation failure returned instead of
// panicking — the constructor for the planner/gateway paths, where a
// device profile arrives from flags or config rather than a calibrated
// table compiled into the binary.
func NewChecked(cfg Config) (*Device, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Device{
		cfg:     cfg,
		print:   cfg.Fingerprint(),
		byPrint: lru.New[uint64, *planInfo](DefaultPlanCacheCap),
	}, nil
}

// Fingerprint returns the calibration identity of this device
// (Config.Fingerprint, computed once at construction).
func (d *Device) Fingerprint() uint64 { return d.print }

// SetPlanCacheCap re-bounds the fingerprint-keyed plan cache, evicting
// least-recently-used plans if needed. cap <= 0 means unbounded.
func (d *Device) SetPlanCacheCap(cap int) { d.byPrint.Resize(cap) }

// Instrument registers the kernel-plan cache's hit/miss/eviction/
// occupancy series on reg under the netcut_device_plans prefix, with a
// device label carrying the calibration name so a multi-target pool's
// caches stay distinguishable on one scrape surface.
func (d *Device) Instrument(reg *telemetry.Registry) {
	lru.InstrumentWith(reg, "netcut_device_plans",
		[]telemetry.Label{{Key: "device", Value: d.cfg.Name}}, d.byPrint)
}

// PlanCacheStats reports the plan cache's size and hit counters.
func (d *Device) PlanCacheStats() lru.Stats { return d.byPrint.Stats() }

// Config returns the device configuration.
func (d *Device) Config() Config { return d.cfg }

// throughput returns the sustained MAC/s for a kernel, combining the
// precision mode, the kernel-class efficiency and the channel ramp.
func (c *Config) throughput(k *Kernel) float64 {
	peak := c.PeakMACs
	switch c.Precision {
	case INT8:
		peak *= c.INT8Speedup
	case FP32:
		peak /= c.FP32Slowdown
	}
	var eff float64
	switch k.Kind {
	case graph.OpConv:
		eff = c.ConvEff
	case graph.OpDWConv:
		eff = c.DWEff
	case graph.OpDense:
		eff = c.DenseEff
	case graph.OpMaxPool, graph.OpAvgPool, graph.OpGlobalAvgPool:
		eff = c.PoolEff
	default:
		eff = c.EltwEff
	}
	ch := float64(k.OutChannels)
	ramp := ch / (ch + c.ChannelKnee)
	return peak * eff * ramp
}

// KernelTimeMs returns the noise-free steady-state latency of one kernel
// in milliseconds: launch overhead plus the roofline maximum of compute
// and memory time.
func (d *Device) KernelTimeMs(k *Kernel) float64 {
	c := &d.cfg
	computeS := 0.0
	if k.MACs > 0 {
		computeS = float64(k.MACs) / c.throughput(k)
	}
	bytes := (float64(k.WeightBytes) + float64(k.IOBytes)) * c.Precision.bytesPerElem()
	memS := bytes / c.MemBandwidth
	return c.LaunchOverheadMs + float64(1e3*math.Max(computeS, memS))
}

// LatencyMs returns the noise-free steady-state end-to-end inference
// latency of g in milliseconds. After the first query for a graph this
// is a cache lookup.
func (d *Device) LatencyMs(g *graph.Graph) float64 {
	return d.plan(g).steadyMs
}

// Session is an open execution context for one network on the device.
// It tracks warm-up state and yields noisy per-run measurements, the way
// repeated timed inferences on real hardware do. The execution plan is
// shared, immutable cache state; only the run counter and noise stream
// are per-session.
type Session struct {
	dev  *Device
	g    *graph.Graph
	info *planInfo
	runs int
	rng  *rand.Rand
}

// Open prepares a session for g, reusing the device's memoized plan and
// steady-state kernel times. The seed makes the measurement-noise
// stream reproducible.
func (d *Device) Open(g *graph.Graph, seed int64) *Session {
	return &Session{
		dev:  d,
		g:    g,
		info: d.plan(g),
		rng:  rand.New(rand.NewSource(seed)),
	}
}

// Graph returns the network this session executes.
func (s *Session) Graph() *graph.Graph { return s.g }

// Runs returns the number of inferences executed so far.
func (s *Session) Runs() int { return s.runs }

// coldFactor models the warm-up transient of run k.
func (s *Session) coldFactor() float64 {
	c := &s.dev.cfg
	if c.ColdPenalty == 0 {
		return 1
	}
	return 1 + float64(c.ColdPenalty*math.Exp(-float64(s.runs)/c.ColdRuns))
}

// runNoise is the per-run global noise factor (clock and DVFS jitter
// affect all kernels of a run together); kernelNoise is the smaller
// independent per-kernel jitter.
//
// Throughout the noise math, an explicit float64(x*y) rounds a product
// before it is added: the Go spec lets a compiler fuse x*y+z into one
// multiply-add, even across statements (arm64 builds do), and only a
// conversion rules that out, so every build draws the same bits.
func (s *Session) runNoise() float64 {
	return 1 + float64(s.dev.cfg.NoiseSigma*s.rng.NormFloat64())
}

func (s *Session) kernelNoise() float64 {
	return 1 + float64(0.5*s.dev.cfg.NoiseSigma*s.rng.NormFloat64())
}

// InferMs executes one inference and returns its measured latency in
// milliseconds, including warm-up and noise effects.
func (s *Session) InferMs() float64 {
	cold := s.coldFactor()
	run := s.runNoise()
	s.runs++
	total := 0.0
	for _, b := range s.info.baseMs {
		total += float64(b * s.kernelNoise())
	}
	return total * run * cold
}

// ProfiledLayer identifies one row of a per-layer profiling table: a
// fused node of the execution plan, in plan order.
type ProfiledLayer struct {
	NodeID int
	Name   string
	Kind   graph.OpKind
}

// ProfiledLayers returns the row identities of a profiled run, in the
// order InferProfiledAdd accumulates them. Rows come from the plan's
// row template, so they are the same for every run of the session.
func (s *Session) ProfiledLayers() []ProfiledLayer {
	out := make([]ProfiledLayer, 0, s.info.rows)
	for _, tmpl := range s.info.rowTmpl {
		for _, r := range tmpl {
			out = append(out, ProfiledLayer{NodeID: r.nodeID, Name: r.name, Kind: r.kind})
		}
	}
	return out
}

// InferProfiledAdd executes one inference with per-layer event
// recording: it adds each layer's measured latency to the matching
// entry of sums (one per ProfiledLayers row; it panics if sums is
// shorter) and returns the end-to-end latency the run would have had
// without events. Kernel time is attributed to its fused layers
// proportionally to their MAC share (precomputed once per plan, not per
// run), and each recorded layer pays the event overhead — which is why
// the per-layer sum slightly exceeds the end-to-end latency, the effect
// Eq. (1) divides away. Accumulating in place lets an 800-run
// measurement protocol build a table without materializing any row.
func (s *Session) InferProfiledAdd(sums []float64) float64 {
	cold := s.coldFactor()
	run := s.runNoise()
	s.runs++
	total := 0.0
	ev := s.dev.cfg.EventOverheadMs
	sums = sums[:s.info.rows]
	ri := 0
	for ki, tmpl := range s.info.rowTmpl {
		t := float64(s.info.baseMs[ki] * s.kernelNoise() * run * cold)
		total += t
		for j := range tmpl {
			// One RNG draw per row, in plan order; both products are
			// rounded before the adds.
			jitter := 1 + float64(0.1*s.rng.NormFloat64())
			sums[ri] += float64(t*tmpl[j].share) + float64(ev*jitter)
			ri++
		}
	}
	return total
}
