package device

import (
	"math"

	"netcut/internal/graph"
	"netcut/internal/lru"
	"netcut/internal/noise"
	"netcut/internal/telemetry"
)

// Device is a simulated embedded GPU. It memoizes the fused execution
// plan and steady-state kernel times of every graph it sees, the way a
// deployed engine caches compiled engines: repeated latency queries and
// session opens on the same network cost a cache hit, not a re-plan.
// The cache is keyed by structural fingerprint, so independently built
// copies of the same network (e.g. a TRN re-cut by two explorations)
// share one plan. It is a bounded LRU (DefaultPlanCacheCap), so a
// service planning a stream of arbitrary user graphs runs in constant
// memory; plans are pure functions of (config, structure), so eviction
// is transparent.
type Device struct {
	cfg     Config
	print   uint64 // cfg.Fingerprint(), folded into every plan key
	byPrint *lru.Cache[uint64, *planInfo]
	cold    []float64 // cfg.coldFactor(k) for the first coldTableRuns runs
}

// DefaultPlanCacheCap bounds the fingerprint-keyed plan cache. It
// comfortably covers the paper pipeline's working set (7 networks, 148
// blockwise TRNs, a few hundred exhaustive cuts) while capping what a
// stream of distinct user graphs can pin.
const DefaultPlanCacheCap = 4096

// coldTableRuns is how many leading runs' warm-up factors a Device
// tabulates at construction, so a session's run reads its factor
// instead of calling math.Exp. It covers the paper protocol's 1000
// runs; later runs compute the factor.
const coldTableRuns = 1024

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
	cold := make([]float64, coldTableRuns)
	for k := range cold {
		cold[k] = cfg.coldFactor(k)
	}
	return &Device{
		cfg:     cfg,
		print:   cfg.Fingerprint(),
		byPrint: lru.New[uint64, *planInfo](DefaultPlanCacheCap),
		cold:    cold,
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
// shared, immutable cache state; only the run counter, the noise stream
// and the draw buffer are per-session.
type Session struct {
	dev   *Device
	g     *graph.Graph
	info  *planInfo
	runs  int
	noise noise.Source
	buf   []float64 // Infer's draw buffer, kept for the next call
}

// Open prepares a session for g, reusing the device's memoized plan and
// steady-state kernel times. The seed makes the measurement-noise
// stream reproducible.
func (d *Device) Open(g *graph.Graph, seed int64) *Session {
	s := &Session{dev: d, g: g, info: d.plan(g)}
	s.noise.Seed(seed)
	return s
}

// Graph returns the network this session executes.
func (s *Session) Graph() *graph.Graph { return s.g }

// Runs returns the number of inferences executed so far.
func (s *Session) Runs() int { return s.runs }

// coldFactor models the warm-up transient of run k.
func (c *Config) coldFactor(k int) float64 {
	if c.ColdPenalty == 0 {
		return 1
	}
	return 1 + float64(c.ColdPenalty*math.Exp(-float64(k)/c.ColdRuns))
}

// coldFactor is the warm-up factor of run k, read from the device's
// table while k is in it.
func (d *Device) coldFactor(k int) float64 {
	if k < len(d.cold) {
		return d.cold[k]
	}
	return d.cfg.coldFactor(k)
}

// inferBlock is how many runs Infer draws per NormFill. Its buffer
// holds one block of runs, never a whole protocol.
const inferBlock = 8

// Skip executes runs inferences whose latencies nobody reads, such as a
// protocol's warm-up: it draws and discards their noise, leaving the
// session where as many InferMs calls would.
func (s *Session) Skip(runs int) { s.Infer(runs, nil, nil) }

// InferMs executes one inference and returns its measured latency in
// milliseconds, including warm-up and noise effects.
func (s *Session) InferMs() float64 {
	var lat [1]float64
	s.Infer(1, lat[:], nil)
	return lat[0]
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
	return s.Infer(1, nil, sums[:s.info.rows])
}

// Infer executes n inferences, drawing their noise inferBlock runs at
// a time, and returns the sum of their end-to-end latencies if sums is
// non-nil, else 0.
//
// A plain run (InferMs) draws 1+K normals: its run factor, then one per
// kernel in plan order. A profiled run (InferProfiledAdd) draws the
// same 1+K and, after each kernel's, one per fused row of that kernel.
// With sums nil the n runs are plain; with sums non-nil they are
// profiled, each adding its rows to sums as InferProfiledAdd does. If
// lat is non-nil, lat[i] receives what the i-th of n InferMs calls from
// the session's current state would return. With sums non-nil those
// plain runs read the stream's first n(1+K) normals, a prefix of the
// profiled runs' draws, so one draw feeds both protocols: a plain run
// that straddles two blocks carries its drawn normals over to the
// next. The session ends n runs on, at the end of what it drew.
func (s *Session) Infer(n int, lat, sums []float64) float64 {
	plain := 1 + len(s.info.baseMs)
	width := plain
	if sums != nil {
		sums = sums[:s.info.rows]
		width += s.info.rows
	}
	// buf[:plain] holds the carried head of a straddling plain run,
	// buf[plain:] one block's draws.
	if need := plain + min(n, inferBlock)*width; cap(s.buf) < need {
		s.buf = make([]float64, need)
	}
	first := s.runs
	var total float64
	carried, m := 0, 0 // lat[m] is the next plain run; carried its drawn normals
	for s.runs < first+n {
		drawn := s.buf[plain : plain+min(inferBlock, first+n-s.runs)*width]
		s.noise.NormFill(drawn)
		for z := drawn; len(z) > 0; z = z[width:] {
			if sums != nil {
				total += s.profiledMs(s.dev.coldFactor(s.runs), z[:width], sums)
			}
			s.runs++
		}
		if lat == nil {
			continue
		}
		z := s.buf[plain-carried : plain+len(drawn)]
		for ; m < n && len(z) >= plain; m++ {
			lat[m] = s.plainMs(s.dev.coldFactor(first+m), z[:plain])
			z = z[plain:]
		}
		if m < n {
			carried = copy(s.buf[plain-len(z):plain], z)
		}
	}
	return total
}

// plainMs is the latency of a plain run with warm-up factor cold and
// normals z: the run's global noise factor (clock and DVFS jitter
// affect all kernels of a run together) times the sum of the kernel
// times, each with its smaller independent jitter.
//
// Throughout the noise math, an explicit float64(x*y) rounds a product
// before it is added: the Go spec lets a compiler fuse x*y+z into one
// multiply-add, even across statements (arm64 builds do), and only a
// conversion rules that out, so every build computes the same bits.
// The draws themselves come from internal/noise, which reproduces
// math/rand's seeded normal stream; its ziggurat keeps math/rand's
// expressions unrounded on purpose, so it fuses wherever math/rand
// does.
func (s *Session) plainMs(cold float64, z []float64) float64 {
	sigma := s.dev.cfg.NoiseSigma
	run := 1 + float64(sigma*z[0])
	base := s.info.baseMs
	kz := z[1:][:len(base)]
	total := 0.0
	for k, b := range base {
		total += float64(b * (1 + float64(0.5*sigma*kz[k])))
	}
	return total * run * cold
}

// profiledMs is plainMs for a profiled run with normals z: it adds each
// row's share of its kernel's time plus the jittered event overhead to
// sums and returns the kernels' total.
func (s *Session) profiledMs(cold float64, z, sums []float64) float64 {
	sigma, ev := s.dev.cfg.NoiseSigma, s.dev.cfg.EventOverheadMs
	run := 1 + float64(sigma*z[0])
	total := 0.0
	zi, ri := 1, 0
	for ki, tmpl := range s.info.rowTmpl {
		t := float64(s.info.baseMs[ki] * (1 + float64(0.5*sigma*z[zi])) * run * cold)
		zi++
		total += t
		for j := range tmpl {
			// One draw per row, in plan order; both products are
			// rounded before the adds.
			jitter := 1 + float64(0.1*z[zi])
			zi++
			sums[ri] += float64(t*tmpl[j].share) + float64(ev*jitter)
			ri++
		}
	}
	return total
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
