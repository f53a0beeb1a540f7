// Package profiler implements the measurement protocol of Sec. IV-B2 and
// the per-layer latency tables of Sec. V-B1.
//
// Performance results follow the paper's protocol exactly: the device is
// warmed up with 200 inferences, then latency is reported as the average
// over another 800 timed runs. Per-layer tables are collected with
// event-style instrumentation, whose overhead makes the table sum
// slightly exceed the end-to-end latency — the effect the profiler-based
// estimator's ratio formulation (Eq. 1) cancels.
package profiler

import (
	"fmt"
	"hash/fnv"
	"io"
	"sync"

	"netcut/internal/device"
	"netcut/internal/graph"
	"netcut/internal/lru"
	"netcut/internal/metric"
	"netcut/internal/par"
	"netcut/internal/telemetry"
)

// Protocol fixes the measurement counts. The zero value is invalid; use
// PaperProtocol.
type Protocol struct {
	WarmupRuns int
	TimedRuns  int
}

// PaperProtocol is the paper's 200-warm-up / 800-run protocol.
func PaperProtocol() Protocol { return Protocol{WarmupRuns: 200, TimedRuns: 800} }

func (p Protocol) validate() error {
	if p.WarmupRuns < 0 || p.TimedRuns <= 0 {
		return fmt.Errorf("profiler: invalid protocol %+v", p)
	}
	return nil
}

// Measurement is the end-to-end latency summary of one network.
type Measurement struct {
	Network string
	MeanMs  float64
	StdMs   float64
	Runs    int
}

// LayerStat is one row of a per-layer latency table: the mean measured
// latency of one layer across the timed runs.
type LayerStat struct {
	NodeID int
	Name   string
	Kind   graph.OpKind
	MeanMs float64
}

// Table is the per-layer profile of one network — the artefact Eq. (1)
// consumes. One table is built per unmodified network (Sec. V-B1: "the
// number of tables generated is equal to the number of unmodified
// networks").
type Table struct {
	Network string
	Layers  []LayerStat
	// EndToEndMs is the mean plain (non-instrumented) latency measured
	// under the same protocol.
	EndToEndMs float64
	// rows indexes Layers by graph node ID: rows[id] is the row of node
	// id plus one, 0 when the node has no row.
	rows []int32

	// feature memoizes FeatureSumMs; the table is immutable once built,
	// so the sum is the same on every call.
	feature struct {
		once sync.Once
		ms   float64
		err  error
	}
}

// indexRows builds the node-ID index over Layers. A table holds one row
// per non-input node of its network, so node IDs run 1..len(Layers)
// (node 0 is the input) and the index is a slice as long as the table.
// It rejects an ID outside [0, len(Layers)] and a repeated ID (SumMs
// would count it twice).
func (t *Table) indexRows() error {
	t.rows = make([]int32, len(t.Layers)+1)
	for i, l := range t.Layers {
		if l.NodeID < 0 || l.NodeID >= len(t.rows) {
			return fmt.Errorf("node %d out of range [0,%d]", l.NodeID, len(t.Layers))
		}
		if t.rows[l.NodeID] != 0 {
			return fmt.Errorf("node %d appears twice", l.NodeID)
		}
		t.rows[l.NodeID] = int32(i + 1)
	}
	return nil
}

// SumMs returns the sum of per-layer mean latencies; due to event
// overhead it exceeds EndToEndMs.
func (t *Table) SumMs() float64 {
	var s float64
	for _, l := range t.Layers {
		s += l.MeanMs
	}
	return s
}

// LayerMs returns the mean latency of the layer with the given graph
// node ID and whether it is present.
func (t *Table) LayerMs(nodeID int) (float64, bool) {
	if nodeID < 0 || nodeID >= len(t.rows) || t.rows[nodeID] == 0 {
		return 0, false
	}
	return t.Layers[t.rows[nodeID]-1].MeanMs, true
}

// FeatureSumMs returns the sum of the per-layer means over g's feature
// layers (every node but the input and the classification head), added
// in g's node order: the denominator of Eq. (1). g must be the network
// the table profiles. The sum is computed on the first call and reused
// by every later one, so an explorer estimating many cuts of one
// network pays for it once per table.
func (t *Table) FeatureSumMs(g *graph.Graph) (float64, error) {
	t.feature.once.Do(func() {
		for _, n := range g.Nodes {
			if n.Head || n.Kind == graph.OpInput {
				continue
			}
			ms, ok := t.LayerMs(n.ID)
			if !ok {
				t.feature.err = fmt.Errorf("table for %q missing layer %d", g.Name, n.ID)
				return
			}
			t.feature.ms += ms
		}
	})
	return t.feature.ms, t.feature.err
}

// Profiler measures networks on a device.
//
// A Profiler's measurements are pure functions of the graph: the device
// is a deterministic simulation, the protocol and base seed are fixed
// at construction, and each network's noise stream derives from its own
// name (sessionSeed). Measure and Profile therefore memoize their
// results per structural plan key — re-measuring a network the paper's
// pipeline already measured (the sweep re-visits every sample TRN, the
// figure generators re-cut and re-measure proposals) is a cache hit
// that returns the byte-identical Measurement or Table.
//
// Both memoization layers are bounded LRUs (DefaultMeasurementCacheCap,
// DefaultTableCacheCap): measurements are pure functions of
// (seed, device config, structure), so an evicted entry recomputes to
// the identical value and a stream of arbitrary user graphs runs in
// constant memory. The memo key is the device plan key, which folds in
// the device-calibration fingerprint (device.Config.Fingerprint) — so
// in a multi-target deployment two devices can never share a
// Measurement or Table for the same graph, even if their profilers
// were pointed at one cache.
type Profiler struct {
	dev   *device.Device
	proto Protocol
	seed  int64

	measurements *lru.Cache[uint64, Measurement] // by device-scoped plan key
	tables       *lru.Cache[uint64, *Table]      // by device-scoped plan key
}

// DefaultMeasurementCacheCap bounds the end-to-end measurement cache;
// DefaultTableCacheCap bounds the (larger, rarer) per-layer tables.
const (
	DefaultMeasurementCacheCap = 8192
	DefaultTableCacheCap       = 1024
)

// New returns a Profiler using the given device and protocol.
func New(dev *device.Device, proto Protocol, seed int64) (*Profiler, error) {
	if err := proto.validate(); err != nil {
		return nil, err
	}
	return &Profiler{
		dev:          dev,
		proto:        proto,
		seed:         seed,
		measurements: lru.New[uint64, Measurement](DefaultMeasurementCacheCap),
		tables:       lru.New[uint64, *Table](DefaultTableCacheCap),
	}, nil
}

// SetCacheCaps re-bounds the measurement and table caches (<= 0 means
// unbounded), evicting least-recently-used entries as needed.
func (p *Profiler) SetCacheCaps(measurements, tables int) {
	p.measurements.Resize(measurements)
	p.tables.Resize(tables)
}

// CacheStats reports the measurement- and table-cache counters, in that
// order.
func (p *Profiler) CacheStats() (measurements, tables lru.Stats) {
	return p.measurements.Stats(), p.tables.Stats()
}

// Instrument registers both memoization layers' hit/miss/eviction/
// occupancy series on reg (netcut_profiler_measurements and
// netcut_profiler_tables prefixes), labeled with the device the
// profiler measures on.
func (p *Profiler) Instrument(reg *telemetry.Registry) {
	labels := []telemetry.Label{{Key: "device", Value: p.dev.Config().Name}}
	lru.InstrumentWith(reg, "netcut_profiler_measurements", labels, p.measurements)
	lru.InstrumentWith(reg, "netcut_profiler_tables", labels, p.tables)
}

// HasMeasurement reports whether g's end-to-end measurement is already
// memoized — the warm-path predicate the serving layer uses to classify
// request latency as cold or warm. It plans g if needed (work Measure
// would do anyway, shared via the device's plan cache) but does not
// touch the measurement cache's recency order or counters.
func (p *Profiler) HasMeasurement(g *graph.Graph) bool {
	return p.measurements.Contains(p.dev.PlanKey(g))
}

// HasTable is HasMeasurement for g's per-layer table.
func (p *Profiler) HasTable(g *graph.Graph) bool {
	return p.tables.Contains(p.dev.PlanKey(g))
}

// sessionSeed derives the per-network measurement seed from the
// profiler's base seed: seed XOR a hash of the network name. Each
// network therefore draws its own reproducible noise stream that is
// independent of every other network's, which is what lets the
// experiment harness measure many networks concurrently and still get
// results that are bit-identical to a serial run in any order.
func sessionSeed(base int64, name string) int64 {
	h := fnv.New64a()
	io.WriteString(h, name)
	return base ^ int64(h.Sum64())
}

// Measure runs the warm-up/timed protocol and returns the end-to-end
// latency summary of g. Structurally identical graphs share one cached
// result (see the Profiler doc comment for why this is exact).
func (p *Profiler) Measure(g *graph.Graph) Measurement {
	// A concurrent miss computes the identical value; either store wins.
	return p.measurements.GetOrCompute(p.dev.PlanKey(g), func() Measurement {
		return p.measure(p.warmup(g))
	})
}

// MeasureProfile returns Measure(g) and Profile(g), with the same
// results and cache counters as calling the two in that order: the
// caches are read and filled measurement first. When both miss, the
// two protocols share one warm-up — both open the same seeded session
// and run the same warm-up, so a fork of the warmed session is the
// session a second warm-up would produce — and their timed runs, which
// are then independent, run as two par.ForEach tasks: concurrently
// when GOMAXPROCS allows, serially (measurement first) otherwise. A
// panic in either surfaces on the caller as a *par.TaskPanic.
func (p *Profiler) MeasureProfile(g *graph.Graph) (Measurement, *Table) {
	key := p.dev.PlanKey(g)
	var built *Table
	m := p.measurements.GetOrCompute(key, func() Measurement {
		s := p.warmup(g)
		if p.tables.Contains(key) {
			return p.measure(s)
		}
		fork := s.Fork()
		var measured Measurement
		par.ForEach(2, func(i int) error {
			if i == 0 {
				measured = p.measure(s)
			} else {
				built = p.profile(fork)
			}
			return nil
		})
		return measured
	})
	tbl := p.tables.GetOrCompute(key, func() *Table {
		if built == nil {
			return p.profile(p.warmup(g))
		}
		return built
	})
	return m, tbl
}

// warmup opens g's seeded session and runs the protocol's warm-up on
// it: the identical first phase of Measure and Profile.
func (p *Profiler) warmup(g *graph.Graph) *device.Session {
	s := p.dev.Open(g, sessionSeed(p.seed, g.Name))
	for i := 0; i < p.proto.WarmupRuns; i++ {
		s.InferMs()
	}
	return s
}

// measure runs the timed phase of the end-to-end protocol on a
// warmed-up session.
func (p *Profiler) measure(s *device.Session) Measurement {
	lat := make([]float64, p.proto.TimedRuns)
	for i := range lat {
		lat[i] = s.InferMs()
	}
	return Measurement{
		Network: s.Graph().Name,
		MeanMs:  metric.Mean(lat),
		StdMs:   metric.Std(lat),
		Runs:    p.proto.TimedRuns,
	}
}

// Profile runs the protocol with per-layer event instrumentation and
// returns the layer table for g. Structurally identical graphs share
// one cached table; callers treat tables as immutable.
func (p *Profiler) Profile(g *graph.Graph) *Table {
	return p.tables.GetOrCompute(p.dev.PlanKey(g), func() *Table {
		return p.profile(p.warmup(g))
	})
}

// profile runs the timed phase of the instrumented protocol on a
// warmed-up session.
func (p *Profiler) profile(s *device.Session) *Table {
	g := s.Graph()
	// The execution plan — and therefore the profiled row order — is
	// identical on every run, so the runs accumulate positionally into
	// one sums slice, with no rows and no map ops in the hot loop.
	layers := s.ProfiledLayers()
	sums := make([]float64, len(layers))
	var endToEnd float64
	for i := 0; i < p.proto.TimedRuns; i++ {
		endToEnd += s.InferProfiledAdd(sums)
	}
	tbl := &Table{
		Network:    g.Name,
		EndToEndMs: endToEnd / float64(p.proto.TimedRuns),
		Layers:     make([]LayerStat, len(layers)),
	}
	for ri, l := range layers {
		tbl.Layers[ri] = LayerStat{
			NodeID: l.NodeID,
			Name:   l.Name,
			Kind:   l.Kind,
			MeanMs: sums[ri] / float64(p.proto.TimedRuns),
		}
	}
	if err := tbl.indexRows(); err != nil {
		// The plan gives every non-input node exactly one row.
		panic(fmt.Sprintf("profiler: profiling %s: %v", g.Name, err))
	}
	return tbl
}
