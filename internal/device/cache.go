package device

import "netcut/internal/graph"

// planInfo is the memoized execution state of one graph on one device:
// each kernel's noise-free steady-state time and their sum, and the
// per-kernel row templates that profiled inference charges fused layers
// with. Everything here is loop-invariant across measurement runs, so a
// Session computes none of it — the 200-warm-up/800-run protocol
// touches only the noise stream. planInfo holds no reference to the
// graph it was built from, so a cached plan never keeps a caller's
// graph alive.
type planInfo struct {
	key      uint64    // the plan key this plan is cached under
	baseMs   []float64 // per-kernel steady-state latency (KernelTimeMs)
	steadyMs float64   // sum of baseMs: the noise-free end-to-end latency
	// rowTmpl[ki] holds one template row per fused node of kernel ki —
	// node identity plus its MAC share of the kernel — so profiled
	// inference fills in nothing but the two noise terms per row.
	rowTmpl [][]profRow
	rows    int // total fused nodes, sizing profiled-row buffers
}

// profRow is the loop-invariant part of one profiled-table row.
type profRow struct {
	nodeID int
	name   string
	kind   graph.OpKind
	share  float64 // MAC share of the owning kernel's time
}

// plan returns the memoized execution state of g, building it on first
// use. The cache has one level, keyed by the structural fingerprint
// (scoped by the calibration, see planKey): a sealed graph carries its
// fingerprint, so a repeat costs one LRU hit, and independently built
// copies of a structure — a TRN re-cut by two explorations — share one
// planInfo. The LRU is bounded, and eviction is transparent because
// buildPlan is a pure function of (config, structure). Safe for
// concurrent callers; on a race both build the same deterministic
// value and one copy wins.
func (d *Device) plan(g *graph.Graph) *planInfo {
	key := planKey(d.print, graph.Fingerprint(g))
	return d.byPrint.GetOrCompute(key, func() *planInfo {
		return d.buildPlan(g, key)
	})
}

// planKey folds the device-calibration fingerprint into the graph's
// structural fingerprint. Making the device half of the key explicit —
// rather than relying on each Device owning its own cache map — means
// plan keys are globally unambiguous: the profiler memos they flow
// into can never alias two targets' results, even when a pool of
// planners shares downstream state.
func planKey(cfgPrint, graphPrint uint64) uint64 {
	return graph.NewHash().Mix(cfgPrint).Mix(graphPrint).Sum()
}

// PlanKey returns the cache key of g on this device: the structural
// fingerprint scoped by the device-calibration fingerprint. Two graphs
// with the same key execute identically — same device, same plan, same
// steady-state kernel times — which is what lets higher layers memoize
// whole measurements per key; two targets never share a key for the
// same graph.
func (d *Device) PlanKey(g *graph.Graph) uint64 { return d.plan(g).key }

func (d *Device) buildPlan(g *graph.Graph, key uint64) *planInfo {
	kernels := d.cfg.Plan(g)
	info := &planInfo{
		key:     key,
		baseMs:  make([]float64, len(kernels)),
		rowTmpl: make([][]profRow, len(kernels)),
	}
	for i := range kernels {
		k := &kernels[i]
		info.baseMs[i] = d.KernelTimeMs(k)
		info.steadyMs += info.baseMs[i]
		var macs int64
		for _, id := range k.Nodes {
			macs += g.Node(id).MACs
		}
		tmpl := make([]profRow, len(k.Nodes))
		for j, id := range k.Nodes {
			n := g.Node(id)
			share := 1.0 / float64(len(k.Nodes))
			if macs > 0 {
				share = float64(n.MACs) / float64(macs)
			}
			tmpl[j] = profRow{nodeID: id, name: n.Name, kind: n.Kind, share: share}
		}
		info.rowTmpl[i] = tmpl
		info.rows += len(k.Nodes)
	}
	return info
}
