// Package estimate implements the latency estimators of Sec. V-B that
// NetCut relies on to propose only deadline-feasible TRNs:
//
//   - ProfilerEstimator: Eq. (1). One per-layer latency table per
//     unmodified network; a TRN's latency is the parent's end-to-end
//     latency scaled by one minus the removed layers' share of the
//     table sum. The ratio form cancels the per-layer event overhead
//     that inflates the table.
//   - AnalyticalEstimator: an epsilon-SVR (RBF kernel) over
//     device-agnostic features — parent latency, MACs, parameters,
//     layer count and total filter size — tuned by 10-fold
//     cross-validated grid search (the paper lands on gamma = 1e-1,
//     C = 1e6).
//   - LinearEstimator: the same features through ordinary least
//     squares; the baseline whose ~24% error motivates the RBF kernel.
package estimate

import (
	"fmt"

	"netcut/internal/profiler"
	"netcut/internal/trim"
)

// Estimator predicts a TRN's inference latency in milliseconds.
type Estimator interface {
	Name() string
	EstimateMs(t *trim.TRN) (float64, error)
}

// ProfilerEstimator implements Eq. (1) from per-layer tables.
type ProfilerEstimator struct {
	tables map[string]*profiler.Table
}

// NewProfilerEstimator builds the estimator from one table per
// unmodified network, keyed by network name.
func NewProfilerEstimator(tables map[string]*profiler.Table) *ProfilerEstimator {
	cp := make(map[string]*profiler.Table, len(tables))
	for k, v := range tables {
		cp[k] = v
	}
	return &ProfilerEstimator{tables: cp}
}

// Name implements Estimator.
func (e *ProfilerEstimator) Name() string { return "profiler" }

// EstimateMs implements Eq. (1):
//
//	Latency(TRN_n) = Latency(Net_0) * (1 - sum(removed) / sum(all))
//
// where the sums run over the parent's feature layers (classification
// layers excluded) in the profiled table. sum(all) is the same for
// every cut of a parent, so the table computes it once
// (profiler.Table.FeatureSumMs) and a cut costs O(removed layers).
func (e *ProfilerEstimator) EstimateMs(t *trim.TRN) (float64, error) {
	tbl, removed, err := e.removedMs(t)
	if err != nil {
		return 0, err
	}
	all, err := tbl.FeatureSumMs(t.Parent)
	if err != nil {
		return 0, fmt.Errorf("estimate: %w", err)
	}
	if all <= 0 {
		return 0, fmt.Errorf("estimate: degenerate table sum for %q", t.Parent.Name)
	}
	return tbl.EndToEndMs * (1 - removed/all), nil
}

// removedMs returns the table of t's parent and the sum of its
// per-layer means over t's removed layers.
func (e *ProfilerEstimator) removedMs(t *trim.TRN) (*profiler.Table, float64, error) {
	tbl, ok := e.tables[t.Parent.Name]
	if !ok {
		return nil, 0, fmt.Errorf("estimate: no profile table for %q", t.Parent.Name)
	}
	var removed float64
	for _, id := range t.RemovedIDs {
		ms, ok := tbl.LayerMs(id)
		if !ok {
			return nil, 0, fmt.Errorf("estimate: table for %q missing removed layer %d", t.Parent.Name, id)
		}
		removed += ms
	}
	return tbl, removed, nil
}

// FeatureNames documents the device-agnostic feature vector order used
// by the analytical and linear estimators (Sec. V-B2).
var FeatureNames = []string{
	"parent_latency_ms",
	"macs",
	"params",
	"layers",
	"filter_size_sum",
}

// Features extracts the analytical model's feature vector for a TRN.
// parentLatencyMs is the measured latency of the unmodified parent
// network (the only device-dependent feature, available from the same
// seven measurements Fig. 1 needs).
func Features(t *trim.TRN, parentLatencyMs float64) []float64 {
	return []float64{
		parentLatencyMs,
		float64(t.Totals.MACs),
		float64(t.Totals.Params),
		float64(t.Totals.Layers),
		float64(t.Totals.FilterSize),
	}
}

// Sample is one training example for the regression estimators.
type Sample struct {
	TRN             *trim.TRN
	ParentLatencyMs float64
	MeasuredMs      float64 // ground-truth latency of the TRN
}
