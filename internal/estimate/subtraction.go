package estimate

import "netcut/internal/trim"

// SubtractionEstimator is the naive alternative to Eq. (1): subtract
// the removed layers' profiled latencies from the parent's end-to-end
// latency directly. Because per-layer event overhead inflates every
// table entry, the subtraction inherits that bias — the reason the
// paper adopts the ratio form ("the summation of layers is slightly
// more than the actual measured inference delay", Sec. V-B1). It is
// exported for the design-choice ablation.
type SubtractionEstimator struct {
	inner *ProfilerEstimator
}

// NewSubtractionEstimator builds the ablation estimator over the same
// tables the profiler estimator uses.
func NewSubtractionEstimator(p *ProfilerEstimator) *SubtractionEstimator {
	return &SubtractionEstimator{inner: p}
}

// Name implements Estimator.
func (e *SubtractionEstimator) Name() string { return "subtraction" }

// EstimateMs implements Estimator.
func (e *SubtractionEstimator) EstimateMs(t *trim.TRN) (float64, error) {
	tbl, removed, err := e.inner.removedMs(t)
	if err != nil {
		return 0, err
	}
	est := tbl.EndToEndMs - removed
	if est < 0 {
		est = 0
	}
	return est, nil
}
