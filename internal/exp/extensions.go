package exp

import (
	"netcut/internal/core"
	"netcut/internal/estimate"
	"netcut/internal/graph"
	"netcut/internal/pareto"
	"netcut/internal/profiler"
	"netcut/internal/zoo"
)

// AblIterativeCost compares NetCut against a NetAdapt-style baseline
// that retrains every candidate cutpoint instead of estimating its
// latency (the Sec. II related-work criticism). Both reach equivalent
// selections; the cost gap is the point.
func (l *Lab) AblIterativeCost() (*Figure, error) {
	cands, err := l.Candidates()
	if err != nil {
		return nil, err
	}
	prof := l.ProfilerEstimator()
	netcutRes, err := core.Explore(cands, l.cfg.DeadlineMs, prof, l.rt, l.cfg.Head)
	if err != nil {
		return nil, err
	}
	measure := core.Measurer(func(g *graph.Graph) float64 { return l.prof.Measure(g).MeanMs })
	iterRes, err := core.IterativeExplore(cands, l.cfg.DeadlineMs, l.rt, measure, l.cfg.Head)
	if err != nil {
		return nil, err
	}

	f := &Figure{
		ID:    "abl-iterative",
		Title: "Ablation: estimator-driven vs retrain-each-iteration exploration",
	}
	s := Series{Name: "summary"}
	s.add(0, netcutRes.ExplorationHours, "NetCut exploration hours")
	s.add(1, float64(netcutRes.RetrainedCount), "NetCut TRNs retrained")
	s.add(2, iterRes.ExplorationHours, "iterative (NetAdapt-style) exploration hours")
	s.add(3, float64(iterRes.RetrainedCount), "iterative TRNs retrained")
	f.Series = append(f.Series, s)

	if netcutRes.Best != nil && iterRes.Best != nil {
		f.Note("selections: NetCut %s (%.3f) vs iterative %s (%.3f)",
			netcutRes.Best.TRN.Name(), netcutRes.Best.Accuracy,
			iterRes.Best.TRN.Name(), iterRes.Best.Accuracy)
	}
	if netcutRes.ExplorationHours > 0 {
		f.Note("retraining every examined cutpoint costs %.1fx more exploration time for an equivalent selection",
			iterRes.ExplorationHours/netcutRes.ExplorationHours)
	}
	return f, nil
}

// AblExtendedZoo reruns the exploration with the extended zoo (the
// paper's seven plus VGG-16 and SqueezeNet 1.1) to show the methodology
// absorbs new architecture families without change.
func (l *Lab) AblExtendedZoo() (*Figure, error) {
	base, err := l.Candidates()
	if err != nil {
		return nil, err
	}
	cands := append([]core.Candidate(nil), base...)
	// Copy the lab's tables so the extension entries do not leak into
	// the shared paper-zoo state.
	extTables := make(map[string]*profiler.Table, len(zoo.Names)+len(zoo.ExtendedNames))
	for k, v := range l.Tables() {
		extTables[k] = v
	}
	for _, name := range zoo.ExtendedNames {
		g, err := zoo.ExtendedByName(name)
		if err != nil {
			return nil, err
		}
		c, err := l.p.Candidate(g)
		if err != nil {
			return nil, err
		}
		extTables[name] = l.prof.Profile(g)
		cands = append(cands, c)
	}

	f := &Figure{
		ID:     "abl-extended",
		Title:  "Ablation: extended zoo (paper's 7 + VGG-16 + SqueezeNet 1.1)",
		XLabel: "latency (ms)",
		YLabel: "accuracy (angular distance)",
	}
	s := Series{Name: "off-the-shelf (extended)"}
	var pts []pareto.Point
	for _, c := range cands {
		s.add(c.MeasuredMs, c.Accuracy, c.Graph.Name)
		pts = append(pts, pareto.Point{Label: c.Graph.Name, Latency: c.MeasuredMs, Accuracy: c.Accuracy})
	}
	f.Series = append(f.Series, s)

	est := estimate.NewProfilerEstimator(extTables)
	res, err := core.Explore(cands, l.cfg.DeadlineMs, est, l.rt, l.cfg.Head)
	if err != nil {
		return nil, err
	}
	sel := Series{Name: "NetCut proposals (extended)"}
	for _, p := range res.Proposals {
		sel.add(l.prof.Measure(p.TRN.Graph).MeanMs, p.Accuracy, p.TRN.Name())
	}
	f.Series = append(f.Series, sel)
	if res.Best != nil {
		f.Note("extended-zoo selection at %.2f ms: %s (accuracy %.3f)",
			l.cfg.DeadlineMs, res.Best.TRN.Name(), res.Best.Accuracy)
	}
	if ga, ok := pareto.Gap(pts, l.cfg.DeadlineMs); ok {
		f.Note("extended off-the-shelf pick at the deadline: %s (%.3f)", ga.Selected.Label, ga.Selected.Accuracy)
	}
	return f, nil
}
