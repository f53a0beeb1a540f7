// Package core implements NetCut (Algorithm 1): deadline-aware
// exploration of TRimmed Networks. For each trained off-the-shelf
// network, the cutpoint is incremented until a latency estimator says
// the TRN meets the application deadline; only those first-feasible
// TRNs are retrained, and the most accurate one wins. Against the
// 148-candidate blockwise sweep this cuts the number of retrained
// networks by ~95% and exploration time by ~27x (Sec. V).
//
// The loop exists once, as Staircase: Explore, the serving planner
// (internal/serve) and the figure Lab (internal/exp) all climb one.
package core

import (
	"fmt"

	"netcut/internal/estimate"
	"netcut/internal/graph"
	"netcut/internal/par"
	"netcut/internal/pareto"
	"netcut/internal/trim"
)

// TrainResult is the outcome of retraining one TRN.
type TrainResult struct {
	Accuracy   float64
	TrainHours float64
}

// Retrainer retrains a TRN and reports its accuracy and cost. The
// paper-scale backend is transfer.Simulator; the miniature real backend
// lives in internal/nn.
type Retrainer interface {
	Retrain(t *trim.TRN) (TrainResult, error)
}

// RetrainerFunc adapts a function to the Retrainer interface.
type RetrainerFunc func(t *trim.TRN) (TrainResult, error)

// Retrain implements Retrainer.
func (f RetrainerFunc) Retrain(t *trim.TRN) (TrainResult, error) { return f(t) }

// Candidate is one trained off-the-shelf network entering exploration:
// Algorithm 1's inputs are the N trained networks with their measured
// latencies and accuracies.
type Candidate struct {
	Graph      *graph.Graph
	MeasuredMs float64 // measured inference latency of the unmodified network
	Accuracy   float64 // transfer-learned accuracy of the unmodified network
	// Ignored: a cut does not depend on the device, so the cut cache
	// has one namespace.
	//
	// Deprecated: leave it unset. Only the benchmark module still sets
	// it.
	CacheScope uint64
}

// Proposal is the first deadline-feasible TRN found for one candidate.
type Proposal struct {
	TRN        *trim.TRN
	Cutpoint   int     // blocks removed
	EstimateMs float64 // estimator's latency for the accepted TRN
	Accuracy   float64 // accuracy after retraining
	TrainHours float64 // retraining cost (0 when Cutpoint == 0: already trained)
	Iterations int     // cutpoints examined, including the accepted one
}

// Result is a full NetCut run.
type Result struct {
	DeadlineMs    float64
	EstimatorName string
	Proposals     []Proposal
	// Infeasible lists networks whose deepest cut still misses the
	// deadline.
	Infeasible []string
	// Best points into Proposals at the highest-accuracy proposal, or is
	// nil when nothing is feasible.
	Best *Proposal
	// RetrainedCount is the number of TRNs that required retraining
	// (cutpoint > 0): the paper's "9 additional networks".
	RetrainedCount int
	// ExplorationHours sums the retraining cost of the proposals.
	ExplorationHours float64
}

// Explore runs Algorithm 1 over the candidates.
//
// For each candidate it climbs a fresh Staircase: from the unmodified
// network (estimated at its measured latency, per the algorithm's
// inputs) it increments the blockwise cutpoint until the estimator
// predicts the TRN meets the deadline. Only those TRNs are retrained.
// Candidates whose deepest cut still misses the deadline are reported
// as infeasible rather than failing the run.
//
// Per-candidate explorations are independent (the estimator and
// retrainer are read-only/schedule-free), so they run on a worker pool;
// proposals, infeasibles and Best are assembled in candidate order, so
// the result is identical to a serial run.
func Explore(cands []Candidate, deadlineMs float64, est estimate.Estimator, rt Retrainer, head trim.HeadSpec) (*Result, error) {
	if len(cands) == 0 {
		return nil, fmt.Errorf("netcut: no candidate networks")
	}
	if !(deadlineMs > 0) { // also rejects NaN
		return nil, fmt.Errorf("netcut: deadline %v is not positive", deadlineMs)
	}
	for _, c := range cands {
		if c.Graph == nil {
			return nil, fmt.Errorf("netcut: nil candidate graph")
		}
	}
	type outcome struct {
		p        Proposal
		feasible bool
	}
	outs := make([]outcome, len(cands))
	err := par.ForEach(len(cands), func(i int) error {
		p, feasible, err := exploreOne(cands[i], deadlineMs, est, rt, head)
		if err != nil {
			return fmt.Errorf("netcut: exploring %s: %w", cands[i].Graph.Name, err)
		}
		outs[i] = outcome{p: p, feasible: feasible}
		return nil
	})
	if err != nil {
		return nil, err
	}
	res := &Result{DeadlineMs: deadlineMs, EstimatorName: est.Name()}
	for i := range outs {
		if !outs[i].feasible {
			res.Infeasible = append(res.Infeasible, cands[i].Graph.Name)
			continue
		}
		res.Proposals = append(res.Proposals, outs[i].p)
		res.ExplorationHours += outs[i].p.TrainHours
		if outs[i].p.Cutpoint > 0 {
			res.RetrainedCount++
		}
	}
	for i := range res.Proposals {
		if res.Best == nil || res.Proposals[i].Accuracy > res.Best.Accuracy {
			res.Best = &res.Proposals[i]
		}
	}
	return res, nil
}

// exploreOne is the inner loop of Algorithm 1 (lines 2-10).
func exploreOne(c Candidate, deadlineMs float64, est estimate.Estimator, rt Retrainer, head trim.HeadSpec) (Proposal, bool, error) {
	s := NewStaircase(c)
	k, err := s.Climb(c.Graph, deadlineMs, est, head)
	if err != nil || k == s.Explored() {
		return Proposal{}, false, err
	}
	p, err := s.Propose(c, k, rt, head)
	return p, err == nil, err
}

// ParetoPoints converts proposals to latency/accuracy points using the
// estimator latency (what the explorer believed).
func (r *Result) ParetoPoints() []pareto.Point {
	pts := make([]pareto.Point, len(r.Proposals))
	for i, p := range r.Proposals {
		pts[i] = pareto.Point{Label: p.TRN.Name(), Latency: p.EstimateMs, Accuracy: p.Accuracy}
	}
	return pts
}
