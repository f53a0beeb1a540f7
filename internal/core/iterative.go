package core

import (
	"fmt"

	"netcut/internal/trim"
)

// IterativeExplore is a NetAdapt-style baseline (Sec. II): no latency
// estimator — every candidate cutpoint is *retrained and measured* on
// the device, one block at a time, until the deadline is met. It finds
// the same first-feasible TRNs as Algorithm 1 would with a perfect
// estimator, but pays a retraining bill on every iteration; this is
// exactly the "requires retraining in each iteration of its algorithm
// ... suffers from a long exploration time" criticism that motivates
// NetCut's estimator-driven loop.
func IterativeExplore(cands []Candidate, deadlineMs float64, rt Retrainer, measure Measurer, head trim.HeadSpec) (*Result, error) {
	if len(cands) == 0 {
		return nil, fmt.Errorf("netcut: no candidate networks")
	}
	if !(deadlineMs > 0) { // also rejects NaN
		return nil, fmt.Errorf("netcut: deadline %v is not positive", deadlineMs)
	}
	if measure == nil {
		return nil, fmt.Errorf("netcut: nil measurer")
	}
	res := &Result{DeadlineMs: deadlineMs, EstimatorName: "iterative-retrain"}
	for _, c := range cands {
		if c.Graph == nil {
			return nil, fmt.Errorf("netcut: nil candidate graph")
		}
		p, feasible, err := iterativeOne(c, deadlineMs, rt, measure, head)
		if err != nil {
			return nil, fmt.Errorf("netcut: iteratively exploring %s: %w", c.Graph.Name, err)
		}
		if !feasible {
			res.Infeasible = append(res.Infeasible, c.Graph.Name)
			continue
		}
		res.Proposals = append(res.Proposals, p)
		res.ExplorationHours += p.TrainHours
		if p.Cutpoint > 0 {
			res.RetrainedCount += p.Iterations - 1 // every examined cut was retrained
		}
	}
	for i := range res.Proposals {
		if res.Best == nil || res.Proposals[i].Accuracy > res.Best.Accuracy {
			res.Best = &res.Proposals[i]
		}
	}
	return res, nil
}

func iterativeOne(c Candidate, deadlineMs float64, rt Retrainer, measure Measurer, head trim.HeadSpec) (Proposal, bool, error) {
	lat := c.MeasuredMs
	cut := 0
	iters := 1
	var trn *trim.TRN
	var acc float64
	var hours float64
	for lat > deadlineMs {
		cut++
		if cut > c.Graph.BlockCount() {
			return Proposal{}, false, nil
		}
		var err error
		trn, err = trim.Cut(c.Graph, cut, head)
		if err != nil {
			return Proposal{}, false, err
		}
		// The baseline must retrain to evaluate each proposal before it
		// knows whether the cut suffices — the cost NetCut avoids.
		tr, err := rt.Retrain(trn)
		if err != nil {
			return Proposal{}, false, err
		}
		hours += tr.TrainHours
		acc = tr.Accuracy
		lat = measure(trn.Graph)
		iters++
	}
	p := Proposal{Cutpoint: cut, EstimateMs: lat, Iterations: iters, TrainHours: hours}
	if cut == 0 {
		p.Accuracy = c.Accuracy
		var err error
		p.TRN, err = trim.Cut(c.Graph, 0, head)
		if err != nil {
			return Proposal{}, false, err
		}
		return p, true, nil
	}
	p.TRN = trn
	p.Accuracy = acc
	return p, true, nil
}
