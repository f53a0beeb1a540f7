package core

import (
	"fmt"

	"netcut/internal/graph"
	"netcut/internal/par"
	"netcut/internal/pareto"
	"netcut/internal/trim"
)

// SweepEntry is one retrained, measured TRN of the blockwise sweep.
type SweepEntry struct {
	TRN        *trim.TRN
	Accuracy   float64
	TrainHours float64
	MeasuredMs float64
}

// Sweep is the exhaustive blockwise exploration baseline (Sec. IV-B):
// every blockwise TRN of every network retrained and measured — the 148
// candidates whose cost NetCut avoids.
type Sweep struct {
	Entries    []SweepEntry
	TotalHours float64
}

// Measurer reports the ground-truth latency of a network, e.g. a
// profiler closure over the target device.
type Measurer func(g *graph.Graph) float64

// BlockwiseSweep retrains and measures the full blockwise TRN family of
// every candidate (cutpoints 1..BlockCount; the cut-0 entries reuse the
// candidates' known accuracy and latency and cost nothing extra).
//
// The retrain+measure work of all entries runs on a worker pool: entry
// order, TotalHours (summed in entry order) and every measurement are
// independent of scheduling, because each task writes only its own
// pre-assigned slot and the retrainer/measurer derive their noise from
// the TRN itself, not from call order.
func BlockwiseSweep(cands []Candidate, rt Retrainer, measure Measurer, head trim.HeadSpec) (*Sweep, error) {
	if measure == nil {
		return nil, fmt.Errorf("netcut: nil measurer")
	}
	// Enumerate the full entry list first (cheap, serial), leaving the
	// expensive retrain+measure of cut>0 entries to the pool.
	var entries []SweepEntry
	var todo []int // indices of entries needing retrain+measure
	for _, c := range cands {
		trns, err := trim.EnumerateBlockwise(c.Graph, head, true)
		if err != nil {
			return nil, err
		}
		entries = append(entries, SweepEntry{
			TRN:        trns[0],
			Accuracy:   c.Accuracy,
			MeasuredMs: c.MeasuredMs,
		})
		for _, tr := range trns[1:] {
			todo = append(todo, len(entries))
			entries = append(entries, SweepEntry{TRN: tr})
		}
	}
	err := par.ForEach(len(todo), func(i int) error {
		e := &entries[todo[i]]
		res, err := rt.Retrain(e.TRN)
		if err != nil {
			return fmt.Errorf("netcut: sweep retraining %s: %w", e.TRN.Name(), err)
		}
		e.Accuracy = res.Accuracy
		e.TrainHours = res.TrainHours
		e.MeasuredMs = measure(e.TRN.Graph)
		return nil
	})
	if err != nil {
		return nil, err
	}
	sw := &Sweep{Entries: entries}
	for _, e := range entries {
		sw.TotalHours += e.TrainHours
	}
	return sw, nil
}

// TRNCount returns the number of retrained TRNs in the sweep (cut > 0).
func (s *Sweep) TRNCount() int {
	n := 0
	for _, e := range s.Entries {
		if e.TRN.Cutpoint > 0 {
			n++
		}
	}
	return n
}

// Points returns the sweep as latency/accuracy points (Fig. 6).
func (s *Sweep) Points() []pareto.Point {
	pts := make([]pareto.Point, len(s.Entries))
	for i, e := range s.Entries {
		pts[i] = pareto.Point{Label: e.TRN.Name(), Latency: e.MeasuredMs, Accuracy: e.Accuracy}
	}
	return pts
}

// BestUnderDeadline returns the sweep's most accurate entry meeting the
// deadline — what exhaustive exploration would deploy.
func (s *Sweep) BestUnderDeadline(deadlineMs float64) (SweepEntry, bool) {
	var best SweepEntry
	found := false
	for _, e := range s.Entries {
		if e.MeasuredMs > deadlineMs {
			continue
		}
		if !found || e.Accuracy > best.Accuracy {
			best = e
			found = true
		}
	}
	return best, found
}

// Speedup summarizes the exploration-time comparison (the paper's 27x).
type Speedup struct {
	SweepHours    float64
	NetCutHours   float64
	Factor        float64
	SweepTRNs     int
	NetCutRetrain int
}

// CompareCost computes the exploration-time speedup of a NetCut run
// against a blockwise sweep. extraNetCutHours accounts for estimator
// setup (profiling runs, SVR training), which is negligible but
// reported honestly.
func CompareCost(sw *Sweep, runs []*Result, extraNetCutHours float64) Speedup {
	sp := Speedup{SweepHours: sw.TotalHours, SweepTRNs: sw.TRNCount(), NetCutHours: extraNetCutHours}
	seen := map[string]bool{}
	for _, r := range runs {
		for _, p := range r.Proposals {
			if p.Cutpoint == 0 || seen[p.TRN.Name()] {
				continue // already-trained network or shared proposal
			}
			seen[p.TRN.Name()] = true
			sp.NetCutHours += p.TrainHours
			sp.NetCutRetrain++
		}
	}
	if sp.NetCutHours > 0 {
		sp.Factor = sp.SweepHours / sp.NetCutHours
	}
	return sp
}
