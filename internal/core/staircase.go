package core

import (
	"math"

	"netcut/internal/estimate"
	"netcut/internal/graph"
	"netcut/internal/trim"
)

// Staircase is the inner loop of Algorithm 1 (lines 2-10), kept as
// state. A cutpoint's latency estimate does not depend on the deadline:
// the deadline only picks the first cutpoint whose estimate meets it.
// So for one (candidate, estimator) the answer is a step function of
// the deadline, and a caller that keeps the staircase answers later
// deadlines without re-running the loop.
//
// est[0] is the candidate's measured latency and est[k] the estimate of
// cut k, for the cutpoints explored so far, in order. min is their
// running minimum; the first k with min[k] <= d is exactly where the
// loop "for est > d { cut++ }" stops, since est[k] <= d first holds
// there. A NaN estimate ends that loop for any deadline (NaN > d is
// false), so from a NaN on min is -Inf. A deadline past the explored
// prefix extends it with the loop's own trim.Cut / EstimateMs calls, in
// the loop's order and never further than the loop would go; only the
// accepted cut is retrained (Propose). A staircase holds floats, never
// a graph or a TRN, so a kept one cannot pin cuts the cut cache
// evicted.
//
// A Staircase is not safe for concurrent mutation; Clone gives a
// writer its own copy.
type Staircase struct {
	est []float64
	min []float64
	// blocks is the graph's cutpoint count: the staircase is fully
	// explored once len(est) == blocks+1.
	blocks int
}

// NewStaircase returns c's staircase with only the unmodified network
// explored, at its measured latency.
func NewStaircase(c Candidate) Staircase {
	s := Staircase{blocks: c.Graph.BlockCount()}
	s.alloc(0)
	s.push(c.MeasuredMs)
	return s
}

// alloc gives s room for every cutpoint's estimate and minimum in one
// array, so that push never allocates, keeping the first n of each.
func (s *Staircase) alloc(n int) {
	size := s.blocks + 1
	buf := make([]float64, 2*size)
	s.est, s.min = buf[:n:size], buf[size:size+n]
}

// Search returns the first explored k whose running minimum meets d,
// or Explored() when none does. min is non-increasing, so the
// predicate is monotone.
func (s *Staircase) Search(d float64) int {
	lo, hi := 0, len(s.min)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if s.min[mid] <= d {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// Explored returns the number of cutpoints explored, the unmodified
// network (cut 0) included.
func (s *Staircase) Explored() int { return len(s.est) }

// Complete reports whether every cutpoint has been explored.
func (s *Staircase) Complete() bool { return len(s.est) == s.blocks+1 }

// Short reports whether answering d needs cutpoints past the explored
// prefix, that is whether Climb would call the estimator.
func (s *Staircase) Short(d float64) bool { return s.Search(d) == len(s.est) && !s.Complete() }

// Clone returns a copy of s that shares no state with it.
func (s *Staircase) Clone() Staircase {
	c := Staircase{blocks: s.blocks}
	c.alloc(len(s.est))
	copy(c.est, s.est)
	copy(c.min, s.min)
	return c
}

// push appends cut len(est)'s estimate.
func (s *Staircase) push(e float64) {
	m := e
	if math.IsNaN(e) {
		m = math.Inf(-1)
	}
	if n := len(s.min); n > 0 {
		m = math.Min(s.min[n-1], m)
	}
	s.est = append(s.est, e)
	s.min = append(s.min, m)
}

// Climb returns the cutpoint Algorithm 1 accepts for deadline d on g,
// the staircase's graph, extending the explored prefix with est until a
// cut meets d or every cut is explored. It returns Explored() when no
// cut meets d. est may be nil when Short(d) is false. On an error the
// estimates explored so far stay: each of them is final.
func (s *Staircase) Climb(g *graph.Graph, d float64, est estimate.Estimator, head trim.HeadSpec) (int, error) {
	k := s.Search(d)
	for k == len(s.est) && !s.Complete() {
		trn, err := trim.Cut(g, len(s.est), head)
		if err != nil {
			return 0, err
		}
		e, err := est.EstimateMs(trn)
		if err != nil {
			return 0, err
		}
		s.push(e)
		if e > d { // NaN > d is false: a NaN estimate accepts
			k = len(s.est)
		}
	}
	return k, nil
}

// Propose materialises cut k of c, a cut Climb accepted: only a cut
// that removes something is retrained (Algorithm 1); the unmodified
// network's accuracy is an input.
func (s *Staircase) Propose(c Candidate, k int, rt Retrainer, head trim.HeadSpec) (Proposal, error) {
	trn, err := trim.Cut(c.Graph, k, head)
	if err != nil {
		return Proposal{}, err
	}
	p := Proposal{TRN: trn, Cutpoint: k, EstimateMs: s.est[k], Accuracy: c.Accuracy, Iterations: k + 1}
	if k > 0 {
		tr, err := rt.Retrain(trn)
		if err != nil {
			return Proposal{}, err
		}
		p.Accuracy, p.TrainHours = tr.Accuracy, tr.TrainHours
	}
	return p, nil
}
