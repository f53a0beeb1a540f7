package core

import (
	"math"
	"math/rand"
	"testing"

	"netcut/internal/estimate"
	"netcut/internal/trim"
	"netcut/internal/zoo"
)

// loopExploreOne is exploreOne as it was before Staircase, kept verbatim
// as the independent reference the staircase is checked against: the
// inner loop of Algorithm 1 (lines 2-10), run from scratch per deadline.
func loopExploreOne(c Candidate, deadlineMs float64, est estimate.Estimator, rt Retrainer, head trim.HeadSpec) (Proposal, bool, error) {
	estMs := c.MeasuredMs
	cut := 0
	var trn *trim.TRN
	iters := 1
	for estMs > deadlineMs {
		cut++
		if cut > c.Graph.BlockCount() {
			return Proposal{}, false, nil
		}
		var err error
		trn, err = trim.Cut(c.Graph, cut, head)
		if err != nil {
			return Proposal{}, false, err
		}
		estMs, err = est.EstimateMs(trn)
		if err != nil {
			return Proposal{}, false, err
		}
		iters++
	}

	p := Proposal{Cutpoint: cut, EstimateMs: estMs, Iterations: iters}
	if cut == 0 {
		// The unmodified network already meets the deadline: no
		// retraining needed, its accuracy is known (Algorithm 1 input).
		p.Accuracy = c.Accuracy
		var err error
		p.TRN, err = trim.Cut(c.Graph, 0, head)
		if err != nil {
			return Proposal{}, false, err
		}
		return p, true, nil
	}
	tr, err := rt.Retrain(trn)
	if err != nil {
		return Proposal{}, false, err
	}
	p.TRN = trn
	p.Accuracy = tr.Accuracy
	p.TrainHours = tr.TrainHours
	return p, true, nil
}

// tableEstimator estimates cut k as tableEstimator[k], whatever the
// graph.
type tableEstimator []float64

func (tableEstimator) Name() string { return "table" }

func (e tableEstimator) EstimateMs(t *trim.TRN) (float64, error) { return e[t.Cutpoint], nil }

// sameProposal reports whether two proposals agree in every field,
// comparing estimates by their bits so that NaN equals NaN.
func sameProposal(a, b Proposal) bool {
	return a.TRN.Name() == b.TRN.Name() && a.Cutpoint == b.Cutpoint &&
		math.Float64bits(a.EstimateMs) == math.Float64bits(b.EstimateMs) &&
		a.Accuracy == b.Accuracy && a.TrainHours == b.TrainHours && a.Iterations == b.Iterations
}

// TestStaircaseSearchNaN pins the staircase against Algorithm 1's loop
// on estimates the zoo never produces: a NaN accepts every deadline from
// its cutpoint on (NaN > d is false), and a rise after a fall does not
// hide the lower step before it. Search is checked on a hand-pushed
// staircase; Climb and Propose on one kept staircase per order, climbed
// over a dense deadline grid in two seeded shuffled orders, against
// loopExploreOne, never exploring past where the loop stops.
func TestStaircaseSearchNaN(t *testing.T) {
	est := []float64{5, 4, 6, math.NaN(), 1}
	s := Staircase{blocks: len(est) - 1}
	for _, e := range est {
		s.push(e)
	}
	loop := func(d float64) int {
		k := 0
		for est[k] > d {
			k++
		}
		return k
	}
	for _, d := range []float64{0.5, 1, 3.9, 4, 4.5, 5, 5.5, 6, 7, math.Inf(1)} {
		if got, want := s.Search(d), loop(d); got != want {
			t.Errorf("deadline %v: step %d, the loop stops at %d", d, got, want)
		}
	}

	g, err := zoo.ByName("ResNet-50")
	if err != nil {
		t.Fatal(err)
	}
	c := Candidate{Graph: g, MeasuredMs: 5, Accuracy: 0.75}
	rt := RetrainerFunc(func(tr *trim.TRN) (TrainResult, error) {
		return TrainResult{Accuracy: 0.7 - 0.01*float64(tr.Cutpoint), TrainHours: float64(tr.Cutpoint)}, nil
	})
	head := trim.DefaultHead
	// Non-monotone estimates for every cut; the NaN table stops every
	// deadline at or before its NaN, the other leaves low ones infeasible.
	rise := tableEstimator{c.MeasuredMs}
	for k := 1; k <= g.BlockCount(); k++ {
		rise = append(rise, 5-0.2*float64(k)+0.7*float64(k%3))
	}
	withNaN := append(tableEstimator(nil), rise...)
	withNaN[len(withNaN)-3] = math.NaN()
	for _, tbl := range []tableEstimator{rise, withNaN} {
		grid := []float64{0.01, math.Inf(1)}
		for _, e := range tbl {
			if !math.IsNaN(e) {
				grid = append(grid, math.Nextafter(e, 0), e, math.Nextafter(e, math.Inf(1)))
			}
		}
		for _, seed := range []int64{1, 2} {
			kept := NewStaircase(c)
			explored := 1 // cutpoints the loop examined for the deadlines so far
			for _, i := range rand.New(rand.NewSource(seed)).Perm(len(grid)) {
				d := grid[i]
				want, feasible, err := loopExploreOne(c, d, tbl, rt, head)
				if err != nil {
					t.Fatal(err)
				}
				k, err := kept.Climb(g, d, tbl, head)
				if err != nil {
					t.Fatal(err)
				}
				if feasible {
					explored = max(explored, want.Iterations)
					got, err := kept.Propose(c, k, rt, head)
					if err != nil {
						t.Fatal(err)
					}
					if !sameProposal(got, want) {
						t.Fatalf("deadline %v (order seed %d): staircase %+v, the loop %+v", d, seed, got, want)
					}
				} else {
					explored = g.BlockCount() + 1
					if k != kept.Explored() {
						t.Fatalf("deadline %v (order seed %d): step %d accepted, the loop finds none", d, seed, k)
					}
				}
				if kept.Explored() != explored {
					t.Fatalf("deadline %v (order seed %d): %d cutpoints explored, the loop needed %d", d, seed, kept.Explored(), explored)
				}
			}
		}
	}
}
