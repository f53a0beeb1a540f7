package core

import (
	"testing"

	"netcut/internal/estimate"
	"netcut/internal/trim"
)

// BenchmarkExplore times Algorithm 1 alone over the seven paper
// networks, the warm explore phase of a planner request: tables,
// cuts, estimator and retraining noise are all warmed by one untimed
// pass, so each op is the per-request work only. Ops walk a deadline
// staircase from one where every network is infeasible to one every
// unmodified network meets; iterations/op counts the cutpoints
// examined (an infeasible network examines all of its cuts).
func BenchmarkExplore(b *testing.B) {
	s := getStack(b)
	staircase := []float64{0.05, 0.3, 0.5, 0.7, 0.9, 1.2, 1.6, 2.5, 10}
	blocks := map[string]int{}
	for _, c := range s.cands {
		blocks[c.Graph.Name] = c.Graph.BlockCount()
	}
	for _, est := range []estimate.Estimator{s.profilerEst(), s.analyticalEst(b)} {
		b.Run(est.Name(), func(b *testing.B) {
			explore := func(d float64) int {
				res, err := Explore(s.cands, d, est, s.rt, trim.DefaultHead)
				if err != nil {
					b.Fatal(err)
				}
				iters := 0
				for _, p := range res.Proposals {
					iters += p.Iterations
				}
				for _, name := range res.Infeasible {
					iters += blocks[name] + 1
				}
				return iters
			}
			for _, d := range staircase {
				explore(d)
			}
			b.ReportAllocs()
			iters := 0
			i := 0
			for b.Loop() {
				iters += explore(staircase[i%len(staircase)])
				i++
			}
			b.ReportMetric(float64(iters)/float64(i), "iterations/op")
		})
	}
}
