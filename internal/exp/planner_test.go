package exp

import (
	"fmt"
	"testing"

	"netcut/internal/estimate"
	"netcut/internal/serve"
	"netcut/internal/zoo"
)

// TestPlannerMatchesSingleLabSelect pins the equivalence that lets the
// Lab and the serving Planner share one pipeline: for every paper
// network and every estimator kind, the shared-cache Planner's response
// is byte-identical to the proposal a fresh single-use Lab produces for
// the same seed and deadline. For the analytical and linear kinds this
// also pins that both train the same model on the same zoo samples.
func TestPlannerMatchesSingleLabSelect(t *testing.T) {
	for _, seed := range []int64{1, 42} {
		lab, err := NewLab(Config{Seed: seed, DeadlineMs: 0.9})
		if err != nil {
			t.Fatal(err)
		}
		p, err := serve.New(serve.Config{Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		for _, kind := range []string{"profiler", "analytical", "linear"} {
			t.Run(fmt.Sprintf("seed%d/%s", seed, kind), func(t *testing.T) {
				var est estimate.Estimator
				switch kind {
				case "profiler":
					est = lab.ProfilerEstimator()
				case "analytical":
					est, err = lab.AnalyticalEstimator()
				case "linear":
					est, err = lab.LinearEstimator()
				}
				if err != nil {
					t.Fatal(err)
				}
				res, err := lab.Explore(est)
				if err != nil {
					t.Fatal(err)
				}
				labByParent := map[string][10]interface{}{}
				for i := range res.Proposals {
					pr := &res.Proposals[i]
					labByParent[pr.TRN.Parent.Name] = [10]interface{}{
						true, pr.TRN.Name(), pr.TRN.Parent.Name, pr.Cutpoint, pr.TRN.LayersRemoved,
						pr.EstimateMs, lab.Device().LatencyMs(pr.TRN.Graph), pr.Accuracy, pr.TrainHours, pr.Iterations,
					}
				}
				for _, g := range zoo.Paper7() {
					r, err := p.Select(serve.Request{Graph: g, DeadlineMs: 0.9, Estimator: kind})
					if err != nil {
						t.Fatalf("%s: %v", g.Name, err)
					}
					want, ok := labByParent[g.Name]
					if !ok {
						t.Fatalf("%s: Lab made no proposal", g.Name)
					}
					got := [10]interface{}{
						r.Feasible, r.Network, r.Parent, r.BlocksRemoved, r.LayersRemoved,
						r.EstimatedMs, r.MeasuredMs, r.Accuracy, r.TrainHours, r.Iterations,
					}
					if got != want {
						t.Fatalf("%s: planner response %v differs from Lab proposal %v", g.Name, got, want)
					}
				}
			})
		}
	}
}
