package core

import (
	"math"
	"strings"
	"testing"

	"netcut/internal/device"
	"netcut/internal/estimate"
	"netcut/internal/graph"
	"netcut/internal/profiler"
	"netcut/internal/transfer"
	"netcut/internal/trim"
	"netcut/internal/zoo"
)

// stack wires the full pipeline: device, profiler tables, candidates,
// estimators and the retraining simulator.
type stack struct {
	dev     *device.Device
	tables  map[string]*profiler.Table
	cands   []Candidate
	samples []estimate.Sample
	sim     *transfer.Simulator
	rt      Retrainer
}

var sharedStack *stack

func getStack(t testing.TB) *stack {
	t.Helper()
	if sharedStack != nil {
		return sharedStack
	}
	dev := device.New(device.Xavier())
	prof, err := profiler.New(dev, profiler.Protocol{WarmupRuns: 60, TimedRuns: 120}, 5)
	if err != nil {
		t.Fatal(err)
	}
	sim := transfer.NewSimulator(1)
	s := &stack{dev: dev, tables: map[string]*profiler.Table{}, sim: sim}
	for _, g := range zoo.Paper7() {
		s.tables[g.Name] = prof.Profile(g)
		lat := prof.Measure(g).MeanMs
		acc, err := sim.OffTheShelfAccuracy(g.Name)
		if err != nil {
			t.Fatal(err)
		}
		s.cands = append(s.cands, Candidate{Graph: g, MeasuredMs: lat, Accuracy: acc})
		trns, err := trim.EnumerateBlockwise(g, trim.DefaultHead, false)
		if err != nil {
			t.Fatal(err)
		}
		for _, tr := range trns {
			s.samples = append(s.samples, estimate.Sample{
				TRN: tr, ParentLatencyMs: lat, MeasuredMs: prof.Measure(tr.Graph).MeanMs,
			})
		}
	}
	s.rt = RetrainerFunc(func(tr *trim.TRN) (TrainResult, error) {
		r, err := sim.Retrain(tr)
		return TrainResult{Accuracy: r.Accuracy, TrainHours: r.TrainHours}, err
	})
	sharedStack = s
	return s
}

func (s *stack) profilerEst() estimate.Estimator {
	return estimate.NewProfilerEstimator(s.tables)
}

func (s *stack) analyticalEst(t testing.TB) estimate.Estimator {
	t.Helper()
	train, _ := estimate.StratifiedSplit(s.samples, 0.2, 1)
	e, err := estimate.TrainAnalytical(train, estimate.AnalyticalConfig{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

const deadline = 0.9 // the prosthetic hand's visual-classifier deadline

func TestExploreMeetsDeadline(t *testing.T) {
	s := getStack(t)
	for _, est := range []estimate.Estimator{s.profilerEst(), s.analyticalEst(t)} {
		res, err := Explore(s.cands, deadline, est, s.rt, trim.DefaultHead)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Proposals) != 7 || len(res.Infeasible) != 0 {
			t.Fatalf("%s: %d proposals, %d infeasible; want 7/0",
				est.Name(), len(res.Proposals), len(res.Infeasible))
		}
		for _, p := range res.Proposals {
			if p.EstimateMs > deadline {
				t.Errorf("%s: proposal %s estimate %.3f exceeds deadline", est.Name(), p.TRN.Name(), p.EstimateMs)
			}
			if p.Iterations != p.Cutpoint+1 {
				t.Errorf("%s: proposal %s iterations %d != cutpoint+1", est.Name(), p.TRN.Name(), p.Iterations)
			}
		}
	}
}

func TestExploreSelectsResNetTRN(t *testing.T) {
	// The paper's Fig. 10 outcome: both estimators deliver a ResNet-50
	// TRN as the final network at the 0.9 ms deadline, beating the best
	// off-the-shelf choice (MobileNetV1 (0.5) at ~0.81).
	s := getStack(t)
	for _, est := range []estimate.Estimator{s.profilerEst(), s.analyticalEst(t)} {
		res, err := Explore(s.cands, deadline, est, s.rt, trim.DefaultHead)
		if err != nil {
			t.Fatal(err)
		}
		if res.Best == nil {
			t.Fatalf("%s: no best proposal", est.Name())
		}
		if got := res.Best.TRN.Parent.Name; got != "ResNet-50" {
			t.Errorf("%s: best = %s (parent %s), want a ResNet-50 TRN", est.Name(), res.Best.TRN.Name(), got)
		}
		if res.Best.Accuracy <= 0.81 {
			t.Errorf("%s: best accuracy %.3f does not beat off-the-shelf 0.81", est.Name(), res.Best.Accuracy)
		}
		// ResNet-50's selected cut should land near the paper's 94-114
		// removed-layer window.
		if lr := res.Best.TRN.LayersRemoved; lr < 80 || lr > 130 {
			t.Errorf("%s: best removes %d layers, want near the paper's 94-114", est.Name(), lr)
		}
	}
}

func TestExploreKeepsFastNetsUncut(t *testing.T) {
	s := getStack(t)
	res, err := Explore(s.cands, deadline, s.profilerEst(), s.rt, trim.DefaultHead)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range res.Proposals {
		switch p.TRN.Parent.Name {
		case "MobileNetV1 (0.25)", "MobileNetV1 (0.5)":
			if p.Cutpoint != 0 {
				t.Errorf("%s cut %d, want 0 (already meets deadline)", p.TRN.Parent.Name, p.Cutpoint)
			}
			if p.TrainHours != 0 {
				t.Errorf("%s charged %.2f training hours for cut 0", p.TRN.Parent.Name, p.TrainHours)
			}
		default:
			if p.Cutpoint == 0 {
				t.Errorf("%s cut 0, but its full latency exceeds the deadline", p.TRN.Parent.Name)
			}
		}
	}
	if res.RetrainedCount < 3 || res.RetrainedCount > 7 {
		t.Errorf("retrained %d networks, want a handful (paper: ~5 per estimator)", res.RetrainedCount)
	}
}

func TestExploreMobileNetV2Cut1MatchesFig10(t *testing.T) {
	// Fig. 10 labels the MobileNetV2 (1.0) selection "/11": one block
	// plus the feature-mixing conv, 11 layers.
	s := getStack(t)
	res, err := Explore(s.cands, deadline, s.profilerEst(), s.rt, trim.DefaultHead)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range res.Proposals {
		if p.TRN.Parent.Name == "MobileNetV2 (1.0)" && p.TRN.Name() != "MobileNetV2 (1.0)/11" {
			t.Errorf("MobileNetV2 (1.0) proposal = %s, want /11", p.TRN.Name())
		}
	}
}

func TestExploreInfeasibleDeadline(t *testing.T) {
	s := getStack(t)
	res, err := Explore(s.cands, 0.01, s.profilerEst(), s.rt, trim.DefaultHead)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Infeasible) != 7 {
		t.Fatalf("impossible deadline: %d infeasible, want 7", len(res.Infeasible))
	}
	if res.Best != nil {
		t.Fatal("impossible deadline produced a best proposal")
	}
}

func TestExploreGenerousDeadline(t *testing.T) {
	// With a deadline beyond every network, nothing is cut and the most
	// accurate off-the-shelf network (DenseNet-121) wins untrimmed.
	s := getStack(t)
	res, err := Explore(s.cands, 10, s.profilerEst(), s.rt, trim.DefaultHead)
	if err != nil {
		t.Fatal(err)
	}
	if res.RetrainedCount != 0 || res.ExplorationHours != 0 {
		t.Fatalf("generous deadline retrained %d networks", res.RetrainedCount)
	}
	if res.Best.TRN.Parent.Name != "DenseNet-121" {
		t.Fatalf("best = %s, want DenseNet-121", res.Best.TRN.Name())
	}
}

func TestExploreInputValidation(t *testing.T) {
	s := getStack(t)
	if _, err := Explore(nil, deadline, s.profilerEst(), s.rt, trim.DefaultHead); err == nil {
		t.Fatal("empty candidates accepted")
	}
	for _, d := range []float64{-1, 0, math.NaN(), math.Inf(-1)} {
		if _, err := Explore(s.cands, d, s.profilerEst(), s.rt, trim.DefaultHead); err == nil {
			t.Fatalf("deadline %v accepted", d)
		}
	}
	if _, err := Explore([]Candidate{{}}, deadline, s.profilerEst(), s.rt, trim.DefaultHead); err == nil {
		t.Fatal("nil graph accepted")
	}
}

func TestExploreEstimatorErrorPropagates(t *testing.T) {
	s := getStack(t)
	empty := estimate.NewProfilerEstimator(nil)
	_, err := Explore(s.cands, deadline, empty, s.rt, trim.DefaultHead)
	if err == nil || !strings.Contains(err.Error(), "no profile table") {
		t.Fatalf("err = %v, want missing-table failure", err)
	}
}

func TestBlockwiseSweep(t *testing.T) {
	s := getStack(t)
	measure := Measurer(func(g *graph.Graph) float64 { return s.dev.LatencyMs(g) })
	sw, err := BlockwiseSweep(s.cands, s.rt, measure, trim.DefaultHead)
	if err != nil {
		t.Fatal(err)
	}
	if sw.TRNCount() != 148 {
		t.Fatalf("sweep retrained %d TRNs, want 148", sw.TRNCount())
	}
	if len(sw.Entries) != 148+7 {
		t.Fatalf("sweep has %d entries, want 155 (148 TRNs + 7 originals)", len(sw.Entries))
	}
	// Paper: 183 hours on a K20m (+-25% for our cost model).
	if sw.TotalHours < 137 || sw.TotalHours > 229 {
		t.Fatalf("sweep cost %.1f hours, want ~183", sw.TotalHours)
	}
	best, ok := sw.BestUnderDeadline(deadline)
	if !ok {
		t.Fatal("sweep found nothing under the deadline")
	}
	if best.Accuracy < 0.82 {
		t.Fatalf("sweep best accuracy %.3f implausibly low", best.Accuracy)
	}
	if _, err := BlockwiseSweep(s.cands, s.rt, nil, trim.DefaultHead); err == nil {
		t.Fatal("nil measurer accepted")
	}
}

func TestExplorationSpeedup(t *testing.T) {
	// The headline: NetCut explores ~27x faster than the blockwise sweep.
	s := getStack(t)
	measure := Measurer(func(g *graph.Graph) float64 { return s.dev.LatencyMs(g) })
	sw, err := BlockwiseSweep(s.cands, s.rt, measure, trim.DefaultHead)
	if err != nil {
		t.Fatal(err)
	}
	resP, err := Explore(s.cands, deadline, s.profilerEst(), s.rt, trim.DefaultHead)
	if err != nil {
		t.Fatal(err)
	}
	resA, err := Explore(s.cands, deadline, s.analyticalEst(t), s.rt, trim.DefaultHead)
	if err != nil {
		t.Fatal(err)
	}
	sp := CompareCost(sw, []*Result{resP, resA}, 0.1 /* profiling + SVR setup */)
	if sp.Factor < 15 || sp.Factor > 60 {
		t.Fatalf("speedup %.1fx, want the paper's ~27x band (15-60)", sp.Factor)
	}
	// Paper: 9 additional networks trained vs 148.
	if sp.NetCutRetrain < 4 || sp.NetCutRetrain > 12 {
		t.Fatalf("NetCut retrained %d unique TRNs, want near the paper's 9", sp.NetCutRetrain)
	}
	if sp.SweepTRNs != 148 {
		t.Fatalf("sweep TRNs = %d, want 148", sp.SweepTRNs)
	}
}

func TestIterativeExploreMatchesButCostsMore(t *testing.T) {
	s := getStack(t)
	measure := Measurer(func(g *graph.Graph) float64 { return s.dev.LatencyMs(g) })
	iter, err := IterativeExplore(s.cands, deadline, s.rt, measure, trim.DefaultHead)
	if err != nil {
		t.Fatal(err)
	}
	netcutRes, err := Explore(s.cands, deadline, s.profilerEst(), s.rt, trim.DefaultHead)
	if err != nil {
		t.Fatal(err)
	}
	if iter.Best == nil || iter.Best.TRN.Parent.Name != "ResNet-50" {
		t.Fatalf("iterative best = %+v, want a ResNet-50 TRN", iter.Best)
	}
	// Equivalent quality...
	if iter.Best.Accuracy < netcutRes.Best.Accuracy-0.03 {
		t.Fatalf("iterative quality %.3f far below NetCut %.3f", iter.Best.Accuracy, netcutRes.Best.Accuracy)
	}
	// ...at a clearly larger retraining bill (every examined cutpoint).
	if iter.ExplorationHours < 1.5*netcutRes.ExplorationHours {
		t.Fatalf("iterative hours %.1f not clearly above NetCut's %.1f",
			iter.ExplorationHours, netcutRes.ExplorationHours)
	}
	if iter.RetrainedCount <= netcutRes.RetrainedCount {
		t.Fatalf("iterative retrained %d, NetCut %d; baseline should retrain more",
			iter.RetrainedCount, netcutRes.RetrainedCount)
	}
}

func TestIterativeExploreValidation(t *testing.T) {
	s := getStack(t)
	measure := Measurer(func(g *graph.Graph) float64 { return s.dev.LatencyMs(g) })
	if _, err := IterativeExplore(nil, deadline, s.rt, measure, trim.DefaultHead); err == nil {
		t.Fatal("empty candidates accepted")
	}
	for _, d := range []float64{-1, 0, math.NaN(), math.Inf(-1)} {
		if _, err := IterativeExplore(s.cands, d, s.rt, measure, trim.DefaultHead); err == nil {
			t.Fatalf("deadline %v accepted", d)
		}
	}
	if _, err := IterativeExplore(s.cands, deadline, s.rt, nil, trim.DefaultHead); err == nil {
		t.Fatal("nil measurer accepted")
	}
	res, err := IterativeExplore(s.cands, 0.01, s.rt, measure, trim.DefaultHead)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Infeasible) != 7 {
		t.Fatalf("impossible deadline: %d infeasible, want 7", len(res.Infeasible))
	}
}

func TestParetoPoints(t *testing.T) {
	s := getStack(t)
	res, err := Explore(s.cands, deadline, s.profilerEst(), s.rt, trim.DefaultHead)
	if err != nil {
		t.Fatal(err)
	}
	pts := res.ParetoPoints()
	if len(pts) != len(res.Proposals) {
		t.Fatalf("%d points for %d proposals", len(pts), len(res.Proposals))
	}
	for _, p := range pts {
		if p.Latency <= 0 || p.Accuracy <= 0 || p.Label == "" {
			t.Fatalf("degenerate point %+v", p)
		}
	}
}
