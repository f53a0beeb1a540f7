package netcut

import (
	"strings"
	"testing"
)

func TestSelectAtPaperDeadline(t *testing.T) {
	sel, err := Select(Options{DeadlineMs: 0.9, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if sel.Parent != "ResNet-50" {
		t.Fatalf("selected parent %s, want ResNet-50 (paper Fig. 10)", sel.Parent)
	}
	if sel.EstimatedMs > 0.9 {
		t.Fatalf("estimate %.3f over deadline", sel.EstimatedMs)
	}
	if sel.Accuracy <= 0.81 {
		t.Fatalf("accuracy %.3f does not beat the off-the-shelf pick", sel.Accuracy)
	}
	if !strings.HasPrefix(sel.Network, "ResNet-50/") {
		t.Fatalf("network label %q malformed", sel.Network)
	}
	if sel.LayersRemoved < 80 || sel.LayersRemoved > 130 {
		t.Fatalf("layers removed %d outside the paper's 94-114 neighbourhood", sel.LayersRemoved)
	}
}

func TestSelectEstimators(t *testing.T) {
	for _, est := range []EstimatorKind{ProfilerEstimator, AnalyticalEstimator} {
		sel, err := Select(Options{DeadlineMs: 0.9, Estimator: est, Seed: 1})
		if err != nil {
			t.Fatalf("%s: %v", est, err)
		}
		if sel.Result.EstimatorName != string(est) {
			t.Fatalf("estimator %s ran as %s", est, sel.Result.EstimatorName)
		}
	}
	if _, err := Select(Options{Estimator: "magic"}); err == nil {
		t.Fatal("unknown estimator accepted")
	}
}

func TestSelectImpossibleDeadline(t *testing.T) {
	_, err := Select(Options{DeadlineMs: 0.001, Seed: 1})
	if err == nil || !strings.Contains(err.Error(), "no network can meet") {
		t.Fatalf("err = %v, want infeasibility", err)
	}
}

func TestExploreReturnsAllProposals(t *testing.T) {
	res, err := Explore(Options{DeadlineMs: 1.5, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Proposals) != 7 {
		t.Fatalf("%d proposals, want 7", len(res.Proposals))
	}
}

// TestInvalidDeviceIsAnError pins that the one-shot entry points reject
// an invalid device profile with an error, as NewPlanner does, instead
// of panicking.
func TestInvalidDeviceIsAnError(t *testing.T) {
	bad := XavierConfig()
	bad.PeakMACs = 0
	calls := []struct {
		name string
		call func() error
	}{
		{"Select", func() error { _, err := Select(Options{Device: &bad}); return err }},
		{"Explore", func() error { _, err := Explore(Options{Device: &bad}); return err }},
		{"NewLab", func() error { _, err := NewLab(LabConfig{Device: &bad}); return err }},
		{"NewPlanner", func() error { _, err := NewPlanner(PlannerConfig{Device: &bad}); return err }},
	}
	for _, c := range calls {
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Errorf("%s panicked: %v", c.name, r)
				}
			}()
			if err := c.call(); err == nil || !strings.Contains(err.Error(), "non-positive peak throughput") {
				t.Errorf("%s: err = %v, want the device validation error", c.name, err)
			}
		}()
	}
}

func TestZooAccessors(t *testing.T) {
	if len(Networks()) != 7 || len(NetworkNames()) != 7 {
		t.Fatal("zoo accessors broken")
	}
	g, err := NetworkByName("DenseNet-121")
	if err != nil || g.Name != "DenseNet-121" {
		t.Fatalf("NetworkByName: %v %v", g, err)
	}
	if MeasureMs(g) <= 0 {
		t.Fatal("MeasureMs returned non-positive latency")
	}
	tbl, err := ProfileTable(g, 1)
	if err != nil || len(tbl.Layers) == 0 {
		t.Fatalf("ProfileTable: %v %v", tbl, err)
	}
}

func TestCutAndFrontierFacade(t *testing.T) {
	g, _ := NetworkByName("ResNet-50")
	trn, err := Cut(g, 9, DefaultHead)
	if err != nil {
		t.Fatal(err)
	}
	if trn.Name() != "ResNet-50/94" {
		t.Fatalf("cut 9 = %s, want ResNet-50/94", trn.Name())
	}
	trns, err := BlockwiseTRNs(g, DefaultHead)
	if err != nil || len(trns) != 16 {
		t.Fatalf("BlockwiseTRNs: %d %v", len(trns), err)
	}
	f := Frontier([]Point{{Label: "a", Latency: 1, Accuracy: 0.9}, {Label: "b", Latency: 2, Accuracy: 0.8}})
	if len(f) != 1 || f[0].Label != "a" {
		t.Fatalf("Frontier facade broken: %v", f)
	}
}
