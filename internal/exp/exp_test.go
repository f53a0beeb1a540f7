package exp

import (
	"bytes"
	"strings"
	"testing"

	"netcut/internal/device"
	"netcut/internal/profiler"
)

var sharedLab *Lab

// lab returns a shared Lab with a reduced measurement protocol so the
// whole suite stays fast; the bench harness uses the paper protocol.
func lab(t *testing.T) *Lab {
	t.Helper()
	if sharedLab != nil {
		return sharedLab
	}
	l, err := NewLab(Config{
		Seed:     1,
		Protocol: profiler.Protocol{WarmupRuns: 60, TimedRuns: 120},
	})
	if err != nil {
		t.Fatal(err)
	}
	sharedLab = l
	return l
}

func TestFig1(t *testing.T) {
	f, err := lab(t).Fig1()
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Series) != 1 || f.Series[0].Len() != 7 {
		t.Fatalf("fig1 should have 7 off-the-shelf points, got %+v", f.Series)
	}
	if len(f.Notes) != 2 {
		t.Fatalf("fig1 notes = %v", f.Notes)
	}
	if !strings.Contains(f.Notes[0], "MobileNetV1 (0.5)") {
		t.Fatalf("fig1 must select MobileNetV1 (0.5) at 0.9 ms: %s", f.Notes[0])
	}
}

func TestFig4(t *testing.T) {
	f, err := lab(t).Fig4()
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Series) != 2 {
		t.Fatalf("fig4 needs exhaustive + block series")
	}
	ex, bl := f.Series[0], f.Series[1]
	if ex.Len() != 310 {
		t.Fatalf("exhaustive series has %d points, want 310", ex.Len())
	}
	if bl.Len() != 12 { // cuts 0..11
		t.Fatalf("block series has %d points, want 12", bl.Len())
	}
	// Error grows with removal on the block series.
	if bl.Y[0] >= bl.Y[bl.Len()-1] {
		t.Fatal("block error does not grow with removal")
	}
	// The paper's < 0.03 within-block claim is reported in the notes.
	if !strings.Contains(f.Notes[0], "0.03") {
		t.Fatalf("fig4 note missing the 0.03 claim: %s", f.Notes[0])
	}
}

func TestFig5(t *testing.T) {
	f, err := lab(t).Fig5()
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Series) != 7 {
		t.Fatalf("fig5 has %d series, want 7", len(f.Series))
	}
	byName := map[string]*Series{}
	total := 0
	for i := range f.Series {
		byName[f.Series[i].Name] = &f.Series[i]
		total += f.Series[i].Len()
	}
	if total != 155 {
		t.Fatalf("fig5 plots %d TRNs, want 155 (148 + 7 originals)", total)
	}
	// Shape checks mirroring the paper's observations.
	dn := byName["DenseNet-121"]
	var dnAt100 float64
	for i := range dn.X {
		if dn.X[i] >= 100 {
			dnAt100 = dn.Y[i]
			break
		}
	}
	if dn.Y[0]-dnAt100 > 0.04 {
		t.Errorf("DenseNet lost %.3f by 100 removed; paper says < 0.03-ish", dn.Y[0]-dnAt100)
	}
	m1 := byName["MobileNetV1 (0.5)"]
	if m1.Y[0]-m1.Y[4] < 0.08 {
		t.Errorf("MobileNetV1 (0.5) should collapse by cut 4: %.3f -> %.3f", m1.Y[0], m1.Y[4])
	}
}

func TestFig6And7(t *testing.T) {
	l := lab(t)
	f6, err := l.Fig6()
	if err != nil {
		t.Fatal(err)
	}
	if len(f6.Series) != 7 {
		t.Fatalf("fig6 has %d series, want 7", len(f6.Series))
	}
	f7, err := l.Fig7()
	if err != nil {
		t.Fatal(err)
	}
	if len(f7.Series) != 2 {
		t.Fatal("fig7 needs two frontiers")
	}
	offN, blockN := f7.Series[0].Len(), f7.Series[1].Len()
	if blockN <= offN {
		t.Fatalf("blockwise frontier (%d) should be denser than off-the-shelf (%d)", blockN, offN)
	}
	// Headline: max improvement near the paper's 10.43%.
	if !strings.Contains(f7.Notes[0], "MobileNetV1 (0.5)") {
		t.Fatalf("max improvement should come from a MobileNetV1 (0.5) TRN: %s", f7.Notes[0])
	}
}

func TestFig8(t *testing.T) {
	f, err := lab(t).Fig8()
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Series) != 3 {
		t.Fatal("fig8 needs baseline + profiler + analytical")
	}
	for _, s := range f.Series {
		if s.Len() != 16 {
			t.Fatalf("series %s has %d points, want 16 ResNet cutpoints", s.Name, s.Len())
		}
	}
	// Baseline decreases monotonically with layers removed.
	base := f.Series[0]
	for i := 1; i < base.Len(); i++ {
		if base.Y[i] >= base.Y[i-1] {
			t.Fatalf("baseline latency not decreasing at %v", base.X[i])
		}
	}
}

func TestFig9(t *testing.T) {
	f, err := lab(t).Fig9()
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Series) != 2 {
		t.Fatal("fig9 needs analytical + profiler series")
	}
	for _, s := range f.Series {
		if s.Len() != 7 {
			t.Fatalf("series %s has %d bars, want 7", s.Name, s.Len())
		}
		for i, v := range s.Y {
			if v < 0 || v > 25 {
				t.Fatalf("series %s bar %d = %.2f%%, outside the plausible band", s.Name, i, v)
			}
		}
	}
	if !strings.Contains(f.Notes[1], "linear regression") &&
		!strings.Contains(f.Notes[1], "linear") {
		t.Fatalf("fig9 must report the linear baseline: %v", f.Notes)
	}
}

func TestFig10(t *testing.T) {
	f, err := lab(t).Fig10()
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Series) != 2 {
		t.Fatal("fig10 needs profiler + analytical selections")
	}
	for _, s := range f.Series {
		if s.Len() != 7 {
			t.Fatalf("%s proposes %d networks, want 7", s.Name, s.Len())
		}
	}
	for _, n := range f.Notes {
		if !strings.Contains(n, "ResNet-50/") {
			t.Fatalf("final selection should be a ResNet-50 TRN: %s", n)
		}
	}
}

func TestTab1(t *testing.T) {
	f, err := lab(t).Tab1()
	if err != nil {
		t.Fatal(err)
	}
	s := f.Series[0]
	vals := map[string]float64{}
	for i, l := range s.Labels {
		vals[l] = s.Y[i]
	}
	if vals["blockwise TRN candidates (paper: 148)"] != 148 {
		t.Fatalf("candidates = %v", vals)
	}
	speedup := vals["speedup (paper: 27x)"]
	if speedup < 15 || speedup > 60 {
		t.Fatalf("speedup %.1f outside the 15-60x band around the paper's 27x", speedup)
	}
	red := vals["candidate reduction % (paper: 95%)"]
	if red < 90 {
		t.Fatalf("candidate reduction %.1f%%, want >= 90%%", red)
	}
}

func TestAblations(t *testing.T) {
	l := lab(t)
	a1, err := l.AblEstimatorChoice()
	if err != nil {
		t.Fatal(err)
	}
	if len(a1.Series) != 3 {
		t.Fatal("estimator ablation needs 3 series")
	}
	a2, err := l.AblBlockGranularity()
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range a2.Notes {
		if !strings.Contains(n, "x more cutpoints") {
			t.Fatalf("block ablation note malformed: %s", n)
		}
	}
	a3, err := l.AblDeviceModes()
	if err != nil {
		t.Fatal(err)
	}
	a4, err := l.AblIterativeCost()
	if err != nil {
		t.Fatal(err)
	}
	// The iterative baseline must be clearly more expensive than NetCut.
	v := map[string]float64{}
	for i, lbl := range a4.Series[0].Labels {
		v[lbl] = a4.Series[0].Y[i]
	}
	if v["iterative (NetAdapt-style) exploration hours"] < 1.5*v["NetCut exploration hours"] {
		t.Fatalf("iterative baseline suspiciously cheap: %+v", v)
	}
	a5, err := l.AblExtendedZoo()
	if err != nil {
		t.Fatal(err)
	}
	if a5.Series[0].Len() != 9 {
		t.Fatalf("extended zoo has %d candidates, want 9", a5.Series[0].Len())
	}
	if a5.Series[1].Len() < 7 {
		t.Fatalf("extended exploration proposed only %d TRNs", a5.Series[1].Len())
	}
	a6, err := l.AblEarlyExit()
	if err != nil {
		t.Fatal(err)
	}
	if len(a6.Series) != 3 {
		t.Fatalf("early-exit ablation has %d series, want 3", len(a6.Series))
	}
	// Worst-case latencies dominate their expected counterparts.
	for i := range a6.Series[0].X {
		if a6.Series[1].X[i] < a6.Series[0].X[i] {
			t.Fatalf("worst case %.3f below expected %.3f", a6.Series[1].X[i], a6.Series[0].X[i])
		}
	}
	// Deployed int8+fusion must be the fastest mode everywhere.
	deployed := a3.Series[0]
	for si := 1; si < len(a3.Series); si++ {
		for i := range deployed.Y {
			if a3.Series[si].Y[i] <= deployed.Y[i] {
				t.Fatalf("mode %s beats deployed int8+fusion on %s",
					a3.Series[si].Name, deployed.Labels[i])
			}
		}
	}
}

func TestAllAndRender(t *testing.T) {
	figs, err := lab(t).All()
	if err != nil {
		t.Fatal(err)
	}
	if len(figs) != 15 {
		t.Fatalf("All produced %d figures, want 15", len(figs))
	}
	var buf bytes.Buffer
	for _, f := range figs {
		if err := f.Render(&buf); err != nil {
			t.Fatal(err)
		}
		if err := f.Markdown(&buf); err != nil {
			t.Fatal(err)
		}
	}
	out := buf.String()
	for _, want := range []string{"fig1", "FIG10", "tab1", "Pareto", "speedup"} {
		if !strings.Contains(out, want) {
			t.Fatalf("rendered output missing %q", want)
		}
	}
}

func TestLabConfigDefaults(t *testing.T) {
	l, err := NewLab(Config{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if l.Deadline() != 0.9 {
		t.Fatalf("default deadline = %v, want 0.9", l.Deadline())
	}
	if l.Device() == nil {
		t.Fatal("no device")
	}
}

// TestAblDeviceModesRejectsInvalidMode pins that an ablated device mode
// the Lab's device cannot run (an INT8 profile without an FP32 slowdown
// is valid, its FP32 variant is not) is an error naming the mode, not a
// panic that takes down All.
func TestAblDeviceModesRejectsInvalidMode(t *testing.T) {
	cfg := device.Xavier()
	cfg.FP32Slowdown = 0
	l, err := NewLab(Config{
		Seed:     1,
		Device:   &cfg,
		Protocol: profiler.Protocol{WarmupRuns: 10, TimedRuns: 20},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("AblDeviceModes panicked: %v", r)
		}
	}()
	_, err = l.AblDeviceModes()
	if err == nil || !strings.Contains(err.Error(), "fp32+fusion") {
		t.Fatalf("err = %v, want an error naming the fp32+fusion mode", err)
	}
}
