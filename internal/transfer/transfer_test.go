package transfer

import (
	"fmt"
	"hash/fnv"
	"math"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"netcut/internal/trim"
	"netcut/internal/zoo"
)

func TestPaperProfilesValidate(t *testing.T) {
	ps := PaperProfiles()
	if len(ps) != 7 {
		t.Fatalf("%d profiles, want 7", len(ps))
	}
	for _, name := range zoo.Names {
		if _, ok := ps[name]; !ok {
			t.Errorf("missing profile for %s", name)
		}
	}
}

func TestCurveInterpolation(t *testing.T) {
	p := &Profile{
		Network: "x",
		Points:  []ControlPoint{{0, 0.9}, {10, 0.8}, {20, 0.6}},
	}
	if err := p.validate(); err != nil {
		t.Fatal(err)
	}
	cases := []struct{ r, want float64 }{
		{0, 0.9}, {5, 0.85}, {10, 0.8}, {15, 0.7}, {20, 0.6}, {100, 0.6}, {-5, 0.9},
	}
	for _, c := range cases {
		if got := p.curve(c.r); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("curve(%v) = %v, want %v", c.r, got, c.want)
		}
	}
}

func TestProfileValidateRejectsBadTables(t *testing.T) {
	bad := []*Profile{
		{Network: "a", Points: []ControlPoint{{0, 0.9}}},
		{Network: "b", Points: []ControlPoint{{1, 0.9}, {5, 0.8}}},
		{Network: "c", Points: []ControlPoint{{0, 0.9}, {5, 0.95}}},
		{Network: "d", Points: []ControlPoint{{0, 0.9}, {0, 0.8}}},
	}
	for _, p := range bad {
		if err := p.validate(); err == nil {
			t.Errorf("profile %s accepted", p.Network)
		}
	}
}

func TestHeadlineAnchors(t *testing.T) {
	sim := NewSimulator(1)
	// MobileNetV1 (0.5) minus one block keeps ~0.806: +10.4% over
	// MobileNetV1 (0.25)'s 0.73 (the paper's headline).
	g, err := zoo.ByName("MobileNetV1 (0.5)")
	if err != nil {
		t.Fatal(err)
	}
	cut1, err := trim.Cut(g, 1, trim.DefaultHead)
	if err != nil {
		t.Fatal(err)
	}
	if cut1.LayersRemoved != 6 {
		t.Fatalf("MobileNetV1 cut 1 removes %d layers, want 6", cut1.LayersRemoved)
	}
	acc, err := sim.Accuracy(cut1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(acc-0.806) > 0.02 {
		t.Fatalf("cut-1 accuracy = %v, want ~0.806", acc)
	}
	rel := acc/0.73 - 1
	if rel < 0.07 || rel > 0.14 {
		t.Fatalf("relative improvement = %.3f, want ~0.104", rel)
	}
}

func TestResNetPaperCutLabels(t *testing.T) {
	// The layer-count conventions reproduce the paper's Fig. 10 labels:
	// cut 9 = ResNet-50/94, cut 11 = ResNet-50/114.
	g, _ := zoo.ByName("ResNet-50")
	c9, err := trim.Cut(g, 9, trim.DefaultHead)
	if err != nil {
		t.Fatal(err)
	}
	if c9.LayersRemoved != 94 {
		t.Fatalf("ResNet cut 9 removes %d layers, want 94", c9.LayersRemoved)
	}
	c11, _ := trim.Cut(g, 11, trim.DefaultHead)
	if c11.LayersRemoved != 114 {
		t.Fatalf("ResNet cut 11 removes %d layers, want 114", c11.LayersRemoved)
	}
	sim := NewSimulator(1)
	a9, _ := sim.Accuracy(c9)
	a11, _ := sim.Accuracy(c11)
	if math.Abs(a9-0.856) > 0.02 || math.Abs(a11-0.828) > 0.02 {
		t.Fatalf("ResNet/94=%.3f (want ~0.856), ResNet/114=%.3f (want ~0.828)", a9, a11)
	}
}

func TestInceptionPaperCutLabels(t *testing.T) {
	g, _ := zoo.ByName("InceptionV3")
	c7, err := trim.Cut(g, 7, trim.DefaultHead)
	if err != nil {
		t.Fatal(err)
	}
	if c7.LayersRemoved != 210 {
		t.Fatalf("Inception cut 7 removes %d layers, want 210 (Fig. 10)", c7.LayersRemoved)
	}
	c8, _ := trim.Cut(g, 8, trim.DefaultHead)
	if c8.LayersRemoved != 224 {
		t.Fatalf("Inception cut 8 removes %d layers, want 224 (Fig. 10)", c8.LayersRemoved)
	}
}

func TestMobileNetV2PaperCutLabel(t *testing.T) {
	g, _ := zoo.ByName("MobileNetV2 (1.0)")
	c1, err := trim.Cut(g, 1, trim.DefaultHead)
	if err != nil {
		t.Fatal(err)
	}
	if c1.LayersRemoved != 11 {
		t.Fatalf("MobileNetV2 cut 1 removes %d layers, want 11 (Fig. 10)", c1.LayersRemoved)
	}
}

func TestFig5Shapes(t *testing.T) {
	// DenseNet and Inception barely lose accuracy at 100 layers removed;
	// MobileNets collapse; ResNet beats MobileNetV2 at equal removal.
	ps := PaperProfiles()
	dn, iv, rn := ps["DenseNet-121"], ps["InceptionV3"], ps["ResNet-50"]
	m1, m2 := ps["MobileNetV1 (0.5)"], ps["MobileNetV2 (1.0)"]
	if dn.Points[0].Accuracy-dn.curve(100) > 0.03 {
		t.Error("DenseNet should lose < 0.03 at 100 removed")
	}
	if iv.Points[0].Accuracy-iv.curve(100) > 0.03 {
		t.Error("Inception should lose < 0.03 at 100 removed")
	}
	if m1.Points[0].Accuracy-m1.curve(24) < 0.08 {
		t.Error("MobileNetV1 should collapse quickly")
	}
	for _, r := range []float64{20, 40, 60, 100} {
		if rn.curve(r) <= m2.curve(r) {
			t.Errorf("ResNet should beat MobileNetV2 at %v removed: %.3f vs %.3f",
				r, rn.curve(r), m2.curve(r))
		}
	}
}

func TestRetrainDeterminism(t *testing.T) {
	g, _ := zoo.ByName("ResNet-50")
	c, _ := trim.Cut(g, 5, trim.DefaultHead)
	s1 := NewSimulator(7)
	s2 := NewSimulator(7)
	r1, err1 := s1.Retrain(c)
	r2, err2 := s2.Retrain(c)
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	if r1 != r2 {
		t.Fatalf("same seed gave %v vs %v", r1, r2)
	}
	s3 := NewSimulator(8)
	r3, _ := s3.Retrain(c)
	if r3.Accuracy == r1.Accuracy {
		t.Fatal("different seeds should perturb accuracy")
	}
}

func TestUnknownNetwork(t *testing.T) {
	sim := NewSimulator(1)
	b := zoo.MobileNetV1(0.75) // width not in the paper set
	c, _ := trim.Cut(b, 1, trim.DefaultHead)
	if _, err := sim.Accuracy(c); err == nil {
		t.Fatal("accuracy for unprofiled network should error")
	}
	if _, err := sim.OffTheShelfAccuracy("nope"); err == nil {
		t.Fatal("OffTheShelfAccuracy for unknown network should error")
	}
}

func TestWithinBlockBonusBounded(t *testing.T) {
	// Exhaustive cuts inside a block may beat the whole-block cut by at
	// most WithinBlockBonus + noise (the paper's < 0.03 claim, Fig. 4).
	g, _ := zoo.ByName("InceptionV3")
	sim := NewSimulator(3)
	trns, err := trim.EnumerateExhaustive(g, trim.DefaultHead)
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range trns[:60] {
		a, err := sim.Accuracy(tr)
		if err != nil {
			t.Fatal(err)
		}
		if a < 0 || a > 1 {
			t.Fatalf("accuracy out of range: %v", a)
		}
	}
	// A mid-block exhaustive cut vs the whole-block cut one boundary
	// deeper never differs by more than 0.03 + noise headroom.
	boundsSlice, err := sim.blockBoundaries(trns[0])
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range trns {
		r := tr.LayersRemoved
		for i := 1; i < len(boundsSlice); i++ {
			if r > boundsSlice[i-1] && r < boundsSlice[i] {
				aPartial, _ := sim.Accuracy(tr)
				whole := PaperProfiles()["InceptionV3"].curve(float64(boundsSlice[i]))
				if aPartial-whole > 0.03+0.01 {
					t.Fatalf("partial cut %d beats whole block by %.3f (> 0.03)",
						r, aPartial-whole)
				}
			}
		}
	}
}

func TestTrainHoursScaleWithDepth(t *testing.T) {
	sim := NewSimulator(1)
	g, _ := zoo.ByName("ResNet-50")
	shallow, _ := trim.Cut(g, 12, trim.DefaultHead)
	deep, _ := trim.Cut(g, 2, trim.DefaultHead)
	if sim.TrainHours(shallow) >= sim.TrainHours(deep) {
		t.Fatal("deeper TRN should cost more training time")
	}
}

func TestBlockwiseSweepCostNearPaper(t *testing.T) {
	// The 148-candidate blockwise sweep should cost roughly the paper's
	// 183 hours (+-25%).
	sim := NewSimulator(1)
	total := 0.0
	for _, g := range zoo.Paper7() {
		trns, err := trim.EnumerateBlockwise(g, trim.DefaultHead, false)
		if err != nil {
			t.Fatal(err)
		}
		for _, tr := range trns {
			total += sim.TrainHours(tr)
		}
	}
	if total < 137 || total > 229 {
		t.Fatalf("blockwise sweep = %.1f hours, want ~183 +-25%%", total)
	}
}

// Property: accuracy is within [0,1] and weakly decreasing in blockwise
// cutpoint (up to noise).
func TestAccuracyMonotoneProperty(t *testing.T) {
	sim := NewSimulator(5)
	g, _ := zoo.ByName("DenseNet-121")
	trns, err := trim.EnumerateBlockwise(g, trim.DefaultHead, true)
	if err != nil {
		t.Fatal(err)
	}
	accs := make([]float64, len(trns))
	for i, tr := range trns {
		a, err := sim.Accuracy(tr)
		if err != nil {
			t.Fatal(err)
		}
		if a < 0 || a > 1 {
			t.Fatalf("accuracy %v out of range", a)
		}
		accs[i] = a
	}
	for i := 1; i < len(accs); i++ {
		if accs[i] > accs[i-1]+3*0.004 {
			t.Fatalf("accuracy increased with removal at cut %d: %.4f -> %.4f",
				i, accs[i-1], accs[i])
		}
	}
	f := func(r uint16) bool {
		p := PaperProfiles()["DenseNet-121"]
		v := p.curve(float64(r % 500))
		return v >= 0 && v <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestAccuracyConcurrentFirstUse pins the memoized retraining noise:
// goroutines racing on a fresh simulator's first draws, and every later
// call, return the bits a serial simulator's first calls return, for
// blockwise and within-block cuts alike. Run under -race it also checks
// the noise and boundary memos are guarded.
func TestAccuracyConcurrentFirstUse(t *testing.T) {
	g := zoo.ResNet50()
	blockwise, err := trim.EnumerateBlockwise(g, trim.DefaultHead, true)
	if err != nil {
		t.Fatal(err)
	}
	exhaustive, err := trim.EnumerateExhaustive(g, trim.DefaultHead)
	if err != nil {
		t.Fatal(err)
	}
	cuts := append(blockwise, exhaustive...)
	ref := NewSimulator(9)
	want := make([]float64, len(cuts))
	for i, c := range cuts {
		if want[i], err = ref.Accuracy(c); err != nil {
			t.Fatal(err)
		}
	}
	wantOTS, err := ref.OffTheShelfAccuracy(g.Name)
	if err != nil {
		t.Fatal(err)
	}
	sim := NewSimulator(9)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range 2 * len(cuts) {
				i := (k + 7*w) % len(cuts)
				got, err := sim.Accuracy(cuts[i])
				if err != nil {
					t.Error(err)
					return
				}
				if math.Float64bits(got) != math.Float64bits(want[i]) {
					t.Errorf("%s: accuracy %v, want %v", cuts[i].Graph.Name, got, want[i])
				}
			}
			if got, err := sim.OffTheShelfAccuracy(g.Name); err != nil || math.Float64bits(got) != math.Float64bits(wantOTS) {
				t.Errorf("off-the-shelf accuracy %v (%v), want %v", got, err, wantOTS)
			}
		}()
	}
	wg.Wait()
}

// TestSeedsMatchFprintf pins the inline FNV-1a seeds to the hash/fnv +
// fmt.Fprintf spelling they replaced, so every generic profile and
// retraining draw keeps its bits: empty, non-ASCII, invalid-UTF-8 and
// long names against negative, zero and extreme integers.
func TestSeedsMatchFprintf(t *testing.T) {
	names := []string{"", "ResNet-50", "réseau|网络", "\xff\xfe", strings.Repeat("user-graph/", 300)}
	ints := []int{0, 1, -1, 9, -10, 1234567, math.MaxInt, math.MinInt}
	ref := func(format string, args ...any) int64 {
		h := fnv.New64a()
		fmt.Fprintf(h, format, args...)
		return int64(h.Sum64())
	}
	for _, name := range names {
		for _, n := range ints {
			if got, want := genericSeed(name, n), ref("generic|%s|%d", name, n); got != want {
				t.Fatalf("genericSeed(%q, %d) = %d, want %d", name, n, got, want)
			}
			for _, seed := range []int64{0, -3, int64(n)} {
				if got, want := noiseSeed(seed, name, n), ref("%d|%s|%d", seed, name, n); got != want {
					t.Fatalf("noiseSeed(%d, %q, %d) = %d, want %d", seed, name, n, got, want)
				}
			}
		}
	}
	if a := testing.AllocsPerRun(100, func() { noiseSeed(1, "ResNet-50", -12) }); a != 0 {
		t.Fatalf("noiseSeed allocates %v times per call, want 0", a)
	}
}
