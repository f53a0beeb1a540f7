package zoo

import (
	"math"
	"strings"
	"sync"
	"testing"

	"netcut/internal/graph"
)

func TestAllBuildAndValidate(t *testing.T) {
	for _, g := range Paper7() {
		if err := graph.Validate(g); err != nil {
			t.Errorf("%s: %v", g.Name, err)
		}
	}
}

func TestBlockCounts(t *testing.T) {
	want := map[string]int{
		"MobileNetV1 (0.25)": 13,
		"MobileNetV1 (0.5)":  13,
		"MobileNetV2 (1.0)":  17,
		"MobileNetV2 (1.4)":  17,
		"ResNet-50":          16,
		"InceptionV3":        11,
		"DenseNet-121":       61,
	}
	total := 0
	for _, g := range Paper7() {
		if got := g.BlockCount(); got != want[g.Name] {
			t.Errorf("%s: %d blocks, want %d", g.Name, got, want[g.Name])
		}
		total += g.BlockCount()
	}
	// The paper's 148 blockwise TRN candidates (Sec. V).
	if total != 148 {
		t.Fatalf("total blockwise cutpoints = %d, want 148", total)
	}
}

func TestLayerCountsMatchFrameworkConventions(t *testing.T) {
	// Reference framework model summaries (±6% tolerance: we omit
	// explicit zero-padding marker layers).
	want := map[string]int{
		"MobileNetV1 (0.25)": 85,
		"MobileNetV1 (0.5)":  85,
		"MobileNetV2 (1.0)":  154,
		"MobileNetV2 (1.4)":  154,
		"ResNet-50":          175,
		"InceptionV3":        311,
		"DenseNet-121":       427,
	}
	for _, g := range Paper7() {
		got := g.LayerCount()
		w := want[g.Name]
		if math.Abs(float64(got-w)) > 0.06*float64(w) {
			t.Errorf("%s: %d layers, want ~%d", g.Name, got, w)
		}
	}
}

func TestMACsMatchPublishedCounts(t *testing.T) {
	// Published multiply-accumulate counts (one MAC = one mult+add).
	want := map[string]struct {
		macs float64
		tol  float64
	}{
		"MobileNetV1 (0.25)": {41e6, 0.35},
		"MobileNetV1 (0.5)":  {150e6, 0.30},
		"MobileNetV2 (1.0)":  {300e6, 0.30},
		"MobileNetV2 (1.4)":  {585e6, 0.30},
		"ResNet-50":          {3.9e9, 0.15},
		"InceptionV3":        {5.7e9, 0.20},
		"DenseNet-121":       {2.9e9, 0.20},
	}
	for _, g := range Paper7() {
		got := float64(g.TotalMACs())
		w := want[g.Name]
		if math.Abs(got-w.macs)/w.macs > w.tol {
			t.Errorf("%s: %.3g MACs, want %.3g +-%.0f%%", g.Name, got, w.macs, w.tol*100)
		}
	}
}

func TestParamsMatchPublishedCounts(t *testing.T) {
	want := map[string]struct {
		params float64
		tol    float64
	}{
		"MobileNetV1 (0.5)": {1.3e6, 0.35},
		"MobileNetV2 (1.0)": {3.5e6, 0.25},
		"ResNet-50":         {25.6e6, 0.10},
		"InceptionV3":       {23.9e6, 0.15},
		"DenseNet-121":      {8.0e6, 0.15},
	}
	for _, g := range Paper7() {
		w, ok := want[g.Name]
		if !ok {
			continue
		}
		got := float64(g.TotalParams())
		if math.Abs(got-w.params)/w.params > w.tol {
			t.Errorf("%s: %.3g params, want %.3g +-%.0f%%", g.Name, got, w.params, w.tol*100)
		}
	}
}

func TestInceptionSpatialPipeline(t *testing.T) {
	g := InceptionV3()
	// Find the first mixed block's output: must be 35x35.
	blk := g.Blocks[0]
	if out := g.Node(blk.Output).Out; out.H != 35 || out.W != 35 {
		t.Fatalf("mixed0 output %v, want 35x35", out)
	}
	// mixed3 reduces to 17x17, mixed8 to 8x8.
	if out := g.Node(g.Blocks[3].Output).Out; out.H != 17 {
		t.Fatalf("mixed3 output %v, want 17x17", out)
	}
	if out := g.Node(g.Blocks[8].Output).Out; out.H != 8 {
		t.Fatalf("mixed8 output %v, want 8x8", out)
	}
}

func TestDenseNetChannelGrowth(t *testing.T) {
	g := DenseNet121()
	// After dense block 1 (6 units from 64 channels): 64+6*32 = 256.
	if out := g.Node(g.Blocks[5].Output).Out; out.C != 256 {
		t.Fatalf("dense1 output channels = %d, want 256", out.C)
	}
	// Transition 1 halves to 128.
	if out := g.Node(g.Blocks[6].Output).Out; out.C != 128 {
		t.Fatalf("transition1 output channels = %d, want 128", out.C)
	}
	// Final feature channels: 1024 for DenseNet-121.
	lastBlk := g.Blocks[len(g.Blocks)-1]
	if out := g.Node(lastBlk.Output).Out; out.C != 1024 {
		t.Fatalf("final dense output channels = %d, want 1024", out.C)
	}
}

func TestResNetStageShapes(t *testing.T) {
	g := ResNet50()
	// Block outputs: res2 ends 56x56x256, res3 28x28x512, res4 14x14x1024,
	// res5 7x7x2048.
	checks := []struct {
		blk  int
		want graph.Shape
	}{
		{2, graph.Shape{H: 56, W: 56, C: 256}},
		{6, graph.Shape{H: 28, W: 28, C: 512}},
		{12, graph.Shape{H: 14, W: 14, C: 1024}},
		{15, graph.Shape{H: 7, W: 7, C: 2048}},
	}
	for _, c := range checks {
		if out := g.Node(g.Blocks[c.blk].Output).Out; out != c.want {
			t.Errorf("block %d output %v, want %v", c.blk, out, c.want)
		}
	}
}

func TestMobileNetWidthScaling(t *testing.T) {
	small := MobileNetV1(0.25)
	big := MobileNetV1(0.5)
	if small.TotalMACs() >= big.TotalMACs() {
		t.Fatal("width 0.25 should have fewer MACs than width 0.5")
	}
	if small.LayerCount() != big.LayerCount() {
		t.Fatal("width multiplier must not change layer count")
	}
}

func TestMakeDivisible(t *testing.T) {
	cases := []struct {
		v    float64
		want int
	}{
		{33.6, 32}, {22.4, 24}, {8, 8}, {4, 8}, {44.8, 48}, {1280 * 1.4, 1792},
	}
	for _, c := range cases {
		if got := makeDivisible(c.v, 8); got != c.want {
			t.Errorf("makeDivisible(%v) = %d, want %d", c.v, got, c.want)
		}
	}
}

func TestByName(t *testing.T) {
	g, err := ByName("ResNet-50")
	if err != nil || g.Name != "ResNet-50" {
		t.Fatalf("ByName(ResNet-50) = %v, %v", g, err)
	}
	if _, err := ByName("VGG-19"); err == nil || !strings.Contains(err.Error(), "unknown network") {
		t.Fatalf("ByName(VGG-19) err = %v, want unknown network", err)
	}
}

// TestSharedInstances pins the zoo's one-instance-per-process rule:
// repeated and concurrent ByName, Lookup and Paper7 calls return the
// same pointers, each shared graph is sealed, and its fingerprint is
// that of a fresh build through the exported builders.
func TestSharedInstances(t *testing.T) {
	fresh := map[string]func() *graph.Graph{
		"MobileNetV1 (0.25)": func() *graph.Graph { return MobileNetV1(0.25) },
		"MobileNetV1 (0.5)":  func() *graph.Graph { return MobileNetV1(0.5) },
		"MobileNetV2 (1.0)":  func() *graph.Graph { return MobileNetV2(1.0) },
		"MobileNetV2 (1.4)":  func() *graph.Graph { return MobileNetV2(1.4) },
		"ResNet-50":          ResNet50,
		"InceptionV3":        InceptionV3,
		"DenseNet-121":       DenseNet121,
	}
	const callers = 8
	got := make([][]*graph.Graph, callers)
	var wg sync.WaitGroup
	for c := range callers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, n := range Names {
				g, err := ByName(n)
				if err != nil {
					t.Error(err)
					return
				}
				got[c] = append(got[c], g)
			}
			got[c] = append(got[c], Paper7()...)
		}()
	}
	wg.Wait()
	want := Paper7()
	for c := range callers {
		for i, g := range got[c] {
			if g != want[i%len(Names)] {
				t.Fatalf("caller %d, call %d: %s is not the shared instance", c, i, g.Name)
			}
		}
	}
	for i, n := range Names {
		g := want[i]
		if lg, ok := Lookup(n); !ok || lg != g {
			t.Fatalf("Lookup(%q) = %p, %v; want the shared instance %p", n, lg, ok, g)
		}
		if !g.Sealed() {
			t.Errorf("%s: shared instance is not sealed", n)
		}
		if got, want := graph.Fingerprint(g), graph.Fingerprint(fresh[n]()); got != want {
			t.Errorf("%s: shared fingerprint %x, fresh build %x", n, got, want)
		}
	}
	if len(fresh) != len(Names) {
		t.Fatalf("%d fresh builders for %d names", len(fresh), len(Names))
	}
	scratch := Paper7()
	scratch[0] = nil
	if Paper7()[0] != want[0] {
		t.Fatal("writing to one Paper7 slice changed another")
	}
}

// TestLookupUnknownAllocatesNothing pins that a name outside the zoo
// costs the serving planner's name check no allocation.
func TestLookupUnknownAllocatesNothing(t *testing.T) {
	if g, ok := Lookup("user-net-0"); ok || g != nil {
		t.Fatalf("Lookup(user-net-0) = %v, %v", g, ok)
	}
	if allocs := testing.AllocsPerRun(100, func() { Lookup("user-net-0") }); allocs != 0 {
		t.Fatalf("Lookup of an unknown name makes %v allocations, want 0", allocs)
	}
}

func TestHeadsAreMarked(t *testing.T) {
	for _, g := range Paper7() {
		if g.HeadLayerCount() != 3 {
			t.Errorf("%s: head layers = %d, want 3 (GAP+Dense+Softmax)", g.Name, g.HeadLayerCount())
		}
		out := g.OutputNode()
		if out.Kind != graph.OpSoftmax || !out.Head {
			t.Errorf("%s: output node %v not a head softmax", g.Name, out.Kind)
		}
	}
}

func TestLatencyOrderingPrerequisites(t *testing.T) {
	// DenseNet has by far the most layers; MobileNets the fewest MACs.
	byName := map[string]*graph.Graph{}
	for _, g := range Paper7() {
		byName[g.Name] = g
	}
	if byName["DenseNet-121"].LayerCount() <= byName["InceptionV3"].LayerCount() {
		t.Fatal("DenseNet-121 should have more layers than InceptionV3")
	}
	if byName["MobileNetV1 (0.25)"].TotalMACs() >= byName["MobileNetV2 (1.0)"].TotalMACs() {
		t.Fatal("MobileNetV1 (0.25) should have fewer MACs than MobileNetV2 (1.0)")
	}
}
