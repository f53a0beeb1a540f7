package trim

import (
	"testing"
	"testing/quick"

	"netcut/internal/graph"
	"netcut/internal/zoo"
)

func TestCutZeroReplacesOnlyHead(t *testing.T) {
	g := zoo.MobileNetV1(0.5)
	trn, err := Cut(g, 0, DefaultHead)
	if err != nil {
		t.Fatal(err)
	}
	if trn.LayersRemoved != 0 {
		t.Fatalf("LayersRemoved = %d, want 0", trn.LayersRemoved)
	}
	if got, want := trn.Graph.FeatureLayerCount(), g.FeatureLayerCount(); got != want {
		t.Fatalf("feature layers = %d, want %d", got, want)
	}
	// Replacement head: GAP + Dense + ReLU + Dense + ReLU + Dense + Softmax.
	if got := trn.Graph.HeadLayerCount(); got != 7 {
		t.Fatalf("head layers = %d, want 7", got)
	}
	if trn.Graph.NumClasses != 5 {
		t.Fatalf("classes = %d, want 5", trn.Graph.NumClasses)
	}
	if trn.Name() != "MobileNetV1 (0.5)/0" {
		t.Fatalf("name = %q", trn.Name())
	}
}

func TestCutAllLeavesStem(t *testing.T) {
	g := zoo.MobileNetV1(0.5)
	trn, err := Cut(g, g.BlockCount(), DefaultHead)
	if err != nil {
		t.Fatal(err)
	}
	// Stem is Conv+BN+ReLU6 = 3 feature layers.
	if got := trn.Graph.FeatureLayerCount(); got != 3 {
		t.Fatalf("stem feature layers = %d, want 3", got)
	}
	if trn.Graph.BlockCount() != 0 {
		t.Fatalf("blocks = %d, want 0", trn.Graph.BlockCount())
	}
}

func TestCutOutOfRange(t *testing.T) {
	g := zoo.MobileNetV1(0.25)
	if _, err := Cut(g, -1, DefaultHead); err == nil {
		t.Fatal("negative cutpoint accepted")
	}
	if _, err := Cut(g, g.BlockCount()+1, DefaultHead); err == nil {
		t.Fatal("cutpoint beyond block count accepted")
	}
	if _, err := Cut(g, 1, HeadSpec{}); err == nil {
		t.Fatal("zero head spec accepted")
	}
}

func TestCutValidatesOnAllZooNetworks(t *testing.T) {
	for _, g := range zoo.Paper7() {
		for _, c := range []int{0, 1, g.BlockCount() / 2, g.BlockCount()} {
			trn, err := Cut(g, c, DefaultHead)
			if err != nil {
				t.Fatalf("%s cut %d: %v", g.Name, c, err)
			}
			if err := graph.Validate(trn.Graph); err != nil {
				t.Fatalf("%s cut %d: invalid TRN: %v", g.Name, c, err)
			}
		}
	}
}

// featureTotals sums MACs and params over non-head layers only. Head
// totals are excluded because a deeper cut can expose a *wider* tensor to
// the replacement head (e.g. MobileNetV2's 32-channel stem vs its
// 16-channel first block), legitimately growing head parameters.
func featureTotals(g *graph.Graph) (macs, params int64) {
	for _, n := range g.Nodes {
		if n.Head {
			continue
		}
		macs += n.MACs
		params += n.Params
	}
	return macs, params
}

func TestMonotonicity(t *testing.T) {
	// More blocks removed => fewer layers, fewer feature MACs/params.
	for _, g := range zoo.Paper7() {
		trns, err := EnumerateBlockwise(g, DefaultHead, true)
		if err != nil {
			t.Fatal(err)
		}
		for i := 1; i < len(trns); i++ {
			a, b := trns[i-1], trns[i]
			if b.LayersRemoved <= a.LayersRemoved {
				t.Fatalf("%s: LayersRemoved not increasing at cut %d (%d -> %d)",
					g.Name, i, a.LayersRemoved, b.LayersRemoved)
			}
			am, ap := featureTotals(a.Graph)
			bm, bp := featureTotals(b.Graph)
			if bm >= am {
				t.Fatalf("%s: feature MACs not decreasing at cut %d", g.Name, i)
			}
			if bp >= ap {
				t.Fatalf("%s: feature params not decreasing at cut %d", g.Name, i)
			}
		}
	}
}

func TestBlockwiseCandidateCountIs148(t *testing.T) {
	total := 0
	for _, g := range zoo.Paper7() {
		trns, err := EnumerateBlockwise(g, DefaultHead, false)
		if err != nil {
			t.Fatal(err)
		}
		total += len(trns)
	}
	if total != 148 {
		t.Fatalf("blockwise candidates = %d, want 148 (paper, Sec. V)", total)
	}
}

func TestRemovedIDsPartitionFeatureLayers(t *testing.T) {
	g := zoo.ResNet50()
	trn, err := Cut(g, 8, DefaultHead)
	if err != nil {
		t.Fatal(err)
	}
	if len(trn.RemovedIDs) != trn.LayersRemoved {
		t.Fatalf("RemovedIDs len %d != LayersRemoved %d", len(trn.RemovedIDs), trn.LayersRemoved)
	}
	if got, want := trn.Graph.FeatureLayerCount()+trn.LayersRemoved, g.FeatureLayerCount(); got != want {
		t.Fatalf("kept+removed = %d, want %d", got, want)
	}
	for _, id := range trn.RemovedIDs {
		n := g.Node(id)
		if n.Head || n.Kind == graph.OpInput {
			t.Fatalf("removed ID %d is head/input", id)
		}
	}
}

func TestCutAtNodeMidBlock(t *testing.T) {
	g := zoo.InceptionV3()
	// Cut in the middle of the network at an arbitrary conv node.
	mid := len(g.Nodes) / 2
	for g.Nodes[mid].Kind != graph.OpConv {
		mid++
	}
	trn, err := CutAtNode(g, mid, DefaultHead)
	if err != nil {
		t.Fatal(err)
	}
	if err := graph.Validate(trn.Graph); err != nil {
		t.Fatal(err)
	}
	if trn.Cutpoint != -1 {
		t.Fatalf("Cutpoint = %d, want -1 for node cuts", trn.Cutpoint)
	}
	// Ancestor cut drops unconsumed sibling branches: layers removed must
	// be at least the suffix length.
	if trn.LayersRemoved <= 0 {
		t.Fatal("no layers removed by mid cut")
	}
}

func TestCutAtNodeRejectsHeadAndInput(t *testing.T) {
	g := zoo.MobileNetV1(0.25)
	if _, err := CutAtNode(g, 0, DefaultHead); err == nil {
		t.Fatal("cut at input accepted")
	}
	if _, err := CutAtNode(g, len(g.Nodes)-1, DefaultHead); err == nil {
		t.Fatal("cut at head accepted")
	}
}

func TestExhaustiveEnumerationCoversAllFeatureLayers(t *testing.T) {
	g := zoo.MobileNetV1(0.25)
	trns, err := EnumerateExhaustive(g, DefaultHead)
	if err != nil {
		t.Fatal(err)
	}
	if len(trns) != g.FeatureLayerCount() {
		t.Fatalf("exhaustive TRNs = %d, want %d", len(trns), g.FeatureLayerCount())
	}
	// Exhaustive enumeration includes every blockwise cut tensor.
	blockCuts := map[int]bool{}
	for _, blk := range g.Blocks {
		blockCuts[blk.Output] = true
	}
	seen := 0
	for _, trn := range trns {
		if blockCuts[trn.CutNode] {
			seen++
		}
	}
	if seen != len(g.Blocks) {
		t.Fatalf("exhaustive covers %d block outputs, want %d", seen, len(g.Blocks))
	}
}

// Property: for random blockwise cutpoints, the TRN graph always
// validates, its block count equals BlockCount-cut, and its output is a
// softmax over the head's class count.
func TestCutProperties(t *testing.T) {
	g := zoo.MobileNetV2(1.0)
	f := func(raw uint8) bool {
		c := int(raw) % (g.BlockCount() + 1)
		trn, err := Cut(g, c, DefaultHead)
		if err != nil {
			return false
		}
		if graph.Validate(trn.Graph) != nil {
			return false
		}
		if trn.Graph.BlockCount() != g.BlockCount()-c {
			return false
		}
		out := trn.Graph.OutputNode()
		return out.Kind == graph.OpSoftmax && out.Out.C == DefaultHead.Classes
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestParentGraphUnmodified(t *testing.T) {
	g := zoo.ResNet50()
	before := g.LayerCount()
	macs := g.TotalMACs()
	if _, err := Cut(g, 10, DefaultHead); err != nil {
		t.Fatal(err)
	}
	if g.LayerCount() != before || g.TotalMACs() != macs {
		t.Fatal("Cut mutated the parent graph")
	}
	if err := graph.Validate(g); err != nil {
		t.Fatalf("parent invalid after cut: %v", err)
	}
}

// TestCutCacheIsOneNamespace pins that a cut-cache entry depends on
// the parent's structure, the cut and the head alone: an equal parent
// rebuilt as a new object, as a second device's request would carry
// it, hits the first cut's entry and gets the same *TRN back.
func TestCutCacheIsOneNamespace(t *testing.T) {
	PurgeCutCache()
	t.Cleanup(PurgeCutCache)
	a, err := Cut(zoo.MobileNetV1(0.5), 3, DefaultHead)
	if err != nil {
		t.Fatal(err)
	}
	before := CutCacheStats()
	g := zoo.MobileNetV1(0.5)
	if g == a.Parent {
		t.Fatal("the zoo returned the same graph object twice")
	}
	b, err := Cut(g, 3, DefaultHead)
	if err != nil {
		t.Fatal(err)
	}
	after := CutCacheStats()
	if b != a {
		t.Fatal("an equal parent rebuilt as a new object did not share the first cut's entry")
	}
	if after.Len != before.Len || after.Misses != before.Misses || after.Hits != before.Hits+1 {
		t.Fatalf("cache stats %+v -> %+v, want one hit and no new entry", before, after)
	}
}
