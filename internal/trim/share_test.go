package trim

import (
	"runtime"
	"testing"
	"weak"

	"netcut/internal/device"
	"netcut/internal/graph"
	"netcut/internal/zoo"
)

// TestTotalsMatchGraph checks every blockwise cut and every exhaustive
// cut of the paper zoo: the totals stored at the cut are exactly the
// figures a walk over the trimmed graph's nodes gives.
func TestTotalsMatchGraph(t *testing.T) {
	for _, g := range zoo.Paper7() {
		block, err := EnumerateBlockwise(g, DefaultHead, true)
		if err != nil {
			t.Fatal(err)
		}
		exh, err := EnumerateExhaustive(g, DefaultHead)
		if err != nil {
			t.Fatal(err)
		}
		for _, trn := range append(block, exh...) {
			if got, want := trn.Totals, totalsByWalk(trn.Graph); got != want {
				t.Fatalf("%s: totals %+v, want %+v", trn.Name(), got, want)
			}
		}
	}
}

func totalsByWalk(g *graph.Graph) Totals {
	var t Totals
	for _, n := range g.Nodes {
		t.MACs += n.MACs
		t.Params += n.Params
		if n.Kind != graph.OpInput {
			t.Layers++
		}
		if n.Kind == graph.OpConv || n.Kind == graph.OpDWConv {
			t.FilterSize += int64(n.KH) * int64(n.KW)
		}
		if n.Head {
			t.HeadMACs += float64(n.MACs)
		} else {
			t.FeatureMACs += float64(n.MACs)
		}
	}
	return t
}

// TestBlockwiseCutSharesParentNodes pins what keeps a cached cut small:
// a blockwise cut of a zoo network keeps an ID prefix of its parent, so
// every kept node and the kept block table are the parent's own, and
// only the seven head nodes are new.
func TestBlockwiseCutSharesParentNodes(t *testing.T) {
	for _, g := range zoo.Paper7() {
		trns, err := EnumerateBlockwise(g, DefaultHead, true)
		if err != nil {
			t.Fatal(err)
		}
		for _, trn := range trns {
			// A cache hit may carry an equal parent built earlier.
			g, tg := trn.Parent, trn.Graph
			kept := len(tg.Nodes) - tg.HeadLayerCount()
			for id := 0; id < kept; id++ {
				if tg.Nodes[id] != g.Nodes[id] {
					t.Fatalf("%s: node %d is a copy, not the parent's node", trn.Name(), id)
				}
			}
			for id := kept; id < len(tg.Nodes); id++ {
				if id < len(g.Nodes) && tg.Nodes[id] == g.Nodes[id] {
					t.Fatalf("%s: head node %d aliases a parent node", trn.Name(), id)
				}
			}
			if nb := len(tg.Blocks); nb > 0 && &tg.Blocks[0] != &g.Blocks[0] {
				t.Fatalf("%s: block table copied", trn.Name())
			}
			if err := graph.Validate(tg); err != nil {
				t.Fatalf("%s: %v", trn.Name(), err)
			}
		}
	}
}

// TestCutGraphReleasedWithCut checks that nothing but the cut cache
// keeps a trimmed graph alive: after the graph has been measured on a
// device (whose plan cache keys plans by fingerprint and holds no
// graph) and the cut has left the cache, the graph is collected while
// its parent lives on.
func TestCutGraphReleasedWithCut(t *testing.T) {
	PurgeCutCache()
	defer PurgeCutCache()
	g := zoo.ResNet50()
	dev := device.New(device.Xavier())
	trn, err := Cut(g, 9, DefaultHead)
	if err != nil {
		t.Fatal(err)
	}
	dev.LatencyMs(trn.Graph)
	cut := weak.Make(trn.Graph)
	parent := weak.Make(g)
	if again, _ := Cut(g, 9, DefaultHead); again != trn {
		t.Fatal("cut not cached")
	}
	trn = nil
	PurgeCutCache()
	for i := 0; i < 5 && cut.Value() != nil; i++ {
		runtime.GC()
	}
	if cut.Value() != nil {
		t.Fatal("trimmed graph still reachable after its cut left the cache")
	}
	if parent.Value() == nil {
		t.Fatal("parent collected while still in use")
	}
	runtime.KeepAlive(g)
}
