package graph

import (
	"strings"
	"testing"
)

// branchy builds a graph with a two-branch concat so ancestor extraction
// has real work to do.
func branchy(t *testing.T) *Graph {
	t.Helper()
	b := NewBuilder("branchy", Shape{H: 8, W: 8, C: 3}, 4)
	x := b.Input()
	x = b.ConvBNReLU6(x, 3, 8, 1, Same)
	b.BeginBlock("mix")
	l := b.Conv(x, 1, 4, 1, Same)
	r := b.Conv(x, 3, 4, 1, Same)
	r = b.Dropout(r)
	m := b.Concat(l, r)
	b.EndBlock()
	b.BeginBlock("down")
	d := b.MaxPool(m, 2, 2, Valid)
	d = b.AvgPool(d, 2, 1, Same)
	b.EndBlock()
	b.BeginHead()
	h := b.GlobalAvgPool(d)
	h = b.Dense(h, 4)
	b.Softmax(h)
	return b.MustFinish()
}

func TestLastFeatureNode(t *testing.T) {
	g := branchy(t)
	last := g.LastFeatureNode()
	if g.Nodes[last].Head {
		t.Fatal("LastFeatureNode returned a head node")
	}
	if g.Nodes[last].Kind != OpAvgPool {
		t.Fatalf("last feature node kind = %v, want AvgPool", g.Nodes[last].Kind)
	}
	for i := last + 1; i < len(g.Nodes); i++ {
		if !g.Nodes[i].Head {
			t.Fatalf("node %d after last feature node is not head", i)
		}
	}
}

func TestAncestors(t *testing.T) {
	g := branchy(t)
	// Ancestors of the concat include both branches and the stem.
	var concat int
	for _, n := range g.Nodes {
		if n.Kind == OpConcat {
			concat = n.ID
		}
	}
	anc := g.Ancestors(concat)
	if anc[0] != 0 {
		t.Fatal("ancestors must include the input")
	}
	seen := map[int]bool{}
	for _, id := range anc {
		seen[id] = true
	}
	for _, n := range g.Nodes {
		if n.ID <= concat && (n.Kind == OpConv || n.Kind == OpDropout) && !seen[n.ID] {
			t.Fatalf("branch node %d missing from ancestors", n.ID)
		}
	}
	// Ancestors of a left-branch conv exclude the right branch.
	var left, dropout int
	for _, n := range g.Nodes {
		if n.Kind == OpConv && n.KH == 1 && n.Block == 1 {
			left = n.ID
		}
		if n.Kind == OpDropout {
			dropout = n.ID
		}
	}
	anc = g.Ancestors(left)
	for _, id := range anc {
		if id == dropout {
			t.Fatal("right-branch dropout leaked into left-branch ancestors")
		}
	}
}

func TestAncestorsPanicsOutOfRange(t *testing.T) {
	g := branchy(t)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for out-of-range node")
		}
	}()
	g.Ancestors(len(g.Nodes))
}

func TestSubgraphBuilderPreservesBlocks(t *testing.T) {
	g := branchy(t)
	keep := g.Ancestors(g.Blocks[0].Output) // stem + "mix" block
	b, last := SubgraphBuilder("sub", g, keep, 4)
	b.BeginHead()
	h := b.GlobalAvgPool(last)
	h = b.Dense(h, 4)
	b.Softmax(h)
	sub, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if sub.BlockCount() != 1 || sub.Blocks[0].Label != "mix" {
		t.Fatalf("subgraph blocks = %+v, want only mix", sub.Blocks)
	}
	if sub.Name != "sub" {
		t.Fatalf("name = %q", sub.Name)
	}
	// Accounting carries over unchanged for kept nodes.
	if sub.Nodes[1].MACs != g.Nodes[1].MACs {
		t.Fatal("MACs not preserved by subgraph copy")
	}
}

func TestSubgraphBuilderRejectsBadSets(t *testing.T) {
	g := branchy(t)
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: no panic", name)
			}
		}()
		f()
	}
	mustPanic("empty set", func() { SubgraphBuilder("x", g, nil, 4) })
	mustPanic("missing input", func() { SubgraphBuilder("x", g, []int{1, 2}, 4) })
	mustPanic("not closed", func() { SubgraphBuilder("x", g, []int{0, 5}, 4) })
	mustPanic("not ascending", func() { SubgraphBuilder("x", g, []int{0, 2, 1}, 4) })
}

func TestBuilderShapeAccessor(t *testing.T) {
	b := NewBuilder("s", Shape{H: 8, W: 8, C: 3}, 2)
	x := b.Input()
	if got := b.Shape(x); got != (Shape{H: 8, W: 8, C: 3}) {
		t.Fatalf("Shape = %v", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Shape of unknown node did not panic")
		}
	}()
	b.Shape(99)
}

func TestGraphStringAndFilterSize(t *testing.T) {
	g := branchy(t)
	s := g.String()
	if !strings.Contains(s, "branchy") || !strings.Contains(s, "blocks=2") {
		t.Fatalf("String = %q", s)
	}
	// Filter sizes: 3x3 + 1x1 + 3x3 convs = 9+1+9 = 19.
	if got := g.TotalFilterSize(); got != 19 {
		t.Fatalf("TotalFilterSize = %d, want 19", got)
	}
}

func TestMustFinishPanicsOnInvalid(t *testing.T) {
	b := NewBuilder("bad", Shape{H: 4, W: 4, C: 3}, 2)
	x := b.Input()
	b.BeginBlock("open")
	b.Conv(x, 3, 4, 1, Same)
	defer func() {
		if recover() == nil {
			t.Fatal("MustFinish on unterminated block did not panic")
		}
	}()
	b.MustFinish()
}

func TestInputMustBeFirst(t *testing.T) {
	b := NewBuilder("bad", Shape{H: 4, W: 4, C: 3}, 2)
	b.Input()
	defer func() {
		if recover() == nil {
			t.Fatal("second Input did not panic")
		}
	}()
	b.Input()
}

func TestValidateErrorPaths(t *testing.T) {
	mk := func(mutate func(g *Graph)) error {
		g := branchy(t)
		mutate(g)
		return Validate(g)
	}
	cases := []struct {
		name   string
		mutate func(g *Graph)
		want   string
	}{
		{"empty", func(g *Graph) { g.Nodes = nil }, "empty"},
		{"bad id", func(g *Graph) { g.Nodes[3].ID = 99 }, "has ID"},
		{"forward ref", func(g *Graph) { g.Nodes[3].Inputs = []int{10} }, "topologically"},
		{"negative macs", func(g *Graph) { g.Nodes[3].MACs = -1 }, "negative accounting"},
		{"degenerate shape", func(g *Graph) { g.Nodes[3].Out = Shape{} }, "degenerate"},
		{"head gap", func(g *Graph) { g.Nodes[len(g.Nodes)-2].Head = false }, "follows head"},
		{"block idx", func(g *Graph) { g.Blocks[1].Index = 5 }, "has index"},
		{"empty block", func(g *Graph) { g.Blocks[0].Nodes = nil }, "empty"},
		{"block output", func(g *Graph) { g.Blocks[0].Output = 0 }, "not its last node"},
	}
	for _, c := range cases {
		err := mk(c.mutate)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want %q", c.name, err, c.want)
		}
	}
}

// TestSubgraphBuilderSharesUnchangedNodes pins the sharing rule: kept
// nodes whose ID, inputs and block survive are g's own nodes, and every
// node after a dropped one is a renumbered copy that leaves g intact.
func TestSubgraphBuilderSharesUnchangedNodes(t *testing.T) {
	g := branchy(t)
	var dropout int
	for _, n := range g.Nodes {
		if n.Kind == OpDropout {
			dropout = n.ID
		}
	}
	// The right branch skips the left branch's conv, so only the stem
	// keeps its IDs.
	keep := g.Ancestors(dropout)
	if len(keep) == dropout+1 {
		t.Fatal("right branch keeps an ID prefix; the test needs a gap")
	}
	b, last := SubgraphBuilder("right", g, keep, 4)
	b.BeginHead()
	b.Softmax(b.Dense(b.GlobalAvgPool(last), 4))
	sub, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	for i, id := range keep {
		n := sub.Nodes[i]
		if shared := n == g.Nodes[id]; shared != (i == id && g.Nodes[id].Block < 0) {
			t.Fatalf("node %d (parent %d): shared = %v", i, id, shared)
		}
	}
	if err := Validate(g); err != nil {
		t.Fatalf("parent changed: %v", err)
	}
	// A cut at the last block output keeps an ID prefix: all shared,
	// block table included.
	keep = g.Ancestors(g.Blocks[1].Output)
	b, _ = SubgraphBuilder("prefix", g, keep, 4)
	for i := range keep {
		if b.g.Nodes[i] != g.Nodes[i] {
			t.Fatalf("prefix node %d copied", i)
		}
	}
	if &b.g.Blocks[0] != &g.Blocks[0] {
		t.Fatal("prefix block table copied")
	}
}
