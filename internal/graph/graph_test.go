package graph

import (
	"strings"
	"testing"
	"testing/quick"
)

func small(t *testing.T) *Graph {
	t.Helper()
	b := NewBuilder("tiny", Shape{H: 8, W: 8, C: 3}, 5)
	x := b.Input()
	x = b.ConvBNReLU(x, 3, 8, 1, Same)
	b.BeginBlock("blk1")
	y := b.ConvBNReLU(x, 3, 8, 1, Same)
	y = b.Add(y, x)
	b.EndBlock()
	b.BeginBlock("blk2")
	z := b.ConvBNReLU(y, 3, 16, 2, Same)
	b.EndBlock()
	b.BeginHead()
	z = b.GlobalAvgPool(z)
	z = b.Dense(z, 5)
	z = b.Softmax(z)
	g, err := b.Finish()
	if err != nil {
		t.Fatalf("Finish: %v", err)
	}
	_ = z
	return g
}

func TestBuilderShapes(t *testing.T) {
	g := small(t)
	out := g.OutputNode()
	if out.Out != (Shape{H: 1, W: 1, C: 5}) {
		t.Fatalf("output shape = %v, want 1x1x5", out.Out)
	}
	if got := g.Nodes[1].Out; got != (Shape{H: 8, W: 8, C: 8}) {
		t.Fatalf("conv out = %v, want 8x8x8", got)
	}
}

func TestLayerCounts(t *testing.T) {
	g := small(t)
	// 3 + 3 + 1 + 3 feature layers, 3 head layers, 1 input.
	if got := g.LayerCount(); got != 13 {
		t.Fatalf("LayerCount = %d, want 13", got)
	}
	if got := g.FeatureLayerCount(); got != 10 {
		t.Fatalf("FeatureLayerCount = %d, want 10", got)
	}
	if got := g.HeadLayerCount(); got != 3 {
		t.Fatalf("HeadLayerCount = %d, want 3", got)
	}
	if got := g.BlockCount(); got != 2 {
		t.Fatalf("BlockCount = %d, want 2", got)
	}
}

func TestConvAccounting(t *testing.T) {
	b := NewBuilder("acc", Shape{H: 4, W: 4, C: 2}, 2)
	x := b.Input()
	c := b.Conv(x, 3, 4, 1, Same)
	g := b.g
	n := g.Node(c)
	// out 4x4x4, MACs = 4*4*4 * 3*3*2 = 1152
	if n.MACs != 1152 {
		t.Fatalf("conv MACs = %d, want 1152", n.MACs)
	}
	if n.Params != 3*3*2*4 {
		t.Fatalf("conv Params = %d, want 72", n.Params)
	}
}

func TestDWConvAccounting(t *testing.T) {
	b := NewBuilder("acc", Shape{H: 4, W: 4, C: 6}, 2)
	x := b.Input()
	c := b.DWConv(x, 3, 1, Same)
	n := b.g.Node(c)
	if n.Out != (Shape{H: 4, W: 4, C: 6}) {
		t.Fatalf("dwconv out = %v", n.Out)
	}
	if n.MACs != 4*4*6*9 {
		t.Fatalf("dwconv MACs = %d, want %d", n.MACs, 4*4*6*9)
	}
	if n.Params != 9*6 {
		t.Fatalf("dwconv Params = %d, want 54", n.Params)
	}
}

func TestDenseAccounting(t *testing.T) {
	b := NewBuilder("acc", Shape{H: 1, W: 1, C: 10}, 2)
	x := b.Input()
	d := b.Dense(x, 7)
	n := b.g.Node(d)
	if n.MACs != 70 {
		t.Fatalf("dense MACs = %d, want 70", n.MACs)
	}
	if n.Params != 70+7 {
		t.Fatalf("dense Params = %d, want 77", n.Params)
	}
}

func TestValidSameOutput(t *testing.T) {
	cases := []struct {
		in, k, s int
		pad      PadMode
		want     int
	}{
		{224, 3, 2, Same, 112},
		{224, 7, 2, Same, 112},
		{112, 3, 1, Same, 112},
		{8, 3, 1, Valid, 6},
		{8, 2, 2, Valid, 4},
		{35, 3, 2, Valid, 17},
		{147, 3, 2, Valid, 73},
	}
	for _, c := range cases {
		if got := convOut(c.in, c.k, c.s, c.pad); got != c.want {
			t.Errorf("convOut(%d,k=%d,s=%d,%v) = %d, want %d", c.in, c.k, c.s, c.pad, got, c.want)
		}
	}
}

func TestConcatChannels(t *testing.T) {
	b := NewBuilder("cc", Shape{H: 4, W: 4, C: 3}, 2)
	x := b.Input()
	a := b.Conv(x, 1, 8, 1, Same)
	c := b.Conv(x, 1, 8, 1, Same)
	m := b.Concat(a, c)
	if got := b.g.Node(m).Out; got != (Shape{H: 4, W: 4, C: 16}) {
		t.Fatalf("concat out = %v, want 4x4x16", got)
	}
}

func TestValidateCatchesBadBlockNesting(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("nested BeginBlock did not panic")
		}
	}()
	b := NewBuilder("bad", Shape{H: 4, W: 4, C: 3}, 2)
	b.Input()
	b.BeginBlock("a")
	b.BeginBlock("b")
}

func TestValidateCatchesHeadBlock(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("block in head did not panic")
		}
	}()
	b := NewBuilder("bad", Shape{H: 4, W: 4, C: 3}, 2)
	b.Input()
	b.BeginHead()
	b.BeginBlock("a")
}

func TestValidateCatchesEmptyBlock(t *testing.T) {
	b := NewBuilder("bad", Shape{H: 4, W: 4, C: 3}, 2)
	x := b.Input()
	b.BeginBlock("a")
	defer func() {
		if recover() == nil {
			t.Fatal("empty block EndBlock did not panic")
		}
	}()
	_ = x
	b.EndBlock()
}

func TestValidateCatchesUnterminatedBlock(t *testing.T) {
	b := NewBuilder("bad", Shape{H: 4, W: 4, C: 3}, 2)
	x := b.Input()
	b.BeginBlock("a")
	b.Conv(x, 3, 4, 1, Same)
	if _, err := b.Finish(); err == nil || !strings.Contains(err.Error(), "unterminated") {
		t.Fatalf("Finish err = %v, want unterminated block", err)
	}
}

func TestAddShapeMismatchPanics(t *testing.T) {
	b := NewBuilder("bad", Shape{H: 4, W: 4, C: 3}, 2)
	x := b.Input()
	a := b.Conv(x, 1, 4, 1, Same)
	c := b.Conv(x, 1, 8, 1, Same)
	defer func() {
		if recover() == nil {
			t.Fatal("Add mismatch did not panic")
		}
	}()
	b.Add(a, c)
}

func TestConsumers(t *testing.T) {
	g := small(t)
	cons := g.Consumers()
	// The first ReLU output (id 3) feeds the block conv (4) and the Add.
	if len(cons[3]) != 2 {
		t.Fatalf("consumers of node 3 = %v, want 2 entries", cons[3])
	}
	if len(cons[len(g.Nodes)-1]) != 0 {
		t.Fatal("output node should have no consumers")
	}
}

// Property: Same padding always yields ceil(in/s), Valid always yields a
// value no larger, and both are positive for legal geometry.
func TestConvOutProperties(t *testing.T) {
	f := func(in, k, s uint8) bool {
		i := int(in%200) + 8
		kk := int(k%7) + 1
		ss := int(s%3) + 1
		if kk > i {
			return true
		}
		same := convOut(i, kk, ss, Same)
		valid := convOut(i, kk, ss, Valid)
		wantSame := (i + ss - 1) / ss
		return same == wantSame && valid >= 1 && valid <= same
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: accounting totals are non-negative and additive over nodes.
func TestTotalsProperties(t *testing.T) {
	g := small(t)
	var macs, params int64
	for _, n := range g.Nodes {
		macs += n.MACs
		params += n.Params
	}
	if g.TotalMACs() != macs || g.TotalParams() != params {
		t.Fatalf("totals mismatch: %d/%d vs %d/%d", g.TotalMACs(), g.TotalParams(), macs, params)
	}
}

func TestValidatePassesOnSmall(t *testing.T) {
	if err := Validate(small(t)); err != nil {
		t.Fatal(err)
	}
}

func TestOpKindString(t *testing.T) {
	if OpConv.String() != "Conv" || OpKind(99).String() == "" {
		t.Fatal("OpKind.String broken")
	}
	if Same.String() != "same" || Valid.String() != "valid" {
		t.Fatal("PadMode.String broken")
	}
	// Both graph codecs write names and parse them back, so every
	// operator and pad mode must round-trip through its name.
	for k := range opNames {
		if got, ok := ParseOpKind(k.String()); !ok || got != k {
			t.Fatalf("ParseOpKind(%q) = %v, %v", k.String(), got, ok)
		}
	}
	for _, p := range []PadMode{Valid, Same} {
		if got, ok := ParsePadMode(p.String()); !ok || got != p {
			t.Fatalf("ParsePadMode(%q) = %v, %v", p.String(), got, ok)
		}
	}
	if _, ok := ParseOpKind(OpKind(99).String()); ok {
		t.Fatal("ParseOpKind accepted an unknown operator")
	}
	if p, ok := ParsePadMode(""); !ok || p != Valid {
		t.Fatal(`ParsePadMode("") is not Valid`)
	}
	if _, ok := ParsePadMode("full"); ok {
		t.Fatal("ParsePadMode accepted an unknown pad mode")
	}
}
