package graph

import "fmt"

// Builder constructs a Graph incrementally with automatic shape inference
// and MAC/parameter accounting. Methods take and return node IDs so that
// architecture definitions read as dataflow:
//
//	b := graph.NewBuilder("net", graph.Shape{H: 224, W: 224, C: 3}, 1000)
//	x := b.Input()
//	x = b.ConvBNReLU(x, 3, 32, 2, graph.Same)
//	...
//	g, err := b.Finish()
//
// Builder methods panic on malformed graphs (mismatched merge shapes,
// unknown input IDs); architecture definitions are static code, so an
// error return on every call would only obscure them. Finish validates
// the result and returns any deferred construction error.
type Builder struct {
	g        *Graph
	curBlock int  // index of open block, or -1
	inHead   bool // subsequent nodes are classification-head layers
	err      error
}

// NewBuilder returns a Builder for a network with the given input shape
// and class count.
func NewBuilder(name string, input Shape, numClasses int) *Builder {
	return &Builder{
		g: &Graph{
			Name:       name,
			InputShape: input,
			NumClasses: numClasses,
		},
		curBlock: -1,
	}
}

// Input adds the input node and returns its ID. It must be called first.
func (b *Builder) Input() int {
	if len(b.g.Nodes) != 0 {
		panic("graph: Input must be the first node")
	}
	return b.add(&Node{Kind: OpInput, Out: b.g.InputShape})
}

func (b *Builder) add(n *Node) int {
	n.ID = len(b.g.Nodes)
	if n.Name == "" {
		n.Name = fmt.Sprintf("%s_%d", n.Kind, n.ID)
	}
	n.Block = b.curBlock
	n.Head = b.inHead
	if b.curBlock >= 0 {
		blk := &b.g.Blocks[b.curBlock]
		blk.Nodes = append(blk.Nodes, n.ID)
		blk.Output = n.ID
	}
	n.IOBytes = inBytes(b.g, n) + n.Out.Elems()
	b.g.Nodes = append(b.g.Nodes, n)
	return n.ID
}

func inBytes(g *Graph, n *Node) int64 {
	var t int64
	for _, id := range n.Inputs {
		t += g.Nodes[id].Out.Elems()
	}
	return t
}

func (b *Builder) shape(id int) Shape {
	if id < 0 || id >= len(b.g.Nodes) {
		panic(fmt.Sprintf("graph: unknown node id %d", id))
	}
	return b.g.Nodes[id].Out
}

// Shape returns the output shape of the node with the given ID, for
// architecture definitions that branch on intermediate shapes.
func (b *Builder) Shape(id int) Shape { return b.shape(id) }

func convOut(in, k, stride int, pad PadMode) int {
	switch pad {
	case Same:
		return (in + stride - 1) / stride
	default:
		return (in-k)/stride + 1
	}
}

// Conv adds a 2-D convolution with outC filters of size k x k.
func (b *Builder) Conv(x, k, outC, stride int, pad PadMode) int {
	return b.ConvRect(x, k, k, outC, stride, pad)
}

// ConvRect adds a 2-D convolution with a rectangular kH x kW kernel,
// as used by InceptionV3's factorized 1x7 / 7x1 convolutions.
func (b *Builder) ConvRect(x, kH, kW, outC, stride int, pad PadMode) int {
	in := b.shape(x)
	out := Shape{
		H: convOut(in.H, kH, stride, pad),
		W: convOut(in.W, kW, stride, pad),
		C: outC,
	}
	if out.H <= 0 || out.W <= 0 {
		panic(fmt.Sprintf("graph: conv output shape %v collapsed (in %v k %dx%d s %d)", out, in, kH, kW, stride))
	}
	params := int64(kH) * int64(kW) * int64(in.C) * int64(outC)
	return b.add(&Node{
		Kind: OpConv, Inputs: []int{x}, In: in, Out: out,
		KH: kH, KW: kW, Stride: stride, Pad: pad,
		MACs:        out.Elems() * int64(kH) * int64(kW) * int64(in.C),
		Params:      params,
		WeightBytes: params,
	})
}

// DWConv adds a depthwise convolution (one k x k filter per channel).
func (b *Builder) DWConv(x, k, stride int, pad PadMode) int {
	in := b.shape(x)
	out := Shape{
		H: convOut(in.H, k, stride, pad),
		W: convOut(in.W, k, stride, pad),
		C: in.C,
	}
	params := int64(k) * int64(k) * int64(in.C)
	return b.add(&Node{
		Kind: OpDWConv, Inputs: []int{x}, In: in, Out: out,
		KH: k, KW: k, Stride: stride, Pad: pad,
		MACs:        out.Elems() * int64(k) * int64(k),
		Params:      params,
		WeightBytes: params,
	})
}

// BN adds a batch-normalization layer. Parameter count follows the
// framework convention of 4 per channel (gamma, beta, moving mean/var).
func (b *Builder) BN(x int) int {
	in := b.shape(x)
	return b.add(&Node{
		Kind: OpBatchNorm, Inputs: []int{x}, In: in, Out: in,
		MACs:        in.Elems(),
		Params:      4 * int64(in.C),
		WeightBytes: 4 * int64(in.C),
	})
}

// ReLU adds a rectified-linear activation.
func (b *Builder) ReLU(x int) int {
	in := b.shape(x)
	return b.add(&Node{Kind: OpReLU, Inputs: []int{x}, In: in, Out: in, MACs: in.Elems()})
}

// ReLU6 adds the clipped activation used by the MobileNet family.
func (b *Builder) ReLU6(x int) int {
	in := b.shape(x)
	return b.add(&Node{Kind: OpReLU6, Inputs: []int{x}, In: in, Out: in, MACs: in.Elems()})
}

// MaxPool adds a k x k max pooling layer.
func (b *Builder) MaxPool(x, k, stride int, pad PadMode) int {
	return b.pool(OpMaxPool, x, k, stride, pad)
}

// AvgPool adds a k x k average pooling layer.
func (b *Builder) AvgPool(x, k, stride int, pad PadMode) int {
	return b.pool(OpAvgPool, x, k, stride, pad)
}

func (b *Builder) pool(kind OpKind, x, k, stride int, pad PadMode) int {
	in := b.shape(x)
	out := Shape{
		H: convOut(in.H, k, stride, pad),
		W: convOut(in.W, k, stride, pad),
		C: in.C,
	}
	return b.add(&Node{
		Kind: kind, Inputs: []int{x}, In: in, Out: out,
		KH: k, KW: k, Stride: stride, Pad: pad,
		MACs: out.Elems() * int64(k) * int64(k),
	})
}

// GlobalAvgPool reduces the spatial dimensions to 1 x 1.
func (b *Builder) GlobalAvgPool(x int) int {
	in := b.shape(x)
	out := Shape{H: 1, W: 1, C: in.C}
	return b.add(&Node{
		Kind: OpGlobalAvgPool, Inputs: []int{x}, In: in, Out: out,
		MACs: in.Elems(),
	})
}

// Dense adds a fully connected layer with the given number of units.
// Its input must be spatially flat (H = W = 1).
func (b *Builder) Dense(x, units int) int {
	in := b.shape(x)
	if in.H != 1 || in.W != 1 {
		panic(fmt.Sprintf("graph: Dense requires 1x1 spatial input, got %v", in))
	}
	params := int64(in.C)*int64(units) + int64(units)
	return b.add(&Node{
		Kind: OpDense, Inputs: []int{x}, In: in, Out: Shape{H: 1, W: 1, C: units},
		MACs:        int64(in.C) * int64(units),
		Params:      params,
		WeightBytes: params,
	})
}

// Softmax adds a softmax over the channel dimension.
func (b *Builder) Softmax(x int) int {
	in := b.shape(x)
	return b.add(&Node{Kind: OpSoftmax, Inputs: []int{x}, In: in, Out: in, MACs: 3 * in.Elems()})
}

// Dropout adds an (inference-time no-op) dropout marker layer.
func (b *Builder) Dropout(x int) int {
	in := b.shape(x)
	return b.add(&Node{Kind: OpDropout, Inputs: []int{x}, In: in, Out: in})
}

// Add merges two branches elementwise; shapes must match.
func (b *Builder) Add(x, y int) int {
	sx, sy := b.shape(x), b.shape(y)
	if sx != sy {
		panic(fmt.Sprintf("graph: Add shape mismatch %v vs %v", sx, sy))
	}
	return b.add(&Node{Kind: OpAdd, Inputs: []int{x, y}, In: sx, Out: sx, MACs: sx.Elems()})
}

// Concat merges branches along the channel dimension; spatial shapes must
// match.
func (b *Builder) Concat(xs ...int) int {
	if len(xs) < 2 {
		panic("graph: Concat needs at least two inputs")
	}
	first := b.shape(xs[0])
	out := Shape{H: first.H, W: first.W}
	for _, x := range xs {
		s := b.shape(x)
		if s.H != first.H || s.W != first.W {
			panic(fmt.Sprintf("graph: Concat spatial mismatch %v vs %v", s, first))
		}
		out.C += s.C
	}
	return b.add(&Node{Kind: OpConcat, Inputs: append([]int(nil), xs...), In: first, Out: out})
}

// ConvBN adds Conv followed by BN.
func (b *Builder) ConvBN(x, k, outC, stride int, pad PadMode) int {
	return b.BN(b.Conv(x, k, outC, stride, pad))
}

// ConvBNReLU adds the ubiquitous Conv+BN+ReLU triplet.
func (b *Builder) ConvBNReLU(x, k, outC, stride int, pad PadMode) int {
	return b.ReLU(b.ConvBN(x, k, outC, stride, pad))
}

// ConvBNReLU6 adds Conv+BN+ReLU6 (MobileNet stem convention).
func (b *Builder) ConvBNReLU6(x, k, outC, stride int, pad PadMode) int {
	return b.ReLU6(b.ConvBN(x, k, outC, stride, pad))
}

// BeginBlock opens a new removable block; subsequent nodes belong to it
// until EndBlock. Blocks cannot nest and head layers cannot be in blocks.
func (b *Builder) BeginBlock(label string) {
	if b.curBlock >= 0 {
		panic("graph: BeginBlock inside an open block")
	}
	if b.inHead {
		panic("graph: blocks cannot appear in the classification head")
	}
	b.g.Blocks = append(b.g.Blocks, Block{Index: len(b.g.Blocks), Label: label, Output: -1})
	b.curBlock = len(b.g.Blocks) - 1
}

// EndBlock closes the open block.
func (b *Builder) EndBlock() {
	if b.curBlock < 0 {
		panic("graph: EndBlock without BeginBlock")
	}
	if b.g.Blocks[b.curBlock].Output < 0 {
		panic("graph: empty block " + b.g.Blocks[b.curBlock].Label)
	}
	b.curBlock = -1
}

// BeginHead marks all subsequent nodes as classification-head layers.
func (b *Builder) BeginHead() {
	if b.curBlock >= 0 {
		panic("graph: BeginHead inside an open block")
	}
	b.inHead = true
}

// Finish validates, seals (see the Graph doc) and returns the
// constructed graph.
func (b *Builder) Finish() (*Graph, error) {
	if b.curBlock >= 0 {
		return nil, fmt.Errorf("graph %s: unterminated block %s", b.g.Name, b.g.Blocks[b.curBlock].Label)
	}
	if err := Check(b.g); err != nil {
		return nil, err
	}
	return b.g, nil
}

// MustFinish is Finish for static architecture definitions that are
// covered by tests; it panics on error.
func (b *Builder) MustFinish() *Graph {
	g, err := b.Finish()
	if err != nil {
		panic(err)
	}
	return g
}
