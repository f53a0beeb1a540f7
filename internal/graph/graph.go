// Package graph defines the layer-graph intermediate representation used
// throughout NetCut. A Graph is a topologically ordered list of layer
// Nodes annotated with tensor shapes, multiply-accumulate counts, parameter
// counts and memory-traffic estimates, plus the block structure that layer
// removal (package trim) operates on.
//
// The IR deliberately mirrors the layer granularity of common framework
// model summaries (convolutions, batch norms, activations, pools, merges
// all count as layers) so that cutpoint labels such as "ResNet-50/94"
// — 94 layers removed — are directly comparable to the paper's.
package graph

import "fmt"

// OpKind identifies the operator a Node performs.
type OpKind int

// The operator vocabulary. It covers everything needed by the seven
// architectures the paper evaluates (Sec. III-B1).
const (
	OpInput OpKind = iota
	OpConv
	OpDWConv
	OpBatchNorm
	OpReLU
	OpReLU6
	OpMaxPool
	OpAvgPool
	OpGlobalAvgPool
	OpDense
	OpSoftmax
	OpAdd
	OpConcat
	OpDropout
	OpZeroPad
)

var opNames = map[OpKind]string{
	OpInput:         "Input",
	OpConv:          "Conv",
	OpDWConv:        "DWConv",
	OpBatchNorm:     "BatchNorm",
	OpReLU:          "ReLU",
	OpReLU6:         "ReLU6",
	OpMaxPool:       "MaxPool",
	OpAvgPool:       "AvgPool",
	OpGlobalAvgPool: "GlobalAvgPool",
	OpDense:         "Dense",
	OpSoftmax:       "Softmax",
	OpAdd:           "Add",
	OpConcat:        "Concat",
	OpDropout:       "Dropout",
	OpZeroPad:       "ZeroPad",
}

func (k OpKind) String() string {
	if s, ok := opNames[k]; ok {
		return s
	}
	return fmt.Sprintf("OpKind(%d)", int(k))
}

// opKindsByName is the inverse of opNames, for wire decoding.
var opKindsByName = func() map[string]OpKind {
	m := make(map[string]OpKind, len(opNames))
	for k, s := range opNames {
		m[s] = k
	}
	return m
}()

// ParseOpKind resolves an operator name as produced by OpKind.String
// ("Conv", "BatchNorm", ...). It is the decode half of both graph wire
// formats: the gateway's JSON schema and the state snapshot.
func ParseOpKind(s string) (OpKind, bool) {
	k, ok := opKindsByName[s]
	return k, ok
}

// PadMode selects the spatial padding convention for convolutions and
// pooling, following the TensorFlow naming the reference models use.
type PadMode int

const (
	// Valid applies no padding: out = floor((in-k)/s) + 1.
	Valid PadMode = iota
	// Same pads so that out = ceil(in/s).
	Same
)

func (p PadMode) String() string {
	if p == Same {
		return "same"
	}
	return "valid"
}

// ParsePadMode resolves a pad-mode name as produced by PadMode.String;
// the empty string is Valid, the zero value.
func ParsePadMode(s string) (PadMode, bool) {
	switch s {
	case "", "valid":
		return Valid, true
	case "same":
		return Same, true
	}
	return Valid, false
}

// Shape is a spatial feature-map shape. Dense layers use H = W = 1.
type Shape struct {
	H, W, C int
}

// Elems returns the number of scalar elements in the shape.
func (s Shape) Elems() int64 { return int64(s.H) * int64(s.W) * int64(s.C) }

func (s Shape) String() string { return fmt.Sprintf("%dx%dx%d", s.H, s.W, s.C) }

// Node is one layer in the graph.
type Node struct {
	ID     int
	Name   string
	Kind   OpKind
	Inputs []int // IDs of producer nodes, in argument order

	In  Shape // shape of the first input (merges validate the rest)
	Out Shape

	// Convolution / pooling geometry. Zero for ops that have none.
	KH, KW int
	Stride int
	Pad    PadMode

	// Accounting, filled in by the builder.
	MACs        int64 // multiply-accumulates (or comparable elementwise ops)
	Params      int64 // learnable + tracked parameters (BN counts 4C)
	WeightBytes int64 // parameter storage at 1 byte/elem granularity unit
	IOBytes     int64 // input+output activation traffic, 1 byte/elem unit

	// Block is the index into Graph.Blocks this node belongs to,
	// or -1 for stem/head nodes outside any removable block.
	Block int
	// Head marks classification-head layers. Eq. (1) and the layer
	// counts in the paper exclude these.
	Head bool
}

// Block is a removable unit: a contiguous run of nodes whose output is a
// single node. Blockwise layer removal (Sec. IV-A) cuts whole trailing
// blocks.
type Block struct {
	Index  int
	Label  string
	Nodes  []int // node IDs belonging to the block, in topological order
	Output int   // ID of the node producing the block's output
}

// Graph is an immutable-after-build directed acyclic layer graph in
// topological order (Nodes[i].Inputs all have ID < i).
//
// A graph's constructor seals it: Builder.Finish, and Check for the
// decoders that assemble a graph from a request or a snapshot, record
// that the graph passed Validate together with its Fingerprint, so
// every later reader gets the fingerprint in O(1) and need not
// validate it again. The seal is not recomputed, which is why nothing
// may change a graph after its constructor returns — not even its
// Name: a changed graph would keep its old fingerprint, and every
// structure-keyed cache would serve it the old graph's results. A
// graph written as a struct literal is unsealed; Fingerprint hashes it
// on every call, and the planner validates it per request.
type Graph struct {
	Name       string
	InputShape Shape
	NumClasses int
	Nodes      []*Node
	Blocks     []Block

	sealed bool   // passed Validate in its constructor
	print  uint64 // fingerprint(g) when sealed
}

// Sealed reports whether g was checked by its constructor (see the
// Graph doc).
func (g *Graph) Sealed() bool { return g != nil && g.sealed }

// Check validates g and seals it. It is for constructors only — the
// decoders that assemble a graph from untrusted input — and must run
// before the graph is shared: sealing writes g.
func Check(g *Graph) error {
	if err := Validate(g); err != nil {
		return err
	}
	g.print = fingerprint(g)
	g.sealed = true
	return nil
}

// Node returns the node with the given ID.
func (g *Graph) Node(id int) *Node { return g.Nodes[id] }

// OutputNode returns the final node of the graph.
func (g *Graph) OutputNode() *Node { return g.Nodes[len(g.Nodes)-1] }

// LayerCount returns the number of layers excluding Input nodes,
// mirroring framework model-summary conventions.
func (g *Graph) LayerCount() int {
	n := 0
	for _, nd := range g.Nodes {
		if nd.Kind != OpInput {
			n++
		}
	}
	return n
}

// FeatureLayerCount returns the number of non-head, non-input layers:
// the layers eligible for removal accounting ("N" in Eq. (1)).
func (g *Graph) FeatureLayerCount() int {
	n := 0
	for _, nd := range g.Nodes {
		if nd.Kind != OpInput && !nd.Head {
			n++
		}
	}
	return n
}

// HeadLayerCount returns the number of classification-head layers.
func (g *Graph) HeadLayerCount() int {
	n := 0
	for _, nd := range g.Nodes {
		if nd.Head {
			n++
		}
	}
	return n
}

// TotalMACs sums multiply-accumulates over all layers.
func (g *Graph) TotalMACs() int64 {
	var t int64
	for _, nd := range g.Nodes {
		t += nd.MACs
	}
	return t
}

// TotalParams sums parameter counts over all layers.
func (g *Graph) TotalParams() int64 {
	var t int64
	for _, nd := range g.Nodes {
		t += nd.Params
	}
	return t
}

// TotalFilterSize sums KH*KW over all convolutional layers; one of the
// device-agnostic features of the analytical model (Sec. V-B2).
func (g *Graph) TotalFilterSize() int64 {
	var t int64
	for _, nd := range g.Nodes {
		if nd.Kind == OpConv || nd.Kind == OpDWConv {
			t += int64(nd.KH) * int64(nd.KW)
		}
	}
	return t
}

// BlockCount returns the number of removable blocks.
func (g *Graph) BlockCount() int { return len(g.Blocks) }

// Consumers returns, for every node ID, the IDs of nodes consuming it.
func (g *Graph) Consumers() [][]int {
	out := make([][]int, len(g.Nodes))
	for _, nd := range g.Nodes {
		for _, in := range nd.Inputs {
			out[in] = append(out[in], nd.ID)
		}
	}
	return out
}

func (g *Graph) String() string {
	return fmt.Sprintf("%s{layers=%d blocks=%d macs=%d params=%d}",
		g.Name, g.LayerCount(), len(g.Blocks), g.TotalMACs(), g.TotalParams())
}
