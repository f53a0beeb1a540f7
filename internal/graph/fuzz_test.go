package graph_test

import (
	"testing"

	"netcut/internal/device"
	"netcut/internal/graph"
	"netcut/internal/trim"
)

// decodeGraph deterministically builds a graph — possibly malformed —
// from fuzz bytes. The decoder deliberately emits both well-formed
// chains and corrupted structures (zero-dimension shapes, forward/self
// references that would be cycles, dense-ID violations, head layers in
// blocks, phantom block claims), so FuzzValidate exercises Validate's
// accept and reject paths alike. Sizes are clamped so one input stays
// cheap to plan and measure.
func decodeGraph(data []byte) *graph.Graph {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	dim := func() int { return int(next()) % 33 } // 0..32: zero dims reach Validate
	n := int(next())%24 + 1

	g := &graph.Graph{Name: "fuzz", NumClasses: int(next())%8 + 1}
	g.InputShape = graph.Shape{H: dim(), W: dim(), C: dim()}
	kinds := []graph.OpKind{
		graph.OpInput, graph.OpConv, graph.OpDWConv, graph.OpBatchNorm,
		graph.OpReLU, graph.OpMaxPool, graph.OpAvgPool, graph.OpGlobalAvgPool,
		graph.OpDense, graph.OpSoftmax, graph.OpAdd, graph.OpConcat, graph.OpDropout,
	}
	for i := 0; i < n; i++ {
		nd := &graph.Node{
			ID:   i,
			Name: "n",
			Kind: kinds[int(next())%len(kinds)],
			Out:  graph.Shape{H: dim(), W: dim(), C: dim()},
		}
		if i == 0 && next()%8 != 0 {
			nd.Kind = graph.OpInput
			nd.Out = g.InputShape
		}
		if nd.Kind != graph.OpInput {
			nIn := int(next())%2 + 1
			for j := 0; j < nIn; j++ {
				// Mostly topologically valid inputs; occasionally a
				// forward or self reference (a cycle in disguise).
				in := int(next()) % (i + 1)
				if next()%16 == 0 {
					in = i + int(next())%3 // invalid: not earlier
				}
				nd.Inputs = append(nd.Inputs, in)
			}
		}
		nd.MACs = int64(next())
		nd.WeightBytes = int64(next())
		nd.IOBytes = int64(next())
		nd.Block = -1
		if next()%4 == 0 {
			nd.Block = int(next())%4 - 1 // may claim a phantom block
		}
		nd.Head = next()%8 == 0
		g.Nodes = append(g.Nodes, nd)
	}
	// Sometimes scramble an ID to violate density.
	if next()%16 == 0 && len(g.Nodes) > 1 {
		g.Nodes[int(next())%len(g.Nodes)].ID = int(next())
	}
	// Assemble blocks from the nodes that claimed them.
	nb := 0
	for _, nd := range g.Nodes {
		if nd.Block >= nb {
			nb = nd.Block + 1
		}
	}
	for bi := 0; bi < nb; bi++ {
		blk := graph.Block{Index: bi, Label: "b", Output: -1}
		for _, nd := range g.Nodes {
			if nd.Block == bi {
				blk.Nodes = append(blk.Nodes, nd.ID)
				blk.Output = nd.ID
			}
		}
		if next()%16 == 0 && len(blk.Nodes) > 0 {
			blk.Output = int(next()) // sometimes corrupt the output
		}
		g.Blocks = append(g.Blocks, blk)
	}
	return g
}

// FuzzValidate is the service-boundary fuzz target: Validate must never
// panic on arbitrary graphs, and any graph it accepts must survive the
// full planning pipeline — fingerprinting, kernel planning, latency
// measurement and every blockwise cut — without panicking, because
// that is exactly what internal/serve runs on validated user requests.
func FuzzValidate(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 1, 8, 8, 3, 1, 0, 4, 4, 8, 1, 0, 2, 2, 2, 2, 16})
	f.Add([]byte{200, 5, 16, 16, 3, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15})
	for seed := 0; seed < 8; seed++ {
		buf := make([]byte, 64)
		for i := range buf {
			buf[i] = byte(seed*31 + i*7)
		}
		f.Add(buf)
	}
	dev := device.New(device.Xavier())
	f.Fuzz(func(t *testing.T, data []byte) {
		g := decodeGraph(data)
		if err := graph.Validate(g); err != nil {
			return // rejected: exactly what the service does
		}
		// Accepted: the downstream pipeline must be panic-free.
		graph.Fingerprint(g)
		g.FeatureLayerCount()
		dev.LatencyMs(g)
		for c := 0; c <= g.BlockCount(); c++ {
			if trn, err := trim.Cut(g, c, trim.DefaultHead); err == nil {
				dev.LatencyMs(trn.Graph)
			}
		}
	})
}

// FuzzBuilderFinish drives the Builder with an arbitrary op program and
// checks Finish reports malformed construction as an error, never a
// panic, for any in-range arguments. (Out-of-range arguments panic by
// documented design; architecture definitions are static code.)
func FuzzBuilderFinish(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Add([]byte{1, 1, 1, 1, 10, 10, 10, 10})
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() byte {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return b
		}
		b := graph.NewBuilder("fuzz", graph.Shape{H: int(next())%16 + 1, W: int(next())%16 + 1, C: int(next())%8 + 1}, int(next())%8+1)
		x := b.Input()
		inBlock := false
		ops := int(next())%12 + 1
		for i := 0; i < ops; i++ {
			switch next() % 8 {
			case 0:
				x = b.ConvBNReLU(x, int(next())%3+1, int(next())%8+1, 1, graph.Same)
			case 1:
				x = b.ReLU(x)
			case 2:
				x = b.BN(x)
			case 3:
				x = b.DWConv(x, 1, 1, graph.Same)
			case 4:
				if !inBlock {
					b.BeginBlock("blk")
					inBlock = true
					x = b.ReLU(x) // blocks must be non-empty
				}
			case 5:
				if inBlock {
					b.EndBlock()
					inBlock = false
				}
			case 6:
				x = b.Dropout(x)
			case 7:
				y := b.ReLU(x)
				x = b.Add(x, y)
			}
		}
		if inBlock && next()%2 == 0 {
			b.EndBlock()
			inBlock = false
		}
		// A still-open block reaches Finish below (its error path);
		// BeginHead inside a block is a documented panic, so skip it.
		if !inBlock && next()%2 == 0 {
			b.BeginHead()
			x = b.GlobalAvgPool(x)
			x = b.Dense(x, int(next())%8+1)
			b.Softmax(x)
		}
		g, err := b.Finish() // error (e.g. unterminated block) is fine; panic is not
		if err == nil {
			if verr := graph.Validate(g); verr != nil {
				t.Fatalf("Finish accepted a graph Validate rejects: %v", verr)
			}
			if !g.Sealed() || graph.Fingerprint(g) != graph.Fingerprint(unsealed(g)) {
				t.Fatalf("Finish sealed %s with a fingerprint that does not match its structure", g.Name)
			}
		}
	})
}

// unsealed is a struct-literal copy of g's exported fields: the same
// structure, hashed by Fingerprint on every call.
func unsealed(g *graph.Graph) *graph.Graph {
	return &graph.Graph{Name: g.Name, InputShape: g.InputShape, NumClasses: g.NumClasses, Nodes: g.Nodes, Blocks: g.Blocks}
}
