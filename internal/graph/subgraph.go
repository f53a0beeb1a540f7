package graph

import (
	"fmt"
	"slices"
)

// LastFeatureNode returns the ID of the last non-head node: the feature
// tensor the original classification head consumes.
func (g *Graph) LastFeatureNode() int {
	for i := len(g.Nodes) - 1; i >= 0; i-- {
		if !g.Nodes[i].Head {
			return i
		}
	}
	return 0
}

// Ancestors returns the IDs of node id and all its transitive producers,
// in ascending order. Because the graph is topologically ordered, the
// result is a dependency-closed subgraph.
func (g *Graph) Ancestors(id int) []int {
	if id < 0 || id >= len(g.Nodes) {
		panic(fmt.Sprintf("graph: Ancestors of unknown node %d", id))
	}
	mark := make([]bool, id+1)
	mark[id] = true
	for i := id; i >= 0; i-- {
		if !mark[i] {
			continue
		}
		for _, in := range g.Nodes[i].Inputs {
			mark[in] = true
		}
	}
	out := make([]int, 0, id+1)
	for i, m := range mark {
		if m {
			out = append(out, i)
		}
	}
	return out
}

// SubgraphBuilder returns a Builder seeded with the given
// dependency-closed node set of g (ascending original IDs, node 0 must
// be the input and every node's producers must be in the set). Node IDs
// are remapped densely. Blocks fully contained in the set are
// preserved. The second return value is the new ID of the set's last
// node, i.e. the attachment point for further layers.
//
// A kept node whose ID, inputs and block come through unchanged — every
// node of an ID-prefix set in a well-formed graph — is shared with g
// rather than copied, and so is g's block table when the preserved
// blocks are exactly its leading blocks. Graphs are immutable once
// built, so sharing is safe, and a subgraph that is kept alive (a
// cached cut) costs its node-pointer slice and new nodes only.
func SubgraphBuilder(name string, g *Graph, keep []int, numClasses int) (*Builder, int) {
	if len(keep) == 0 || keep[0] != 0 {
		panic("graph: SubgraphBuilder requires a set starting at the input node")
	}
	remap := make([]int, len(g.Nodes))
	ng := &Graph{
		Name:       name,
		InputShape: g.InputShape,
		NumClasses: numClasses,
		Nodes:      make([]*Node, 0, len(keep)+8), // room for a new head
	}
	blockRemap := map[int]int{}
	blockComplete := map[int]bool{}
	// A block survives only if all of its nodes are kept.
	inSet := make([]bool, len(g.Nodes))
	for _, id := range keep {
		inSet[id] = true
	}
	for bi, blk := range g.Blocks {
		all := true
		for _, id := range blk.Nodes {
			if !inSet[id] {
				all = false
				break
			}
		}
		blockComplete[bi] = all
	}

	prev := -1
	for _, id := range keep {
		if id <= prev {
			panic("graph: SubgraphBuilder set must be ascending and unique")
		}
		prev = id
		src := g.Nodes[id]
		nid := len(ng.Nodes)
		block := -1
		if src.Block >= 0 && blockComplete[src.Block] {
			bi, ok := blockRemap[src.Block]
			if !ok {
				bi = len(ng.Blocks)
				blockRemap[src.Block] = bi
				ng.Blocks = append(ng.Blocks, Block{
					Index:  bi,
					Label:  g.Blocks[src.Block].Label,
					Output: -1,
				})
			}
			block = bi
			ng.Blocks[bi].Nodes = append(ng.Blocks[bi].Nodes, nid)
			ng.Blocks[bi].Output = nid
		}
		// Inputs are kept and earlier, so already remapped; the node is
		// shared when nothing about it moves.
		same := nid == id && block == src.Block && !src.Head
		for _, in := range src.Inputs {
			if in < 0 || in >= id || !inSet[in] {
				panic(fmt.Sprintf("graph: SubgraphBuilder set not dependency-closed at node %d (input %d missing)", id, in))
			}
			same = same && remap[in] == in
		}
		remap[id] = nid
		if same {
			ng.Nodes = append(ng.Nodes, src)
			continue
		}
		n := &Node{
			ID:          nid,
			Name:        src.Name,
			Kind:        src.Kind,
			In:          src.In,
			Out:         src.Out,
			KH:          src.KH,
			KW:          src.KW,
			Stride:      src.Stride,
			Pad:         src.Pad,
			MACs:        src.MACs,
			Params:      src.Params,
			WeightBytes: src.WeightBytes,
			IOBytes:     src.IOBytes,
			Block:       block,
			Head:        false, // head layers are never carried over
		}
		for _, in := range src.Inputs {
			n.Inputs = append(n.Inputs, remap[in])
		}
		ng.Nodes = append(ng.Nodes, n)
	}
	if n := len(ng.Blocks); n <= len(g.Blocks) && slices.EqualFunc(ng.Blocks, g.Blocks[:n], sameBlock) {
		ng.Blocks = g.Blocks[:n:n]
	}
	b := &Builder{g: ng, curBlock: -1}
	return b, len(ng.Nodes) - 1
}

func sameBlock(a, b Block) bool {
	return a.Index == b.Index && a.Label == b.Label && a.Output == b.Output && slices.Equal(a.Nodes, b.Nodes)
}
