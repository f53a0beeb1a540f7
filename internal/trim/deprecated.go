package trim

import "netcut/internal/graph"

// CutScoped with scope 0 is Cut. A cut does not depend on the device,
// so the cut cache has one namespace and no scope: a nonzero scope
// builds the TRN through BuildCut and neither reads nor fills the
// cache, so a caller that varies the scope to time cold cuts still
// times cold cuts.
//
// Deprecated: use Cut. Only the benchmark module still calls this.
func CutScoped(scope uint64, g *graph.Graph, blocks int, head HeadSpec) (*TRN, error) {
	if scope == 0 {
		return Cut(g, blocks, head)
	}
	return BuildCut(CutRecord{Parent: g, At: blocks, Blockwise: true, Head: head})
}

// EnumerateBlockwiseScoped is EnumerateBlockwise; the scope is ignored.
//
// Deprecated: use EnumerateBlockwise. Only the benchmark module still
// calls this.
func EnumerateBlockwiseScoped(_ uint64, g *graph.Graph, head HeadSpec, includeZero bool) ([]*TRN, error) {
	return EnumerateBlockwise(g, head, includeZero)
}
