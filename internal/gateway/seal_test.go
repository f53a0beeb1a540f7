package gateway

import (
	"os"
	"strings"
	"testing"

	"netcut/internal/graph"
	"netcut/internal/persist"
	"netcut/internal/trim"
	"netcut/internal/zoo"
)

// unsealed is a struct-literal copy of g's exported fields: the same
// structure, hashed by graph.Fingerprint on every call.
func unsealed(g *graph.Graph) *graph.Graph {
	return &graph.Graph{Name: g.Name, InputShape: g.InputShape, NumClasses: g.NumClasses, Nodes: g.Nodes, Blocks: g.Blocks}
}

// TestSealedFingerprintMatchesStructure pins that every constructor
// seals a graph with the fingerprint of the structure it returns: the
// zoo (Builder.Finish), every blockwise and exhaustive cut of it
// (SubgraphBuilder, so a cut renamed after Finish fails here), a graph
// posted to the gateway and every graph of the reference snapshot
// (graph.Check in the two decoders). Every cache keys on the sealed
// value, so a stale seal would serve one structure another's results.
func TestSealedFingerprintMatchesStructure(t *testing.T) {
	trim.PurgeCutCache()
	t.Cleanup(trim.PurgeCutCache)
	check := func(what string, g *graph.Graph) {
		t.Helper()
		if !g.Sealed() {
			t.Fatalf("%s (%s) is not sealed", what, g.Name)
		}
		if got, want := graph.Fingerprint(g), graph.Fingerprint(unsealed(g)); got != want {
			t.Fatalf("%s (%s): sealed fingerprint %016x, structure hashes to %016x", what, g.Name, got, want)
		}
	}

	for _, g := range zoo.ExtendedZoo() {
		check("zoo network", g)
		blockwise, err := trim.EnumerateBlockwise(g, trim.DefaultHead, true)
		if err != nil {
			t.Fatal(err)
		}
		exhaustive, err := trim.EnumerateExhaustive(g, trim.DefaultHead)
		if err != nil {
			t.Fatal(err)
		}
		for _, trn := range append(blockwise, exhaustive...) {
			check("cut", trn.Graph)
		}
	}

	dec, apiErr := decodeRequest(strings.NewReader(graphBody(t, userNet(3), 0.35, "")))
	if apiErr != nil {
		t.Fatal(apiErr)
	}
	check("posted graph", dec.req.Graph)
	if dec.key.print != graph.Fingerprint(userNet(3)) {
		t.Fatal("posted graph coalesces under a fingerprint other than its structure's")
	}

	raw, err := os.ReadFile("../persist/testdata/reference.snap")
	if err != nil {
		t.Fatal(err)
	}
	f, err := persist.DecodeBytes(raw)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Cuts.Parents) == 0 {
		t.Fatal("reference snapshot decoded no graphs")
	}
	for _, g := range f.Cuts.Parents {
		check("snapshot graph", g)
	}
}
