package persist

import (
	"bytes"
	"fmt"
	"os"
	"testing"

	"netcut/internal/device"
	"netcut/internal/profiler"
	"netcut/internal/trim"
	"netcut/internal/zoo"
)

// referencePath pins the snapshot wire format: it was written once by
// Encode(referenceFile) and must never change while SchemaVersion
// stays the same.
const referencePath = "testdata/reference.snap"

// referenceScope is the non-zero cut scope of the reference state; it
// doubles as its planner section's calibration fingerprint, the way a
// planner scopes its own cuts.
const referenceScope = 0x5eed_cafe_f00d_0001

// referenceFile is the fixed state behind referencePath: every network
// of the extended zoo as a parent, blockwise and node cuts of each in
// the shared scope 0 and in referenceScope, and one planner section
// with records of every kind.
func referenceFile(t testing.TB) *File {
	t.Helper()
	f := &File{
		Seed: 11,
		Planners: []PlannerState{{
			Device:      "sim-xavier",
			Calibration: referenceScope,
			Seed:        11,
			WarmupRuns:  200,
			TimedRuns:   800,
			Plans: []device.PlanState{
				{
					Key:    0xfeed,
					BaseMs: []float64{0.25, 1.5, 1e-9},
					RowTmpl: [][]device.PlanRowState{
						{{NodeID: 1, Name: "conv1", Kind: 1, Share: 0.75}, {NodeID: 2, Name: "relu1", Kind: 4, Share: 0.25}},
						{{NodeID: 1, Name: "conv1", Kind: 1, Share: 1}},
						{},
					},
				},
				{Key: 0xbeef, BaseMs: []float64{3}, RowTmpl: [][]device.PlanRowState{{{NodeID: 7, Name: "fc", Kind: 9, Share: 1}}}},
			},
			Measurements: []profiler.MeasurementState{
				{Key: 1, Network: "ResNet-50", MeanMs: 3.125, StdMs: 0.5, Runs: 800},
				{Key: 2, Network: "VGG-16", MeanMs: 21.75, StdMs: 0.0625, Runs: 800},
			},
			Tables: []profiler.TableState{{
				Key: 1, Network: "ResNet-50", EndToEndMs: 3.125,
				Layers: []profiler.TableRowState{
					{NodeID: 1, Name: "conv1", Kind: 1, MeanMs: 1.5},
					{NodeID: 2, Name: "relu1", Kind: 4, MeanMs: 1.625},
				},
			}},
		}},
	}
	for pi, g := range zoo.ExtendedZoo() {
		f.Cuts.Parents = append(f.Cuts.Parents, g)
		nb := g.BlockCount()
		mid := g.FeatureLayerCount() / 2
		f.Cuts.Cuts = append(f.Cuts.Cuts,
			CutState{Scope: 0, Parent: pi, At: 1, Blockwise: true, Head: trim.DefaultHead},
			CutState{Scope: 0, Parent: pi, At: nb / 2, Blockwise: true, Head: trim.DefaultHead},
			CutState{Scope: 0, Parent: pi, At: mid, Head: trim.DefaultHead},
			CutState{Scope: referenceScope, Parent: pi, At: 2, Blockwise: true, Head: trim.DefaultHead},
			CutState{Scope: referenceScope, Parent: pi, At: 3, Head: trim.HeadSpec{Hidden1: 64, Hidden2: 32, Classes: 10}},
		)
	}
	return f
}

// TestReferenceSnapshotBytes pins the snapshot bytes against a file
// written by an earlier build: encoding the reference state reproduces
// it exactly, decoding and re-encoding it is the identity, and its
// cuts restore.
func TestReferenceSnapshotBytes(t *testing.T) {
	want, err := os.ReadFile(referencePath)
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := Encode(&got, referenceFile(t)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("encoding the reference state: %s", firstDiff(got.Bytes(), want))
	}

	f, err := DecodeBytes(want)
	if err != nil {
		t.Fatal(err)
	}
	var re bytes.Buffer
	if err := Encode(&re, f); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(re.Bytes(), want) {
		t.Fatalf("re-encoding the decoded reference: %s", firstDiff(re.Bytes(), want))
	}

	trim.PurgeCutCache()
	t.Cleanup(trim.PurgeCutCache)
	if err := RestoreCuts(f.Cuts, nil); err != nil {
		t.Fatal(err)
	}
	if got, want := len(trim.SnapshotCuts(nil)), len(f.Cuts.Cuts); got != want {
		t.Fatalf("restored %d cuts, want %d", got, want)
	}
}

// firstDiff describes where two byte strings first differ.
func firstDiff(got, want []byte) string {
	n := min(len(got), len(want))
	for i := 0; i < n; i++ {
		if got[i] != want[i] {
			return fmt.Sprintf("byte %d is %#02x, want %#02x (%d vs %d bytes)", i, got[i], want[i], len(got), len(want))
		}
	}
	return fmt.Sprintf("%d bytes, want %d (equal prefix)", len(got), len(want))
}
