package persist

import (
	"bytes"
	"os"
	"testing"

	"netcut/internal/graph"
	"netcut/internal/trim"
	"netcut/internal/zoo"
)

// FuzzDecodeState extends the repository's untrusted-input fuzzing to
// the state-file decoder: arbitrary bytes must produce a structured
// error or a File whose cut section survives a full RestoreCuts pass —
// never a panic, never an unbounded allocation (the decoder caps every
// collection length by the bytes left in its frame). (A state file is
// operator-supplied input: it lives on disk between restarts and an
// operator can point -state-file at anything.) Anything that decodes
// must also re-encode canonically: Encode(Decode(x)) is a fixed point.
func FuzzDecodeState(f *testing.F) {
	// Foreign and legacy-JSON-generation inputs (structured rejections).
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"magic":"netcut-state","version":1,"checksum":"0","payload":{}}`))
	// A bare envelope with no frames, and a truncated header.
	f.Add([]byte(Magic + "\x02\x00\x00\x00\x00\x00\x00\x00\x00"))
	f.Add([]byte(Magic[:6]))
	// Valid binary snapshots: cuts-only, and one with planner records.
	g, err := zoo.ByName("MobileNetV1 (0.25)")
	if err != nil {
		f.Fatal(err)
	}
	if _, err := trim.Cut(g, 1, trim.DefaultHead); err != nil {
		f.Fatal(err)
	}
	var cutsOnly bytes.Buffer
	if err := Encode(&cutsOnly, &File{Seed: 1, Cuts: CaptureCuts()}); err != nil {
		f.Fatal(err)
	}
	trim.PurgeCutCache()
	f.Add(cutsOnly.Bytes())
	var full bytes.Buffer
	if err := Encode(&full, &File{
		Seed: 7,
		Planners: []PlannerState{{
			Device: "sim-xavier", Calibration: 12345, Seed: 7,
			WarmupRuns: 200, TimedRuns: 800,
		}},
		Cuts: CutsState{
			Parents: []*graph.Graph{g},
			Cuts:    []CutState{{Parent: 0, At: 1, Blockwise: true, Head: trim.DefaultHead}},
		},
	}); err != nil {
		f.Fatal(err)
	}
	f.Add(full.Bytes())
	// The reference snapshot: every section kind and many parents.
	ref, err := os.ReadFile(referencePath)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(ref)

	f.Fuzz(func(t *testing.T, data []byte) {
		file, err := DecodeBytes(data)
		if err != nil {
			return
		}
		// Whatever decodes must re-encode to a canonical form that
		// decodes back to the same file and re-encodes byte-identically —
		// the determinism half of the snapshot contract.
		var re bytes.Buffer
		if err := Encode(&re, file); err != nil {
			t.Fatalf("re-encoding a decoded file: %v", err)
		}
		file2, err := DecodeBytes(re.Bytes())
		if err != nil {
			t.Fatalf("decoding a re-encoded file: %v", err)
		}
		var re2 bytes.Buffer
		if err := Encode(&re2, file2); err != nil {
			t.Fatalf("re-encoding twice: %v", err)
		}
		if !bytes.Equal(re.Bytes(), re2.Bytes()) {
			t.Fatal("re-encoding is not a fixed point")
		}
		// Whatever decodes must be safe to apply: parents re-validate
		// through graph.Validate and cuts replay through the public trim
		// path, so errors are fine, panics are the bug.
		defer trim.PurgeCutCache()
		_ = RestoreCuts(file.Cuts)
	})
}
