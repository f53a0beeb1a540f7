package persist

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"netcut/internal/device"
	"netcut/internal/graph"
	"netcut/internal/profiler"
	"netcut/internal/trim"
	"netcut/internal/zoo"
)

func sampleFile(t *testing.T) *File {
	t.Helper()
	g, err := zoo.ByName("MobileNetV1 (0.25)")
	if err != nil {
		t.Fatal(err)
	}
	return &File{
		Seed: 7,
		Planners: []PlannerState{{
			Device:      "sim-xavier",
			Calibration: 12345,
			Seed:        7,
			WarmupRuns:  200,
			TimedRuns:   800,
		}},
		Cuts: CutsState{
			Parents: []*graph.Graph{g},
			Cuts: []CutState{
				{Scope: 0, Parent: 0, At: 1, Blockwise: true, Head: trim.DefaultHead},
			},
		},
	}
}

// TestEncodeDecodeRoundTrip pins the basic contract plus encoding
// determinism: equal Files produce equal bytes.
func TestEncodeDecodeRoundTrip(t *testing.T) {
	f := sampleFile(t)
	var a, b bytes.Buffer
	if err := Encode(&a, f); err != nil {
		t.Fatal(err)
	}
	if err := Encode(&b, f); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("two encodings of one File differ")
	}
	got, err := Decode(bytes.NewReader(a.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got.Seed != f.Seed || len(got.Planners) != 1 || got.Planners[0].Device != "sim-xavier" {
		t.Fatalf("decoded file diverged: %+v", got)
	}
	if len(got.Cuts.Cuts) != 1 || got.Cuts.Cuts[0].Head != trim.DefaultHead {
		t.Fatalf("decoded cuts diverged: %+v", got.Cuts)
	}
}

// TestDecodeFileMatchesDecodeBytes pins that reading a snapshot from
// a file, whose size sizes Decode's buffer, decodes exactly what the
// same bytes decode to in memory.
func TestDecodeFileMatchesDecodeBytes(t *testing.T) {
	raw, err := os.ReadFile(referencePath)
	if err != nil {
		t.Fatal(err)
	}
	want, err := DecodeBytes(raw)
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(referencePath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	got, err := Decode(f)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("a snapshot decoded from its file differs from the same bytes decoded in memory")
	}
}

// reseal recomputes the envelope checksum over raw's payload, so a
// test can damage frame bytes and prove the *per-section* checksum (or
// frame structure check) is what rejects the file, not the envelope.
func reseal(raw []byte) []byte {
	out := bytes.Clone(raw)
	binary.LittleEndian.PutUint64(out[len(Magic)+1:], checksum64(out[envHeaderLen:]))
	return out
}

// TestDecodeRejectsDamage pins the structured-rejection contract: a
// truncated, corrupted, version-skewed or foreign file is a sentinel
// error, never a silently trusted partial state.
func TestDecodeRejectsDamage(t *testing.T) {
	var buf bytes.Buffer
	if err := Encode(&buf, sampleFile(t)); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()

	t.Run("truncated-header", func(t *testing.T) {
		for _, n := range []int{0, 1, envHeaderLen - 1} {
			if _, err := DecodeBytes(good[:n]); !errors.Is(err, ErrNotSnapshot) {
				t.Fatalf("truncation at %d: err = %v, want ErrNotSnapshot", n, err)
			}
		}
	})
	t.Run("truncated-payload", func(t *testing.T) {
		// Past the header, truncation is caught by the envelope checksum.
		for _, n := range []int{len(good) / 2, len(good) - 2} {
			if _, err := DecodeBytes(good[:n]); !errors.Is(err, ErrChecksumMismatch) {
				t.Fatalf("truncation at %d: err = %v, want ErrChecksumMismatch", n, err)
			}
		}
	})
	t.Run("truncated-mid-frame", func(t *testing.T) {
		// Even with a consistent envelope (checksum recomputed over the
		// truncated payload), a frame cut mid-body is a structural
		// rejection: its length prefix promises bytes that are not there.
		bad := reseal(good[:envHeaderLen+5])
		if _, err := DecodeBytes(bad); !errors.Is(err, ErrNotSnapshot) {
			t.Fatalf("err = %v, want ErrNotSnapshot", err)
		}
	})
	t.Run("flipped-frame-byte", func(t *testing.T) {
		// One flipped bit inside a frame, envelope checksum recomputed so
		// only the per-section checksum can catch it.
		bad := bytes.Clone(good)
		bad[len(bad)-20] ^= 0x01
		bad = reseal(bad)
		if _, err := DecodeBytes(bad); !errors.Is(err, ErrChecksumMismatch) {
			t.Fatalf("err = %v, want ErrChecksumMismatch", err)
		}
	})
	t.Run("version-skew", func(t *testing.T) {
		bad := bytes.Clone(good)
		bad[len(Magic)] = SchemaVersion + 1
		if _, err := DecodeBytes(bad); !errors.Is(err, ErrVersionMismatch) {
			t.Fatalf("err = %v, want ErrVersionMismatch", err)
		}
	})
	t.Run("legacy-json-generation", func(t *testing.T) {
		// A version-1 (JSON era) snapshot is recognized and reported as
		// version skew — the "old version = cold boot" policy — not as
		// corruption or foreign bytes.
		legacy := `{"magic":"netcut-state","version":1,"checksum":"00","payload":{}}`
		if _, err := DecodeBytes([]byte(legacy)); !errors.Is(err, ErrVersionMismatch) {
			t.Fatalf("err = %v, want ErrVersionMismatch", err)
		}
	})
	t.Run("foreign", func(t *testing.T) {
		for _, in := range []string{`{}`, `{"magic":"other","version":1}`, `not json at all`} {
			if _, err := DecodeBytes([]byte(in)); !errors.Is(err, ErrNotSnapshot) {
				t.Fatalf("input %q: err = %v, want ErrNotSnapshot", in, err)
			}
		}
	})
}

// richFile is sampleFile with record payloads in every section kind,
// exercising the full record codecs (string interning, float bit
// patterns, nested collections).
func richFile(t *testing.T) *File {
	f := sampleFile(t)
	p := &f.Planners[0]
	p.Plans = []device.PlanState{{
		Key:    0xfeed,
		BaseMs: []float64{0.25, 1.5},
		RowTmpl: [][]device.PlanRowState{
			{{NodeID: 1, Name: "conv1", Kind: 2, Share: 0.75}, {NodeID: 2, Name: "relu1", Kind: 3, Share: 0.25}},
			{{NodeID: 1, Name: "conv1", Kind: 2, Share: 1}},
		},
	}}
	p.Measurements = []profiler.MeasurementState{
		{Key: 1, Network: "MobileNetV1 (0.25)", MeanMs: 3.125, StdMs: 0.5, Runs: 800},
		{Key: 2, Network: "MobileNetV1 (0.25)", MeanMs: 2.5, StdMs: 0.25, Runs: 800},
	}
	p.Tables = []profiler.TableState{{
		Key: 1, Network: "MobileNetV1 (0.25)", EndToEndMs: 3.125,
		Layers: []profiler.TableRowState{
			{NodeID: 1, Name: "conv1", Kind: 2, MeanMs: 1.5},
			{NodeID: 2, Name: "relu1", Kind: 3, MeanMs: 1.625},
		},
	}}
	return f
}

// TestSectionRoundTrip pins the frame layer under Encode and
// DecodeBytes: sections and assemble invert each other, every frame
// decodes on its own to the section it was encoded from, and
// DecodeBytes returns bit-identical results at GOMAXPROCS 1 and 4.
func TestSectionRoundTrip(t *testing.T) {
	f := richFile(t)
	secs := f.sections()
	wantKinds := []sectionKind{sectionMeta, sectionPlans, sectionMeasurements, sectionTables, sectionGraphs, sectionCuts}
	if len(secs) != len(wantKinds) {
		t.Fatalf("sections returned %d sections, want %d", len(secs), len(wantKinds))
	}
	for i, k := range wantKinds {
		if secs[i].ID.Kind != k {
			t.Fatalf("section %d kind = %s, want %s", i, secs[i].ID.Kind, k)
		}
	}
	back, err := assemble(secs)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, f) {
		t.Fatalf("assemble(sections()) diverged:\n got  %+v\n want %+v", back, f)
	}

	raw := encodeSections(secs)
	frames, err := splitFrames(raw)
	if err != nil {
		t.Fatal(err)
	}
	if len(frames) != len(secs) {
		t.Fatalf("snapshot splits into %d frames, want %d", len(frames), len(secs))
	}
	for i, fr := range frames {
		s, err := decodeFrame(fr)
		if err != nil {
			t.Fatal(err)
		}
		if !sectionEqual(&s, &secs[i]) {
			t.Fatalf("frame %d decode diverged:\n got  %+v\n want %+v", i, s, secs[i])
		}
	}

	// At GOMAXPROCS 1 the frames decode in order; at 4 they fan out.
	decodeAt := func(procs int) *File {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		got, err := DecodeBytes(raw)
		if err != nil {
			t.Fatalf("GOMAXPROCS %d: %v", procs, err)
		}
		return got
	}
	serial, parallel := decodeAt(1), decodeAt(4)
	if !reflect.DeepEqual(serial, parallel) {
		t.Fatal("decode at GOMAXPROCS 4 diverged from decode at GOMAXPROCS 1")
	}
	if !reflect.DeepEqual(serial, f) {
		t.Fatal("decoded file diverged from the original")
	}
}

// sectionEqual compares decoded sections treating nil and empty record
// slices as the same (an empty section round-trips to nil slices).
func sectionEqual(a, b *section) bool {
	if a.ID != b.ID {
		return false
	}
	eq := func(x, y any) bool {
		return reflect.DeepEqual(x, y) ||
			(reflect.ValueOf(x).Len() == 0 && reflect.ValueOf(y).Len() == 0)
	}
	return eq(a.Plans, b.Plans) && eq(a.Measurements, b.Measurements) &&
		eq(a.Tables, b.Tables) && eq(a.Graphs, b.Graphs) && eq(a.Cuts, b.Cuts)
}

// frame hand-builds one frame of the given kind under an otherwise
// empty identity; fill, if set, writes its records.
func frame(kind sectionKind, seed int64, fill func(*enc)) []byte {
	var body enc
	if fill != nil {
		fill(&body)
	}
	return appendBody(nil, sectionID{Kind: kind, Seed: seed}, &body)
}

// snapshot envelopes hand-built frames: header, frames in order, and
// an envelope checksum sealed over them, so only the frame structure
// can reject the result.
func snapshot(frames ...[]byte) []byte {
	raw := append([]byte(Magic), SchemaVersion, 0, 0, 0, 0, 0, 0, 0, 0)
	for _, fr := range frames {
		raw = append(raw, fr...)
	}
	return reseal(raw)
}

// TestDecodeRejectsSectionStructure pins the structural invariants of
// a snapshot's frame sequence, each through DecodeBytes on a
// hand-framed file with a valid envelope: at least one frame, exactly
// one meta frame, no duplicated planner frame, only known kind bytes,
// and no bytes after a frame's last record.
func TestDecodeRejectsSectionStructure(t *testing.T) {
	meta := frame(sectionMeta, 1, nil)
	noPlans := func(e *enc) { e.uvarint(0) }
	plans := frame(sectionPlans, 1, noPlans)
	if _, err := DecodeBytes(snapshot(meta, plans)); err != nil {
		t.Fatalf("well-formed hand-framed snapshot: %v", err)
	}
	for _, tc := range []struct {
		name string
		raw  []byte
		want string
	}{
		{"empty-payload", snapshot(), "no sections"},
		{"no-meta", snapshot(plans), "no meta section"},
		{"second-meta", snapshot(meta, frame(sectionMeta, 2, nil)), "duplicate meta section"},
		{"duplicate-plans", snapshot(meta, plans, plans), "duplicate plans section"},
		{"unknown-kind", snapshot(meta, frame(sectionCuts+1, 1, nil)), "unknown section kind 7"},
		{"trailing-bytes", snapshot(meta, frame(sectionPlans, 1, func(e *enc) {
			noPlans(e)
			e.u8(0)
		})), "1 trailing bytes"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, err := DecodeBytes(tc.raw)
			if !errors.Is(err, ErrNotSnapshot) || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want ErrNotSnapshot naming %q", err, tc.want)
			}
		})
	}
}

// TestGraphCodecRoundTrip pins that the snapshot graph codec preserves
// the structural fingerprint — the property every restored cache key
// depends on — and every field of every extended-zoo network, through
// one graphs frame.
func TestGraphCodecRoundTrip(t *testing.T) {
	nets := zoo.ExtendedZoo()
	frames, err := splitFrames(encodeSections([]section{{ID: sectionID{Kind: sectionGraphs}, Graphs: nets}}))
	if err != nil {
		t.Fatal(err)
	}
	sec, err := decodeFrame(frames[0])
	if err != nil {
		t.Fatal(err)
	}
	if len(sec.Graphs) != len(nets) {
		t.Fatalf("decoded %d graphs, want %d", len(sec.Graphs), len(nets))
	}
	for i, src := range nets {
		got := sec.Graphs[i]
		if err := graph.Validate(got); err != nil {
			t.Fatalf("%s: %v", src.Name, err)
		}
		if graph.Fingerprint(got) != graph.Fingerprint(src) {
			t.Fatalf("%s: fingerprint changed across the snapshot codec", src.Name)
		}
		if !reflect.DeepEqual(got, src) {
			t.Fatalf("%s: decoded graph differs from the original", src.Name)
		}
	}
}

// graphsSnapshot builds by hand a snapshot whose graphs frame holds
// one single-node graph with the given operator and pad names.
func graphsSnapshot(kind, pad string) []byte {
	return snapshot(frame(sectionMeta, 0, nil), frame(sectionGraphs, 0, func(body *enc) {
		body.uvarint(1) // graphs
		body.str("hand")
		for _, v := range []int{8, 8, 3, 10} { // input H, W, C; classes
			body.vint(v)
		}
		body.uvarint(1) // nodes
		body.vint(0)
		body.str("input")
		body.str(kind)
		body.uvarint(0) // inputs
		// In, Out, KH, KW, Stride.
		for _, v := range []int{8, 8, 3, 8, 8, 3, 0, 0, 0} {
			body.vint(v)
		}
		body.str(pad)
		for range 4 { // MACs, Params, WeightBytes, IOBytes
			body.varint(0)
		}
		body.vint(-1) // block
		body.bool(false)
		body.uvarint(0) // blocks
	}))
}

// TestDecodeRejectsUnknownGraphNames pins that an operator or pad name
// this build does not know, or a graph graph.Validate rejects, fails
// the decode of the graphs section itself, before any restoring layer
// sees the graph.
func TestDecodeRejectsUnknownGraphNames(t *testing.T) {
	f, err := DecodeBytes(graphsSnapshot("Input", "valid"))
	if err != nil {
		t.Fatalf("well-formed hand-built snapshot: %v", err)
	}
	if n := f.Cuts.Parents[0].Nodes[0]; n.Kind != graph.OpInput || n.Pad != graph.Valid {
		t.Fatalf("decoded node %+v", n)
	}
	for _, tc := range []struct{ kind, pad, name string }{
		{"Warp", "valid", `unknown kind "Warp"`},
		{"Input", "reflect", `unknown pad mode "reflect"`},
		{"Conv", "valid", "first node must be Input"},
	} {
		_, err := DecodeBytes(graphsSnapshot(tc.kind, tc.pad))
		if !errors.Is(err, ErrNotSnapshot) || !strings.Contains(err.Error(), "graphs section") ||
			!strings.Contains(err.Error(), tc.name) {
			t.Fatalf("kind %q pad %q: err = %v, want ErrNotSnapshot in the graphs section naming %s",
				tc.kind, tc.pad, err, tc.name)
		}
	}
}

// TestRestoreCutsRejectsBadParents pins that a snapshot carrying an
// invalid parent graph or a dangling parent index is rejected before
// any cut is replayed: every parent a cut references is validated, and
// a rejected section leaves the cache empty.
func TestRestoreCutsRejectsBadParents(t *testing.T) {
	trim.PurgeCutCache()
	t.Cleanup(trim.PurgeCutCache)
	bad := &graph.Graph{Name: ""} // fails graph.Validate
	if err := RestoreCuts(CutsState{
		Parents: []*graph.Graph{bad},
		Cuts:    []CutState{{Parent: 0, At: 1, Blockwise: true, Head: trim.DefaultHead}},
	}); err == nil {
		t.Fatal("invalid parent accepted")
	}
	g, err := zoo.ByName("MobileNetV1 (0.25)")
	if err != nil {
		t.Fatal(err)
	}
	err = RestoreCuts(CutsState{
		Parents: []*graph.Graph{g},
		Cuts:    []CutState{{Parent: 3, At: 1, Blockwise: true, Head: trim.DefaultHead}},
	})
	if err == nil || !strings.Contains(err.Error(), "references parent") {
		t.Fatalf("dangling parent index: err = %v", err)
	}

	// A valid cut beside one whose parent is invalid: the whole section
	// is rejected, whatever scope the bad record was written under.
	err = RestoreCuts(CutsState{
		Parents: []*graph.Graph{g, bad},
		Cuts: []CutState{
			{Scope: 0, Parent: 0, At: 1, Blockwise: true, Head: trim.DefaultHead},
			{Scope: 99, Parent: 1, At: 1, Blockwise: true, Head: trim.DefaultHead},
		},
	})
	if err == nil || !strings.Contains(err.Error(), "cut parent 1") {
		t.Fatalf("invalid parent of a cut: err = %v", err)
	}
	if got := len(trim.SnapshotCuts()); got != 0 {
		t.Fatalf("rejected restore left %d cuts in the cache", got)
	}
}

// TestCaptureRestoreCutsRoundTrip pins capture -> restore -> capture
// byte identity for the cut-cache state: replaying a snapshot
// reproduces the same records (contents and order), each written with
// scope 0.
func TestCaptureRestoreCutsRoundTrip(t *testing.T) {
	trim.PurgeCutCache()
	t.Cleanup(trim.PurgeCutCache)
	g, err := zoo.ByName("MobileNetV1 (0.25)")
	if err != nil {
		t.Fatal(err)
	}
	for c := 1; c <= 3; c++ {
		if _, err := trim.Cut(g, c, trim.DefaultHead); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := trim.CutAtNode(g, 5, trim.DefaultHead); err != nil {
		t.Fatal(err)
	}

	encodeCuts := func(cs CutsState) []byte {
		t.Helper()
		var buf bytes.Buffer
		if err := Encode(&buf, &File{Seed: 1, Cuts: cs}); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	cs := CaptureCuts()
	if len(cs.Cuts) != 4 || len(cs.Parents) != 1 {
		t.Fatalf("captured %d cuts over %d parents, want 4 over 1", len(cs.Cuts), len(cs.Parents))
	}
	for i, c := range cs.Cuts {
		if c.Scope != 0 {
			t.Fatalf("cut %d written with scope %#x, want 0", i, c.Scope)
		}
	}
	a := encodeCuts(cs)

	trim.PurgeCutCache()
	if err := RestoreCuts(cs); err != nil {
		t.Fatal(err)
	}
	if b := encodeCuts(CaptureCuts()); !bytes.Equal(a, b) {
		t.Fatalf("cut state diverged across restore: %s", firstDiff(b, a))
	}
}
