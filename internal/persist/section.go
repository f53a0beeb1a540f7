package persist

import (
	"bytes"
	"encoding/binary"
	"fmt"

	"netcut/internal/device"
	"netcut/internal/graph"
	"netcut/internal/profiler"
)

// The frame layer: a snapshot's payload is a flat sequence of
// self-delimiting frames, one per (section kind, identity) unit, each
// with its own identity header, its own deduplicated string table and
// its own checksum. Frames are the codec's unit of work, not an API:
// Encode flattens a File into sections and frames them, and
// DecodeBytes splits the payload, decodes the frames independently
// (concurrently) and reassembles the File.
//
// Frame wire layout (all inside the envelope of persist.go):
//
//	frame    := frameLen:uvarint body[frameLen]
//	body     := kind:u8 identity table records... crc:fixed64
//	identity := device:rawString calibration:fixed64 seed:varint
//	            warmupRuns:varint timedRuns:varint
//	table    := count:uvarint (len:uvarint bytes)...
//
// crc is FNV-1a 64 over every body byte before it, so a single flipped
// bit anywhere in a frame is ErrChecksumMismatch naming that section,
// even when the envelope checksum was recomputed over the damage.

// sectionKind identifies what a frame carries; the numeric values are
// the on-wire kind bytes and therefore part of the schema.
type sectionKind uint8

const (
	// sectionMeta carries the file-level identity (the base seed); it
	// is the first frame of every snapshot.
	sectionMeta sectionKind = 1 + iota
	// sectionPlans is one device's kernel-plan cache.
	sectionPlans
	// sectionMeasurements is one device's end-to-end measurement memo.
	sectionMeasurements
	// sectionTables is one device's per-layer table memo.
	sectionTables
	// sectionGraphs is the deduplicated parent-graph table the cut
	// records reference by index.
	sectionGraphs
	// sectionCuts is the cut-coordinate records of the process-wide
	// cut cache.
	sectionCuts
)

func (k sectionKind) String() string {
	switch k {
	case sectionMeta:
		return "meta"
	case sectionPlans:
		return "plans"
	case sectionMeasurements:
		return "measurements"
	case sectionTables:
		return "tables"
	case sectionGraphs:
		return "graphs"
	case sectionCuts:
		return "cuts"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// sectionID is a frame's identity header: what the section is plus the
// inputs its values are pure functions of. Device-independent sections
// (meta, graphs, cuts) leave Device empty and Calibration zero; the
// restoring layer matches the device-keyed fields against its own
// identity before it trusts any record.
type sectionID struct {
	Kind        sectionKind
	Device      string
	Calibration uint64
	Seed        int64
	WarmupRuns  int
	TimedRuns   int
}

// section is one frame's content: its identity plus exactly the
// payload slice matching ID.Kind.
type section struct {
	ID sectionID

	Plans        []device.PlanState
	Measurements []profiler.MeasurementState
	Tables       []profiler.TableState
	Graphs       []*graph.Graph
	Cuts         []CutState
}

// sections flattens a File into its frame sequence: meta first, then
// plans/measurements/tables per planner in registration order, then
// the graph table and the cut records. The order is deterministic, so
// equal Files produce equal bytes.
func (f *File) sections() []section {
	secs := make([]section, 0, 3*len(f.Planners)+3)
	secs = append(secs, section{ID: sectionID{Kind: sectionMeta, Seed: f.Seed}})
	for i := range f.Planners {
		p := &f.Planners[i]
		id := sectionID{
			Device:      p.Device,
			Calibration: p.Calibration,
			Seed:        p.Seed,
			WarmupRuns:  p.WarmupRuns,
			TimedRuns:   p.TimedRuns,
		}
		id.Kind = sectionPlans
		secs = append(secs, section{ID: id, Plans: p.Plans})
		id.Kind = sectionMeasurements
		secs = append(secs, section{ID: id, Measurements: p.Measurements})
		id.Kind = sectionTables
		secs = append(secs, section{ID: id, Tables: p.Tables})
	}
	secs = append(secs,
		section{ID: sectionID{Kind: sectionGraphs, Seed: f.Seed}, Graphs: f.Cuts.Parents},
		section{ID: sectionID{Kind: sectionCuts, Seed: f.Seed}, Cuts: f.Cuts.Cuts})
	return secs
}

// assemble rebuilds a File from its decoded sections: planner sections
// group by identity in first-appearance order, graph and cut sections
// concatenate (cut parent indexes are file-scoped into the
// concatenated graph table). A snapshot without a meta section, with
// two meta sections, or with duplicate planner sections is structurally
// invalid (ErrNotSnapshot). decodeFrame has already rejected every
// kind byte this build does not know.
func assemble(secs []section) (*File, error) {
	f := &File{}
	sawMeta := false
	seen := make(map[sectionID]bool, len(secs))
	planner := make(map[sectionID]int)
	for i := range secs {
		s := &secs[i]
		if seen[s.ID] || (s.ID.Kind == sectionMeta && sawMeta) {
			return nil, fmt.Errorf("persist: %w: duplicate %s section for %q", ErrNotSnapshot, s.ID.Kind, s.ID.Device)
		}
		seen[s.ID] = true
		switch s.ID.Kind {
		case sectionMeta:
			sawMeta = true
			f.Seed = s.ID.Seed
		case sectionPlans, sectionMeasurements, sectionTables:
			key := s.ID
			key.Kind = 0 // group the three kinds of one planner identity
			pi, ok := planner[key]
			if !ok {
				pi = len(f.Planners)
				planner[key] = pi
				f.Planners = append(f.Planners, PlannerState{
					Device:      s.ID.Device,
					Calibration: s.ID.Calibration,
					Seed:        s.ID.Seed,
					WarmupRuns:  s.ID.WarmupRuns,
					TimedRuns:   s.ID.TimedRuns,
				})
			}
			switch s.ID.Kind {
			case sectionPlans:
				f.Planners[pi].Plans = s.Plans
			case sectionMeasurements:
				f.Planners[pi].Measurements = s.Measurements
			case sectionTables:
				f.Planners[pi].Tables = s.Tables
			}
		case sectionGraphs:
			f.Cuts.Parents = append(f.Cuts.Parents, s.Graphs...)
		case sectionCuts:
			f.Cuts.Cuts = append(f.Cuts.Cuts, s.Cuts...)
		}
	}
	if !sawMeta {
		return nil, fmt.Errorf("persist: %w: snapshot has no meta section", ErrNotSnapshot)
	}
	return f, nil
}

// encodeSections encodes sections as one enveloped snapshot: magic,
// version byte, payload checksum, then one frame per section in slice
// order.
func encodeSections(secs []section) []byte {
	buf := make([]byte, 0, 16<<10)
	buf = append(buf, Magic...)
	buf = append(buf, SchemaVersion)
	buf = append(buf, 0, 0, 0, 0, 0, 0, 0, 0) // checksum backfilled below
	for i := range secs {
		buf = appendFrame(buf, &secs[i])
	}
	binary.LittleEndian.PutUint64(buf[len(Magic)+1:], checksum64(buf[envHeaderLen:]))
	return buf
}

// envHeaderLen is the envelope prefix: magic, version byte, checksum.
const envHeaderLen = len(Magic) + 1 + 8

// appendFrame encodes one section as a length-prefixed frame. A meta
// section has no records.
func appendFrame(dst []byte, s *section) []byte {
	var body enc
	switch s.ID.Kind {
	case sectionPlans:
		encodePlans(&body, s.Plans)
	case sectionMeasurements:
		encodeMeasurements(&body, s.Measurements)
	case sectionTables:
		encodeTables(&body, s.Tables)
	case sectionGraphs:
		encodeGraphs(&body, s.Graphs)
	case sectionCuts:
		encodeCuts(&body, s.Cuts)
	}
	return appendBody(dst, s.ID, &body)
}

// appendBody frames an encoded record body under its identity header.
func appendBody(dst []byte, id sectionID, body *enc) []byte {
	var fr enc
	fr.buf = make([]byte, 0, len(body.buf)+len(id.Device)+64)
	fr.u8(byte(id.Kind))
	fr.rawString(id.Device)
	fr.u64(id.Calibration)
	fr.varint(id.Seed)
	fr.vint(id.WarmupRuns)
	fr.vint(id.TimedRuns)
	fr.uvarint(uint64(len(body.table)))
	for _, str := range body.table {
		fr.rawString(str)
	}
	fr.buf = append(fr.buf, body.buf...)
	fr.u64(checksum64(fr.buf)) // self-checksum over everything before it
	dst = binary.AppendUvarint(dst, uint64(len(fr.buf)))
	return append(dst, fr.buf...)
}

// splitFrames validates the envelope and splits its payload into frame
// bodies without decoding any of them.
func splitFrames(raw []byte) ([][]byte, error) {
	payload, err := checkEnvelope(raw)
	if err != nil {
		return nil, err
	}
	var frames [][]byte
	for off := 0; off < len(payload); {
		n, w := binary.Uvarint(payload[off:])
		if w <= 0 || n == 0 || n > uint64(len(payload)-off-w) {
			return nil, fmt.Errorf("persist: %w: bad frame length at payload offset %d", ErrNotSnapshot, off)
		}
		off += w
		frames = append(frames, payload[off:off+int(n)])
		off += int(n)
	}
	if len(frames) == 0 {
		return nil, fmt.Errorf("persist: %w: snapshot has no sections", ErrNotSnapshot)
	}
	return frames, nil
}

// decodeFrame verifies one frame's checksum and decodes it. The
// checksum gates the parse, so a flipped bit anywhere in the frame is
// a structured ErrChecksumMismatch naming the section, never a
// half-trusted record.
func decodeFrame(body []byte) (section, error) {
	var s section
	if len(body) < 9 {
		return s, fmt.Errorf("%w: frame of %d bytes is shorter than its checksum", ErrNotSnapshot, len(body))
	}
	want := binary.LittleEndian.Uint64(body[len(body)-8:])
	if got := checksum64(body[:len(body)-8]); got != want {
		return s, fmt.Errorf("%w: section hashes to %016x, its frame claims %016x", ErrChecksumMismatch, got, want)
	}
	d := &dec{b: body[:len(body)-8]}
	s.ID = sectionID{
		Kind:        sectionKind(d.u8()),
		Device:      d.rawString(),
		Calibration: d.u64(),
		Seed:        d.varint(),
		WarmupRuns:  d.vint(),
		TimedRuns:   d.vint(),
	}
	table := d.strTable()
	switch s.ID.Kind {
	case sectionMeta:
	case sectionPlans:
		s.Plans = decodePlans(d, table)
	case sectionMeasurements:
		s.Measurements = decodeMeasurements(d, table)
	case sectionTables:
		s.Tables = decodeTables(d, table)
	case sectionGraphs:
		s.Graphs = decodeGraphs(d, table)
	case sectionCuts:
		s.Cuts = decodeCuts(d)
	default:
		d.failf("unknown section kind %d", s.ID.Kind)
	}
	if d.err == nil && d.remaining() != 0 {
		d.failf("%d trailing bytes after the last record", d.remaining())
	}
	if d.err != nil {
		return section{}, fmt.Errorf("%w: %s section: %v", ErrNotSnapshot, s.ID.Kind, d.err)
	}
	return s, nil
}

// legacyPrefix opens every snapshot of the retired JSON generation
// (schema v1): its encoder always wrote the magic as the first field.
const legacyPrefix = `{"magic":"` + Magic + `"`

// checkEnvelope validates the binary envelope and returns the payload.
// A file from the retired JSON generation is recognized by its leading
// magic field and classified as ErrVersionMismatch — the "old version =
// cold boot" policy, reported as a version skew rather than corruption.
func checkEnvelope(raw []byte) ([]byte, error) {
	if len(raw) > 0 && raw[0] == '{' {
		if bytes.HasPrefix(raw, []byte(legacyPrefix)) {
			return nil, fmt.Errorf("persist: %w: JSON-generation snapshot, this build speaks binary version %d",
				ErrVersionMismatch, SchemaVersion)
		}
		return nil, fmt.Errorf("persist: %w: not a binary netcut snapshot", ErrNotSnapshot)
	}
	if len(raw) < envHeaderLen || string(raw[:len(Magic)]) != Magic {
		return nil, fmt.Errorf("persist: %w: missing %q header", ErrNotSnapshot, Magic)
	}
	if v := raw[len(Magic)]; int(v) != SchemaVersion {
		return nil, fmt.Errorf("persist: %w: snapshot version %d, this build speaks %d",
			ErrVersionMismatch, v, SchemaVersion)
	}
	want := binary.LittleEndian.Uint64(raw[len(Magic)+1:])
	payload := raw[envHeaderLen:]
	if got := checksum64(payload); got != want {
		return nil, fmt.Errorf("persist: %w: payload hashes to %016x, envelope claims %016x",
			ErrChecksumMismatch, got, want)
	}
	return payload, nil
}

// Per-kind record codecs. The count() minimums are conservative
// lower bounds on one record's wire size, bounding hostile lengths.

func encodePlans(e *enc, plans []device.PlanState) {
	e.uvarint(uint64(len(plans)))
	for _, p := range plans {
		e.u64(p.Key)
		e.uvarint(uint64(len(p.BaseMs)))
		for _, b := range p.BaseMs {
			e.f64(b)
		}
		// RowTmpl's length mirrors BaseMs only in valid states; it is
		// encoded independently so any in-memory state round-trips and
		// a mismatch reaches device.PreparePlans, the one layer that
		// validates plans, instead of being hidden by the codec.
		e.uvarint(uint64(len(p.RowTmpl)))
		for _, rows := range p.RowTmpl {
			e.uvarint(uint64(len(rows)))
			for _, r := range rows {
				e.vint(r.NodeID)
				e.str(r.Name)
				e.vint(r.Kind)
				e.f64(r.Share)
			}
		}
	}
}

func decodePlans(d *dec, table []string) []device.PlanState {
	n := d.count(10)
	out := make([]device.PlanState, 0, n)
	for i := 0; i < n && d.err == nil; i++ {
		var p device.PlanState
		p.Key = d.u64()
		nb := d.count(8)
		p.BaseMs = make([]float64, nb)
		for j := range p.BaseMs {
			p.BaseMs[j] = d.f64()
		}
		nk := d.count(1)
		p.RowTmpl = make([][]device.PlanRowState, nk)
		for k := 0; k < nk && d.err == nil; k++ {
			nr := d.count(11)
			rows := make([]device.PlanRowState, nr)
			for r := range rows {
				rows[r] = device.PlanRowState{
					NodeID: d.vint(),
					Name:   d.str(table),
					Kind:   d.vint(),
					Share:  d.f64(),
				}
			}
			p.RowTmpl[k] = rows
		}
		out = append(out, p)
	}
	return out
}

func encodeMeasurements(e *enc, ms []profiler.MeasurementState) {
	e.uvarint(uint64(len(ms)))
	for _, m := range ms {
		e.u64(m.Key)
		e.str(m.Network)
		e.f64(m.MeanMs)
		e.f64(m.StdMs)
		e.vint(m.Runs)
	}
}

func decodeMeasurements(d *dec, table []string) []profiler.MeasurementState {
	n := d.count(26)
	out := make([]profiler.MeasurementState, 0, n)
	for i := 0; i < n && d.err == nil; i++ {
		out = append(out, profiler.MeasurementState{
			Key:     d.u64(),
			Network: d.str(table),
			MeanMs:  d.f64(),
			StdMs:   d.f64(),
			Runs:    d.vint(),
		})
	}
	return out
}

func encodeTables(e *enc, ts []profiler.TableState) {
	e.uvarint(uint64(len(ts)))
	for _, t := range ts {
		e.u64(t.Key)
		e.str(t.Network)
		e.f64(t.EndToEndMs)
		e.uvarint(uint64(len(t.Layers)))
		for _, l := range t.Layers {
			e.vint(l.NodeID)
			e.str(l.Name)
			e.vint(l.Kind)
			e.f64(l.MeanMs)
		}
	}
}

func decodeTables(d *dec, table []string) []profiler.TableState {
	n := d.count(18)
	out := make([]profiler.TableState, 0, n)
	for i := 0; i < n && d.err == nil; i++ {
		t := profiler.TableState{
			Key:        d.u64(),
			Network:    d.str(table),
			EndToEndMs: d.f64(),
		}
		nl := d.count(11)
		t.Layers = make([]profiler.TableRowState, 0, nl)
		for j := 0; j < nl && d.err == nil; j++ {
			t.Layers = append(t.Layers, profiler.TableRowState{
				NodeID: d.vint(),
				Name:   d.str(table),
				Kind:   d.vint(),
				MeanMs: d.f64(),
			})
		}
		out = append(out, t)
	}
	return out
}

// encodeGraphs writes every graph.Graph field — including every field
// the structural fingerprint covers and every field the planning
// pipeline (fusion pass, subgraph builder, Eq. (1)) reads — so a
// decoded parent has the same fingerprint and plans, measures and cuts
// identically to the original. Kind and Pad are written as their
// canonical names (OpKind.String, PadMode.String), which keeps a
// snapshot debuggable and lets decode reject an unknown operator
// structurally. The codec is deliberately independent of the gateway's
// HTTP wire schema: the two formats evolve on different compatibility
// clocks (a state file is consumed by the same binary generation that
// wrote it, enforced by SchemaVersion; the HTTP API is a public
// surface).
func encodeGraphs(e *enc, gs []*graph.Graph) {
	e.uvarint(uint64(len(gs)))
	for _, g := range gs {
		e.str(g.Name)
		e.vint(g.InputShape.H)
		e.vint(g.InputShape.W)
		e.vint(g.InputShape.C)
		e.vint(g.NumClasses)
		e.uvarint(uint64(len(g.Nodes)))
		for _, n := range g.Nodes {
			e.vint(n.ID)
			e.str(n.Name)
			e.str(n.Kind.String())
			e.uvarint(uint64(len(n.Inputs)))
			for _, in := range n.Inputs {
				e.vint(in)
			}
			e.vint(n.In.H)
			e.vint(n.In.W)
			e.vint(n.In.C)
			e.vint(n.Out.H)
			e.vint(n.Out.W)
			e.vint(n.Out.C)
			e.vint(n.KH)
			e.vint(n.KW)
			e.vint(n.Stride)
			e.str(n.Pad.String())
			e.varint(n.MACs)
			e.varint(n.Params)
			e.varint(n.WeightBytes)
			e.varint(n.IOBytes)
			e.vint(n.Block)
			e.bool(n.Head)
		}
		e.uvarint(uint64(len(g.Blocks)))
		for _, b := range g.Blocks {
			e.vint(b.Index)
			e.str(b.Label)
			e.uvarint(uint64(len(b.Nodes)))
			for _, id := range b.Nodes {
				e.vint(id)
			}
			e.vint(b.Output)
		}
	}
}

// decodeGraphs rebuilds the parent graphs. It checks what the wire can
// get wrong on its own (lengths, string references, operator and pad
// names), then validates and seals each graph with graph.Check, so a
// restored cut parent is neither validated nor hashed again.
func decodeGraphs(d *dec, table []string) []*graph.Graph {
	n := d.count(7)
	out := make([]*graph.Graph, 0, n)
	for i := 0; i < n && d.err == nil; i++ {
		g := &graph.Graph{Name: d.str(table)}
		g.InputShape = shape(d)
		g.NumClasses = d.vint()
		nn := d.count(19)
		g.Nodes = make([]*graph.Node, 0, nn)
		for j := 0; j < nn && d.err == nil; j++ {
			nd := &graph.Node{ID: d.vint(), Name: d.str(table)}
			kind := d.str(table)
			var ok bool
			if nd.Kind, ok = graph.ParseOpKind(kind); !ok {
				d.failf("graph %q: node %d: unknown kind %q", g.Name, nd.ID, kind)
			}
			if ni := d.count(1); ni > 0 {
				nd.Inputs = make([]int, ni)
				for k := range nd.Inputs {
					nd.Inputs[k] = d.vint()
				}
			}
			nd.In = shape(d)
			nd.Out = shape(d)
			nd.KH = d.vint()
			nd.KW = d.vint()
			nd.Stride = d.vint()
			pad := d.str(table)
			if nd.Pad, ok = graph.ParsePadMode(pad); !ok {
				d.failf("graph %q: node %d: unknown pad mode %q", g.Name, nd.ID, pad)
			}
			nd.MACs = d.varint()
			nd.Params = d.varint()
			nd.WeightBytes = d.varint()
			nd.IOBytes = d.varint()
			nd.Block = d.vint()
			nd.Head = d.bool()
			g.Nodes = append(g.Nodes, nd)
		}
		nb := d.count(4)
		for j := 0; j < nb && d.err == nil; j++ {
			b := graph.Block{Index: d.vint(), Label: d.str(table)}
			if nbn := d.count(1); nbn > 0 {
				b.Nodes = make([]int, nbn)
				for k := range b.Nodes {
					b.Nodes[k] = d.vint()
				}
			}
			b.Output = d.vint()
			g.Blocks = append(g.Blocks, b)
		}
		if d.err == nil {
			if err := graph.Check(g); err != nil {
				d.failf("graph %d: %v", i, err)
			}
		}
		out = append(out, g)
	}
	return out
}

// shape reads a feature-map shape (H, W, C).
func shape(d *dec) graph.Shape {
	return graph.Shape{H: d.vint(), W: d.vint(), C: d.vint()}
}

func encodeCuts(e *enc, cuts []CutState) {
	e.uvarint(uint64(len(cuts)))
	for _, c := range cuts {
		e.u64(c.Scope)
		e.vint(c.Parent)
		e.vint(c.At)
		e.bool(c.Blockwise)
		e.vint(c.Head.Hidden1)
		e.vint(c.Head.Hidden2)
		e.vint(c.Head.Classes)
	}
}

func decodeCuts(d *dec) []CutState {
	n := d.count(14)
	out := make([]CutState, 0, n)
	for i := 0; i < n && d.err == nil; i++ {
		c := CutState{
			Scope:     d.u64(),
			Parent:    d.vint(),
			At:        d.vint(),
			Blockwise: d.bool(),
		}
		c.Head.Hidden1 = d.vint()
		c.Head.Hidden2 = d.vint()
		c.Head.Classes = d.vint()
		out = append(out, c)
	}
	return out
}
