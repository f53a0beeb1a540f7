// Package persist implements the versioned, deterministic serialization
// of the planning stack's warm state — device kernel plans, profiler
// measurements and per-layer tables, and trim cuts — so a
// restarted daemon (or a freshly built Planner) can restore its caches
// instead of paying the ~23x cold/warm gap on every first-seen
// (graph, device) pair.
//
// Format: a compact binary envelope
//
//	"netcut-state" version:u8 checksum:fixed64 frame...
//
// where each frame is one independently decodable section of the
// state (see section.go for the frame layout): a length-prefixed body
// carrying a kind byte, an identity header (device, calibration
// fingerprint, seed, measurement protocol), a per-frame deduplicated
// string table, varint/fixed64-encoded records, and its own trailing
// FNV-1a 64 checksum. No reflection runs in either direction — every section
// kind has a hand-written encode and decode walk.
//
// The envelope is what makes rejection structured instead of silent:
//
//   - Magic and Version are checked first: a snapshot from a different
//     schema generation — including the retired JSON generation, which
//     is recognized by its leading '{' — is ErrVersionMismatch, never a
//     best-effort parse. Any change to the wire layout MUST bump
//     SchemaVersion.
//   - The envelope checksum is FNV-1a over the exact payload bytes, and
//     every frame repeats the check over its own bytes: a truncated or
//     bit-flipped file is ErrChecksumMismatch before any field of it is
//     trusted, and the frame-level check localizes the damage to one
//     section.
//   - Identity fields in each frame header (device name, calibration
//     fingerprint, seed, measurement protocol) are matched by the
//     restoring layer (serve.Planner.LoadState): a snapshot taken on a
//     different calibration or seed is rejected, never silently
//     trusted — restored entries must be byte-identical to what a
//     fresh computation would produce, which only holds when every
//     input to those computations matches.
//
// Serialization is deterministic: entries are written in cache (LRU)
// order, parents and strings are deduplicated in first-appearance
// order, and floats are stored as IEEE-754 bit patterns, so equal
// states produce equal bytes. Saving a state and restoring it into a
// fresh process, then saving again, yields the identical file — the
// restore-equals-recompute contract the serve package pins. Decoding
// runs sections concurrently (in order at GOMAXPROCS 1) without
// changing any of that: sections are independent, results land in
// position-indexed slots, and cut replay re-inserts serially in
// snapshot order.
package persist

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"io/fs"

	"netcut/internal/device"
	"netcut/internal/graph"
	"netcut/internal/par"
	"netcut/internal/profiler"
	"netcut/internal/trim"
)

// SchemaVersion identifies the wire layout. Bump it on ANY change to
// the envelope, frame layout or record encodings; Decode rejects every
// other version. Version 1 was the JSON generation; 2 is the binary
// section format.
const SchemaVersion = 2

// Magic identifies a NetCut state snapshot.
const Magic = "netcut-state"

// Structured rejection reasons; callers branch with errors.Is.
var (
	// ErrNotSnapshot rejects input that is not a NetCut state snapshot
	// at all (bad magic, truncated envelope, broken frame structure).
	ErrNotSnapshot = errors.New("not a netcut state snapshot")
	// ErrVersionMismatch rejects snapshots from another schema
	// generation (including the retired JSON format).
	ErrVersionMismatch = errors.New("snapshot schema version mismatch")
	// ErrChecksumMismatch rejects corrupt or truncated payloads and
	// frames.
	ErrChecksumMismatch = errors.New("snapshot checksum mismatch")
	// ErrStateMismatch rejects structurally valid snapshots whose
	// identity (device calibration, seed, protocol) does not match the
	// restoring planner. Declared here so every layer shares one
	// sentinel.
	ErrStateMismatch = errors.New("snapshot does not match this planner")
)

// File is the one in-memory form of a snapshot: the warm state of
// every planner of a pool (one for a single Planner) plus the
// process-wide cut-cache state. Encode and Decode are its only writer
// and reader; on the wire it is a flat sequence of per-section frames,
// a detail of the codec (see section.go).
type File struct {
	// Seed is the base measurement/retraining seed the state was
	// produced under.
	Seed int64
	// Planners holds one entry per device-keyed planner, in
	// registration order.
	Planners []PlannerState
	// Cuts is the cut-coordinate form of the process-wide cut cache.
	Cuts CutsState
}

// PlannerState is one planner's warm state plus the identity fields a
// restore must match before trusting any entry.
type PlannerState struct {
	Device      string
	Calibration uint64
	Seed        int64
	WarmupRuns  int
	TimedRuns   int

	Plans        []device.PlanState
	Measurements []profiler.MeasurementState
	Tables       []profiler.TableState
}

// CutsState stores cut-cache entries as cut coordinates against a
// deduplicated parent-graph table (see trim.SnapshotCuts for why cuts
// are re-executed rather than stored). Parents are shared, not copied:
// a captured state points at the cut cache's own immutable parents,
// and a decoded one holds graphs no caller has validated yet (see
// RestoreCuts).
type CutsState struct {
	Parents []*graph.Graph
	Cuts    []CutState
}

// CutState is one cut-cache entry: parent (by index into
// CutsState.Parents) + position + granularity + head.
type CutState struct {
	// Scope is a wire field from when cut-cache entries were keyed by
	// device. CaptureCuts writes it as 0 and RestoreCuts ignores it, so
	// a file written either way restores every cut into the one
	// namespace.
	Scope     uint64
	Parent    int
	At        int
	Blockwise bool
	Head      trim.HeadSpec
}

// Encode writes f as a versioned, checksummed binary snapshot. Equal
// Files produce equal bytes.
func Encode(w io.Writer, f *File) error {
	_, err := w.Write(encodeSections(f.sections()))
	return err
}

// Decode reads and validates a snapshot: magic, schema version and
// both checksum layers gate the parse, so a stale, foreign or corrupt
// file is a structured error before any of its content is trusted.
// Frames decode concurrently (width par.Workers); results and errors
// are the same at every width. Callers then match the planner identity
// fields themselves. A reader that can Stat itself (an *os.File) is
// read into one buffer of its size instead of a doubling one.
func Decode(r io.Reader) (*File, error) {
	var buf bytes.Buffer
	if f, ok := r.(interface{ Stat() (fs.FileInfo, error) }); ok {
		if fi, err := f.Stat(); err == nil && fi.Size() > 0 {
			buf.Grow(int(fi.Size()) + bytes.MinRead)
		}
	}
	if _, err := buf.ReadFrom(r); err != nil {
		return nil, fmt.Errorf("persist: reading snapshot: %w", err)
	}
	return DecodeBytes(buf.Bytes())
}

// DecodeBytes is Decode over an in-memory snapshot (the fuzz target).
func DecodeBytes(raw []byte) (*File, error) {
	frames, err := splitFrames(raw)
	if err != nil {
		return nil, err
	}
	// Frame decoding is pure (no shared state) and each section lands
	// in its position-indexed slot, so the width changes wall-clock
	// only; an error is the lowest-index frame's (the par.ForEach
	// contract).
	secs := make([]section, len(frames))
	if err := par.ForEach(len(frames), func(i int) error {
		s, err := decodeFrame(frames[i])
		if err != nil {
			return fmt.Errorf("persist: section %d: %w", i, err)
		}
		secs[i] = s
		return nil
	}); err != nil {
		return nil, err
	}
	return assemble(secs)
}

// CaptureCuts snapshots the process-wide cut cache as cut coordinates,
// deduplicating parent graphs by structural fingerprint in
// first-appearance order.
func CaptureCuts() CutsState {
	recs := trim.SnapshotCuts()
	var cs CutsState
	index := make(map[uint64]int)
	for _, r := range recs {
		pi, ok := index[r.ParentPrint]
		if !ok {
			pi = len(cs.Parents)
			index[r.ParentPrint] = pi
			cs.Parents = append(cs.Parents, r.Parent)
		}
		cs.Cuts = append(cs.Cuts, CutState{
			Parent:    pi,
			At:        r.At,
			Blockwise: r.Blockwise,
			Head:      r.Head,
		})
	}
	return cs
}

// RestoreCuts re-executes snapshotted cuts through the public trim
// path, repopulating the process-wide cut cache. Every parent a cut
// references must pass graph.Validate (a decoded snapshot's graphs
// were checked and sealed by the decoder, so only an unsealed parent
// is validated here), and every record is validated before any cut is
// replayed, so a rejected cut section leaves the cache untouched.
// Records that differ only in Scope land on one entry.
//
// Cut building fans out over par.ForEach with position-indexed slots;
// insertion into the cut cache stays serial in snapshot order, so the
// cache's per-shard recency — and with it the save/load/save byte
// identity — is exactly what a serial replay would have produced.
func RestoreCuts(cs CutsState) error {
	checked := make([]bool, len(cs.Parents))
	recs := make([]trim.CutRecord, len(cs.Cuts))
	for i, c := range cs.Cuts {
		if c.Parent < 0 || c.Parent >= len(cs.Parents) {
			return fmt.Errorf("persist: cut %d references parent %d of %d", i, c.Parent, len(cs.Parents))
		}
		parent := cs.Parents[c.Parent]
		if !checked[c.Parent] && !parent.Sealed() {
			if err := graph.Validate(parent); err != nil {
				return fmt.Errorf("persist: cut parent %d: %w", c.Parent, err)
			}
		}
		checked[c.Parent] = true
		recs[i] = trim.CutRecord{
			Parent:    parent,
			At:        c.At,
			Blockwise: c.Blockwise,
			Head:      c.Head,
		}
		if err := trim.CheckCut(recs[i]); err != nil {
			return fmt.Errorf("persist: cut %d: %w", i, err)
		}
	}

	// Build every cut concurrently into its slot, then insert serially
	// in snapshot order to preserve the cache's recency ordering.
	trns := make([]*trim.TRN, len(recs))
	if err := par.ForEach(len(recs), func(j int) error {
		trn, err := trim.BuildCut(recs[j])
		if err != nil {
			return fmt.Errorf("persist: replaying cut %d: %w", j, err)
		}
		trns[j] = trn
		return nil
	}); err != nil {
		return err
	}
	for j := range recs {
		trim.InsertCut(recs[j], trns[j])
	}
	return nil
}
