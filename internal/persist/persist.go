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
// where each frame is one independently decodable section (see
// section.go for the frame layout): a length-prefixed body carrying a
// kind byte, an identity header (device, calibration fingerprint,
// seed, measurement protocol), a per-frame deduplicated string table,
// varint/fixed64-encoded records, and its own trailing FNV-1a 64
// checksum. No reflection runs in either direction — every section
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
//     section even when frames travel without the envelope.
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
// may run sections concurrently (DecodeParallel) without changing any
// of that: sections are independent, results land in position-indexed
// slots, and cut replay re-inserts serially in snapshot order.
package persist

import (
	"errors"
	"fmt"
	"io"

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

// File is the in-memory form of a whole snapshot: every planner
// section of a pool (one for a single Planner) plus the process-wide
// cut-cache state. On the wire it is a flat sequence of sections — see
// Sections and FromSections.
type File struct {
	// Seed is the base measurement/retraining seed the state was
	// produced under.
	Seed int64
	// Planners holds one section per device-keyed planner, in
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
	return WriteSections(w, f.Sections())
}

// Decode reads and validates a snapshot serially: magic, schema
// version and both checksum layers gate the parse, so a stale, foreign
// or corrupt file is a structured error before any of its content is
// trusted. Callers then match the frame identity fields themselves.
func Decode(r io.Reader) (*File, error) {
	raw, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("persist: reading snapshot: %w", err)
	}
	return DecodeBytes(raw)
}

// DecodeParallel is Decode with sections decoded concurrently (width
// par.Workers). Identical results and errors — parallelism changes
// wall-clock only.
func DecodeParallel(r io.Reader) (*File, error) {
	raw, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("persist: reading snapshot: %w", err)
	}
	return DecodeBytesParallel(raw)
}

// DecodeBytes is Decode over an in-memory snapshot (the fuzz target).
func DecodeBytes(raw []byte) (*File, error) {
	return decodeAll(raw, false)
}

// DecodeBytesParallel is DecodeParallel over an in-memory snapshot.
func DecodeBytesParallel(raw []byte) (*File, error) {
	return decodeAll(raw, true)
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
// references must pass graph.Validate, and every record — parent and
// coordinates — is validated before any cut is replayed, so a rejected
// cut section leaves the cache untouched. Records that differ only in
// Scope land on one entry.
//
// Parent validation and cut building fan out over par.ForEach with
// position-indexed slots; insertion into the cut cache stays serial in
// snapshot order, so the cache's per-shard recency — and with it the
// save/load/save byte identity — is exactly what a serial replay
// would have produced.
func RestoreCuts(cs CutsState) error {
	// Validate each referenced parent once, concurrently. order is
	// first-use order, so the lowest-index error par.ForEach reports is
	// the same parent a serial walk would have failed on first.
	seen := make(map[int]bool)
	var order []int
	for i, c := range cs.Cuts {
		if c.Parent < 0 || c.Parent >= len(cs.Parents) {
			return fmt.Errorf("persist: cut %d references parent %d of %d", i, c.Parent, len(cs.Parents))
		}
		if !seen[c.Parent] {
			seen[c.Parent] = true
			order = append(order, c.Parent)
		}
	}
	if err := par.ForEach(len(order), func(j int) error {
		if err := graph.Validate(cs.Parents[order[j]]); err != nil {
			return fmt.Errorf("persist: cut parent %d: %w", order[j], err)
		}
		return nil
	}); err != nil {
		return err
	}

	recs := make([]trim.CutRecord, len(cs.Cuts))
	for i, c := range cs.Cuts {
		recs[i] = trim.CutRecord{
			Parent:    cs.Parents[c.Parent],
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
