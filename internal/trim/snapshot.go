package trim

import (
	"fmt"

	"netcut/internal/faultinject"
	"netcut/internal/graph"
)

// Warm-state snapshot/restore of the process-wide cut cache. A TRN is
// fully determined by its cut coordinates, so snapshots do not
// serialize built TRNs (whose graphs share the parent's nodes in
// memory): each cache entry is recorded as the parent graph plus
// (position, granularity, head), and restore re-runs the cut,
// which is a pure function of those coordinates. A restored entry is
// therefore byte-identical to a recomputed one by construction; the
// snapshot saves the caller only the parent graphs and the work of
// rediscovering which cuts were hot. The persistence layer
// (internal/persist) dedupes parents by fingerprint on the wire.

// CutRecord is the cut-coordinate form of one cut-cache entry.
type CutRecord struct {
	// Parent is the graph the cut was taken from; ParentPrint its
	// structural fingerprint (the cache key's parent half).
	Parent      *graph.Graph
	ParentPrint uint64
	// At is the cut position: trailing blocks removed for blockwise
	// cuts, the cut node ID for exhaustive cuts.
	At        int
	Blockwise bool
	Head      HeadSpec
}

// SnapshotCuts exports the cut cache as cut records in shard order,
// each shard least-recently-used first (the lru snapshot order), so a
// replay through RestoreCut reproduces contents and per-shard recency.
func SnapshotCuts() []CutRecord {
	entries := cutCache.Snapshot()
	out := make([]CutRecord, 0, len(entries))
	for _, e := range entries {
		out = append(out, CutRecord{
			Parent:      e.Val.Parent,
			ParentPrint: e.Key.parent,
			At:          e.Key.at,
			Blockwise:   e.Key.blockwise,
			Head:        e.Key.head,
		})
	}
	return out
}

// CheckCut validates a cut record's coordinates against its parent —
// the same head-spec, cut-range and head-layer checks the cut path
// applies — without building anything or touching the cache, so a
// restoring layer can validate every record of a snapshot before
// replaying any of them.
func CheckCut(rec CutRecord) error {
	if err := rec.Head.validate(); err != nil {
		return err
	}
	if rec.Blockwise {
		if nb := rec.Parent.BlockCount(); rec.At < 0 || rec.At > nb {
			return fmt.Errorf("trim: cutpoint %d out of range [0,%d] for %s", rec.At, nb, rec.Parent.Name)
		}
		return nil
	}
	if rec.At <= 0 || rec.At >= len(rec.Parent.Nodes) {
		return fmt.Errorf("trim: node %d out of range for %s", rec.At, rec.Parent.Name)
	}
	if rec.Parent.Nodes[rec.At].Head {
		return fmt.Errorf("trim: node %d of %s is a head layer", rec.At, rec.Parent.Name)
	}
	return nil
}

// RestoreCut re-executes one snapshotted cut against its (decoded)
// parent graph and caches the result — the restore half of
// SnapshotCuts. It is exactly the public cut path, so every validation
// (head spec, cut range, head-layer exclusion) applies and a record
// that no longer cuts cleanly is a structured error, never a poisoned
// cache entry.
func RestoreCut(rec CutRecord) error {
	var err error
	if rec.Blockwise {
		_, err = Cut(rec.Parent, rec.At, rec.Head)
	} else {
		_, err = CutAtNode(rec.Parent, rec.At, rec.Head)
	}
	return err
}

// BuildCut is the build half of RestoreCut: it runs the same fault
// site and validations and computes the TRN, but never touches the cut
// cache. A parallel restore builds many cuts concurrently with BuildCut
// and then inserts them serially with InsertCut, so the cache's
// per-shard recency order is exactly what serial replay would produce.
func BuildCut(rec CutRecord) (*TRN, error) {
	faultinject.Panic(faultinject.TrimPanic, rec.Parent.Name)
	if err := rec.Head.validate(); err != nil {
		return nil, err
	}
	if rec.Blockwise {
		return cutBlocks(rec.Parent, rec.At, rec.Head)
	}
	return cutAtNode(rec.Parent, rec.At, rec.Head)
}

// InsertCut caches a TRN built by BuildCut under its record's
// coordinates — the insert half of the parallel-restore split.
func InsertCut(rec CutRecord, trn *TRN) {
	cutCache.Add(cutKey{
		parent:    graph.Fingerprint(rec.Parent),
		at:        rec.At,
		blockwise: rec.Blockwise,
		head:      rec.Head,
	}, trn)
}
