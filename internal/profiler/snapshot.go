package profiler

import (
	"fmt"
	"math"

	"netcut/internal/graph"
	"netcut/internal/lru"
)

// Warm-state snapshot/restore of the measurement and table memos.
// Measurements and tables are pure functions of (seed, protocol, device
// calibration, structure) — the caller (serve.Planner) rejects
// snapshots whose seed, protocol or calibration fingerprint do not
// match, so a restored entry is byte-identical to the one a fresh
// measurement would produce and eviction transparency carries over.

// MeasurementState is one snapshotted end-to-end measurement, keyed by
// the device-scoped plan key.
type MeasurementState struct {
	Key uint64
	// The Measurement fields, flattened for a stable wire shape.
	Network string
	MeanMs  float64
	StdMs   float64
	Runs    int
}

// TableRowState is one per-layer row of a snapshotted table.
type TableRowState struct {
	NodeID int
	Name   string
	Kind   int
	MeanMs float64
}

// TableState is one snapshotted per-layer table, keyed by the
// device-scoped plan key.
type TableState struct {
	Key        uint64
	Network    string
	EndToEndMs float64
	Layers     []TableRowState
}

// SnapshotMeasurements exports the end-to-end measurement memo in LRU
// order (least recently used first).
func (p *Profiler) SnapshotMeasurements() []MeasurementState {
	entries := p.measurements.Snapshot()
	out := make([]MeasurementState, 0, len(entries))
	for _, e := range entries {
		out = append(out, MeasurementState{
			Key:     e.Key,
			Network: e.Val.Network,
			MeanMs:  e.Val.MeanMs,
			StdMs:   e.Val.StdMs,
			Runs:    e.Val.Runs,
		})
	}
	return out
}

// PreparedMeasurements is a decoded, fully validated measurement
// section, ready to apply. The prepare/apply split lets a restoring
// layer validate every section of a snapshot before applying any of
// them while building each entry exactly once.
type PreparedMeasurements struct {
	entries []lru.Entry[uint64, Measurement]
}

// PrepareMeasurements decodes and validates snapshotted measurements
// without touching any cache.
func PrepareMeasurements(entries []MeasurementState) (PreparedMeasurements, error) {
	ms, err := buildMeasurementEntries(entries)
	return PreparedMeasurements{entries: ms}, err
}

// RestoreMeasurements applies a prepared measurement section,
// preserving recency order (cannot fail: validation happened in
// PrepareMeasurements).
func (p *Profiler) RestoreMeasurements(m PreparedMeasurements) {
	p.measurements.Restore(m.entries)
}

func buildMeasurementEntries(entries []MeasurementState) ([]lru.Entry[uint64, Measurement], error) {
	ms := make([]lru.Entry[uint64, Measurement], 0, len(entries))
	for i, e := range entries {
		if !finite(e.MeanMs) || !finite(e.StdMs) || e.MeanMs < 0 || e.StdMs < 0 || e.Runs <= 0 {
			return nil, fmt.Errorf("profiler: measurement entry %d (%s): non-physical values", i, e.Network)
		}
		ms = append(ms, lru.Entry[uint64, Measurement]{Key: e.Key, Val: Measurement{
			Network: e.Network, MeanMs: e.MeanMs, StdMs: e.StdMs, Runs: e.Runs,
		}})
	}
	return ms, nil
}

// SnapshotTables exports the per-layer table memo in LRU order.
func (p *Profiler) SnapshotTables() []TableState {
	entries := p.tables.Snapshot()
	out := make([]TableState, 0, len(entries))
	for _, e := range entries {
		ts := TableState{
			Key:        e.Key,
			Network:    e.Val.Network,
			EndToEndMs: e.Val.EndToEndMs,
			Layers:     make([]TableRowState, 0, len(e.Val.Layers)),
		}
		for _, l := range e.Val.Layers {
			ts.Layers = append(ts.Layers, TableRowState{
				NodeID: l.NodeID, Name: l.Name, Kind: int(l.Kind), MeanMs: l.MeanMs,
			})
		}
		out = append(out, ts)
	}
	return out
}

// PreparedTables is a decoded, fully validated table section (node-ID
// indexes rebuilt), ready to apply.
type PreparedTables struct {
	entries []lru.Entry[uint64, *Table]
}

// PrepareTables decodes and validates snapshotted tables without
// touching any cache.
func PrepareTables(entries []TableState) (PreparedTables, error) {
	ts, err := buildTableEntries(entries)
	return PreparedTables{entries: ts}, err
}

// RestoreTables applies a prepared table section, preserving recency
// order (cannot fail: validation happened in PrepareTables).
func (p *Profiler) RestoreTables(t PreparedTables) {
	p.tables.Restore(t.entries)
}

func buildTableEntries(entries []TableState) ([]lru.Entry[uint64, *Table], error) {
	ts := make([]lru.Entry[uint64, *Table], 0, len(entries))
	for i, e := range entries {
		if !finite(e.EndToEndMs) || e.EndToEndMs < 0 {
			return nil, fmt.Errorf("profiler: table entry %d (%s): bad end-to-end latency %v", i, e.Network, e.EndToEndMs)
		}
		tbl := &Table{
			Network:    e.Network,
			EndToEndMs: e.EndToEndMs,
			Layers:     make([]LayerStat, 0, len(e.Layers)),
		}
		for _, l := range e.Layers {
			if !finite(l.MeanMs) || l.MeanMs < 0 {
				return nil, fmt.Errorf("profiler: table entry %d (%s): node %d: bad latency %v", i, e.Network, l.NodeID, l.MeanMs)
			}
			tbl.Layers = append(tbl.Layers, LayerStat{
				NodeID: l.NodeID, Name: l.Name, Kind: graph.OpKind(l.Kind), MeanMs: l.MeanMs,
			})
		}
		if err := tbl.indexRows(); err != nil {
			return nil, fmt.Errorf("profiler: table entry %d (%s): %w", i, e.Network, err)
		}
		ts = append(ts, lru.Entry[uint64, *Table]{Key: e.Key, Val: tbl})
	}
	return ts, nil
}

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }
