package device

import (
	"fmt"
	"math"

	"netcut/internal/graph"
	"netcut/internal/lru"
)

// Warm-state snapshot/restore of the fingerprint-keyed kernel-plan
// cache. Plans are pure functions of (calibration, structure), so a
// restored plan is byte-identical to the one a fresh build would
// produce; the serialization exists only to skip the rebuild cost after
// a daemon restart.

// PlanRowState is the serializable form of one fused-layer template row
// of a kernel plan.
type PlanRowState struct {
	NodeID int
	Name   string
	Kind   int
	Share  float64
}

// PlanState is the serializable form of one memoized kernel plan, keyed
// by the device-scoped plan key (calibration fingerprint folded into
// the structural graph fingerprint). SteadyMs and the row count are
// derivable from BaseMs/RowTmpl and are recomputed on restore rather
// than trusted from the snapshot.
type PlanState struct {
	Key     uint64
	BaseMs  []float64
	RowTmpl [][]PlanRowState
}

// SnapshotPlans exports the fingerprint-keyed plan cache in LRU order
// (least recently used first), for persistence across restarts.
func (d *Device) SnapshotPlans() []PlanState {
	entries := d.byPrint.Snapshot()
	out := make([]PlanState, 0, len(entries))
	for _, e := range entries {
		info := e.Val
		ps := PlanState{
			Key:     e.Key,
			BaseMs:  append([]float64(nil), info.baseMs...),
			RowTmpl: make([][]PlanRowState, len(info.rowTmpl)),
		}
		for ki, tmpl := range info.rowTmpl {
			rows := make([]PlanRowState, len(tmpl))
			for ri, r := range tmpl {
				rows[ri] = PlanRowState{NodeID: r.nodeID, Name: r.name, Kind: int(r.kind), Share: r.share}
			}
			ps.RowTmpl[ki] = rows
		}
		out = append(out, ps)
	}
	return out
}

// PreparedPlans is a decoded, fully validated plan section, ready to
// apply. Splitting prepare from apply lets a restoring layer validate
// every section of a snapshot before applying any of them — the
// all-or-nothing contract — while building each entry exactly once.
type PreparedPlans struct {
	entries []lru.Entry[uint64, *planInfo]
}

// PreparePlans decodes and validates snapshotted plans without
// touching any cache. An error means no entry of the slice should be
// trusted. The caller is responsible for matching the snapshot's
// calibration fingerprint to the target device — plan keys fold the
// calibration in, so entries restored onto the wrong device would
// simply never be hit, but rejecting the mismatch upstream keeps
// snapshots honest.
func PreparePlans(entries []PlanState) (PreparedPlans, error) {
	infos, err := buildPlanEntries(entries)
	return PreparedPlans{entries: infos}, err
}

// RestorePlans applies a prepared plan section, preserving the
// snapshot's recency order (cannot fail: validation happened in
// PreparePlans).
func (d *Device) RestorePlans(p PreparedPlans) {
	d.byPrint.Restore(p.entries)
}

func buildPlanEntries(entries []PlanState) ([]lru.Entry[uint64, *planInfo], error) {
	infos := make([]lru.Entry[uint64, *planInfo], 0, len(entries))
	for i, ps := range entries {
		if len(ps.BaseMs) != len(ps.RowTmpl) {
			return nil, fmt.Errorf("device: plan entry %d: %d kernels but %d row groups", i, len(ps.BaseMs), len(ps.RowTmpl))
		}
		info := &planInfo{
			key:     ps.Key,
			baseMs:  append([]float64(nil), ps.BaseMs...),
			rowTmpl: make([][]profRow, len(ps.RowTmpl)),
		}
		for ki, rows := range ps.RowTmpl {
			if len(rows) == 0 {
				return nil, fmt.Errorf("device: plan entry %d: kernel %d has no rows", i, ki)
			}
			tmpl := make([]profRow, len(rows))
			for ri, r := range rows {
				if !isFinite(r.Share) || r.Share < 0 {
					return nil, fmt.Errorf("device: plan entry %d: kernel %d row %d: bad MAC share %v", i, ki, ri, r.Share)
				}
				tmpl[ri] = profRow{nodeID: r.NodeID, name: r.Name, kind: graph.OpKind(r.Kind), share: r.Share}
			}
			info.rowTmpl[ki] = tmpl
			info.rows += len(rows)
		}
		// A plan has one row per non-input node, so its node IDs are
		// distinct and at most its row count; the per-layer tables
		// profiled from it index rows by node ID on that basis.
		seen := make([]bool, info.rows+1)
		for ki, tmpl := range info.rowTmpl {
			for _, r := range tmpl {
				if r.nodeID < 0 || r.nodeID > info.rows || seen[r.nodeID] {
					return nil, fmt.Errorf("device: plan entry %d: kernel %d: node %d repeated or out of range [0,%d]", i, ki, r.nodeID, info.rows)
				}
				seen[r.nodeID] = true
			}
		}
		for ki, b := range info.baseMs {
			if !isFinite(b) || b < 0 {
				return nil, fmt.Errorf("device: plan entry %d: kernel %d: bad steady-state time %v", i, ki, b)
			}
			info.steadyMs += b
		}
		infos = append(infos, lru.Entry[uint64, *planInfo]{Key: ps.Key, Val: info})
	}
	return infos, nil
}

func isFinite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }
