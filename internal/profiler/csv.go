package profiler

import (
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"strconv"

	"netcut/internal/graph"
)

// WriteCSV dumps the per-layer table as CSV (node_id, name, kind,
// mean_ms), with a trailing summary row carrying the end-to-end mean —
// the interchange format cmd/netprof and downstream tooling share.
func (t *Table) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"node_id", "name", "kind", "mean_ms"}); err != nil {
		return fmt.Errorf("profiler: csv header: %w", err)
	}
	for _, l := range t.Layers {
		rec := []string{
			strconv.Itoa(l.NodeID),
			l.Name,
			l.Kind.String(),
			strconv.FormatFloat(l.MeanMs, 'f', 6, 64),
		}
		if err := cw.Write(rec); err != nil {
			return fmt.Errorf("profiler: csv row: %w", err)
		}
	}
	if err := cw.Write([]string{"-1", "end_to_end", "", strconv.FormatFloat(t.EndToEndMs, 'f', 6, 64)}); err != nil {
		return fmt.Errorf("profiler: csv summary: %w", err)
	}
	cw.Flush()
	return cw.Error()
}

// ReadCSV parses a table written by WriteCSV, rebuilding every row
// field, so lookups by node ID, Eq. (1) sums and a re-written CSV match
// the original table. It rejects tables Eq. (1) could not use: a
// repeated node ID (SumMs would count it twice), an unknown kind, and a
// latency that is NaN, infinite or negative.
func ReadCSV(network string, r io.Reader) (*Table, error) {
	cr := csv.NewReader(r)
	rows, err := cr.ReadAll()
	if err != nil {
		return nil, fmt.Errorf("profiler: csv read: %w", err)
	}
	if len(rows) < 2 {
		return nil, fmt.Errorf("profiler: csv too short")
	}
	t := &Table{Network: network, byID: map[int]int{}}
	for _, rec := range rows[1:] {
		if len(rec) != 4 {
			return nil, fmt.Errorf("profiler: csv row has %d fields", len(rec))
		}
		id, err := strconv.Atoi(rec[0])
		if err != nil {
			return nil, fmt.Errorf("profiler: csv node id %q: %w", rec[0], err)
		}
		ms, err := strconv.ParseFloat(rec[3], 64)
		if err != nil {
			return nil, fmt.Errorf("profiler: csv latency %q: %w", rec[3], err)
		}
		if math.IsNaN(ms) || math.IsInf(ms, 0) || ms < 0 {
			return nil, fmt.Errorf("profiler: csv node %d: latency %v is not a finite non-negative value", id, ms)
		}
		if id == -1 {
			t.EndToEndMs = ms
			continue
		}
		if _, dup := t.byID[id]; dup {
			return nil, fmt.Errorf("profiler: csv node %d appears twice", id)
		}
		kind, ok := graph.ParseOpKind(rec[2])
		if !ok {
			return nil, fmt.Errorf("profiler: csv node %d: unknown kind %q", id, rec[2])
		}
		t.byID[id] = len(t.Layers)
		t.Layers = append(t.Layers, LayerStat{NodeID: id, Name: rec[1], Kind: kind, MeanMs: ms})
	}
	if t.EndToEndMs == 0 {
		return nil, fmt.Errorf("profiler: csv missing end_to_end summary row")
	}
	return t, nil
}
