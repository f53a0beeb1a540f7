package serve

import (
	"fmt"
	"io"

	"netcut/internal/device"
	"netcut/internal/par"
	"netcut/internal/persist"
	"netcut/internal/profiler"
)

// Warm-state persistence: SaveState serializes a planner's (or pool's)
// cache layers — device kernel plans, profiler measurements and tables,
// and the process-wide cut cache, which is device-independent — and
// LoadState restores them into a fresh process, so a
// daemon restart resumes on the warm path instead of re-measuring its
// whole working set.
//
// A snapshot has one in-memory form, persist.File: SaveState captures
// one (capture) and writes it with persist.Encode, and LoadState reads
// one with persist.Decode and applies it (restore). Decode splits the
// file into per-section frames and decodes them concurrently, and
// restore prepares the matched planners' states in parallel; both
// change wall-clock only — results land in position-indexed slots and
// are applied in registration order.
//
// Trust model: a snapshot is only ever applied to a planner whose
// identity matches the one that wrote it — same device name, same
// calibration fingerprint, same seed, same measurement protocol. Any
// mismatch is persist.ErrStateMismatch and the caches stay empty (and
// fully functional: every layer rebuilds on demand). This is what makes
// restore-equals-recompute exact: cached values are pure functions of
// (seed, protocol, calibration, structure), so once those match, a
// restored entry is byte-identical to the one a fresh computation would
// produce — the contract TestPlannerRestoreMatchesRecompute pins.
//
// Not persisted (each regenerates deterministically on demand): the
// name->structure admission bindings (re-admitted per request), the
// transfer simulator's generic profiles (pure functions of name and
// layer count), and the lazily trained analytical/linear estimator
// models (retrained from the zoo samples, which the restored
// measurement caches make cheap).

// state captures one planner's entry of a snapshot file.
func (p *Planner) state() persist.PlannerState {
	return persist.PlannerState{
		Device:       p.cfg.Device.Name,
		Calibration:  p.dev.Fingerprint(),
		Seed:         p.cfg.Seed,
		WarmupRuns:   p.cfg.Protocol.WarmupRuns,
		TimedRuns:    p.cfg.Protocol.TimedRuns,
		Plans:        p.dev.SnapshotPlans(),
		Measurements: p.prof.SnapshotMeasurements(),
		Tables:       p.prof.SnapshotTables(),
	}
}

// matches reports whether a snapshot's planner state was written by a
// planner with this planner's identity.
func (p *Planner) matches(s *persist.PlannerState) bool {
	return s.Device == p.cfg.Device.Name &&
		s.Calibration == p.dev.Fingerprint() &&
		s.Seed == p.cfg.Seed &&
		s.WarmupRuns == p.cfg.Protocol.WarmupRuns &&
		s.TimedRuns == p.cfg.Protocol.TimedRuns
}

// preparedState is a planner state decoded and validated but not yet
// applied. The prepare/apply split is what makes LoadState
// all-or-nothing: every matched state of a snapshot is prepared (each
// entry built and validated exactly once) before any is applied, so a
// rejected snapshot — even one whose damage sits in its last entry —
// leaves every cache untouched and the planner fully functional on the
// cold path.
type preparedState struct {
	plans        device.PreparedPlans
	measurements profiler.PreparedMeasurements
	tables       profiler.PreparedTables
}

func prepareState(s *persist.PlannerState) (ps preparedState, err error) {
	if ps.plans, err = device.PreparePlans(s.Plans); err != nil {
		return ps, err
	}
	if ps.measurements, err = profiler.PrepareMeasurements(s.Measurements); err != nil {
		return ps, err
	}
	ps.tables, err = profiler.PrepareTables(s.Tables)
	return ps, err
}

// applyPrepared restores a prepared state; it cannot fail.
func (p *Planner) applyPrepared(ps preparedState) {
	p.dev.RestorePlans(ps.plans)
	p.prof.RestoreMeasurements(ps.measurements)
	p.prof.RestoreTables(ps.tables)
}

// SaveState writes the planner's warm state as a versioned snapshot.
// Safe to call while serving: each cache is captured atomically, so a
// concurrent request at worst lands in or misses the snapshot — either
// way every entry written is valid.
func (p *Planner) SaveState(w io.Writer) error {
	return persist.Encode(w, capture([]*Planner{p}))
}

// LoadState restores a snapshot written by SaveState (or by a pool
// containing this planner's device). Decode failures and identity
// mismatches are structured errors — branch with errors.Is on
// persist.ErrVersionMismatch / ErrChecksumMismatch / ErrStateMismatch —
// and leave the planner fully functional on the cold path.
func (p *Planner) LoadState(r io.Reader) error {
	return restore(r, []*Planner{p})
}

// capture captures the warm state of planners, in order, plus the
// whole cut cache, which every device shares.
func capture(planners []*Planner) *persist.File {
	f := &persist.File{Seed: planners[0].cfg.Seed, Cuts: persist.CaptureCuts()}
	for _, p := range planners {
		f.Planners = append(f.Planners, p.state())
	}
	return f
}

// restore decodes a snapshot and applies it to planners: each restores
// the first planner state written with its identity, and a planner the
// snapshot does not hold starts cold. A snapshot matching none of them
// is ErrStateMismatch. Every matched state — and every cut — is
// validated before any is applied, so a rejected snapshot leaves every
// cache untouched.
func restore(r io.Reader, planners []*Planner) error {
	f, err := persist.Decode(r)
	if err != nil {
		return err
	}
	type match struct {
		planner *Planner
		state   *persist.PlannerState
	}
	var matches []match
	for _, p := range planners {
		for i := range f.Planners {
			if p.matches(&f.Planners[i]) {
				matches = append(matches, match{p, &f.Planners[i]})
				break
			}
		}
	}
	if len(matches) == 0 {
		ids := make([]string, len(planners))
		for i, p := range planners {
			ids[i] = fmt.Sprintf("%s(calibration %016x, seed %d, protocol %d/%d)", p.cfg.Device.Name,
				p.dev.Fingerprint(), p.cfg.Seed, p.cfg.Protocol.WarmupRuns, p.cfg.Protocol.TimedRuns)
		}
		return fmt.Errorf("serve: %w: snapshot holds %s, planners here are %v",
			persist.ErrStateMismatch, snapshotIdentity(f), ids)
	}
	// Prepare every matched state concurrently into its slot —
	// preparation is pure validation + entry building, so parallelism
	// changes wall-clock only and the lowest-index state's error is
	// what a serial walk would have reported.
	preps := make([]preparedState, len(matches))
	if err := par.ForEach(len(matches), func(i int) error {
		ps, err := prepareState(matches[i].state)
		if err != nil {
			return err
		}
		preps[i] = ps
		return nil
	}); err != nil {
		return err
	}
	// Cuts replay through the public trim path into the process-wide
	// cache; RestoreCuts validates every record before replaying any,
	// and runs before the planner caches fill, so a bad cut section
	// rejects the snapshot with every cache untouched.
	if err := persist.RestoreCuts(f.Cuts); err != nil {
		return err
	}
	for i, m := range matches {
		m.planner.applyPrepared(preps[i])
	}
	return nil
}

func snapshotIdentity(f *persist.File) string {
	if len(f.Planners) == 0 {
		return "no planner sections"
	}
	names := make([]string, 0, len(f.Planners))
	for _, s := range f.Planners {
		names = append(names, fmt.Sprintf("%s(seed %d)", s.Device, s.Seed))
	}
	return fmt.Sprint(names)
}

// SaveState writes the pool's warm state — one planner state per
// registered device, in registration order, plus the cut cache — as
// one snapshot.
func (pp *PlannerPool) SaveState(w io.Writer) error {
	return persist.Encode(w, capture(pp.all()))
}

// LoadState restores a pool snapshot: every registered device restores
// its matching planner state. A snapshot containing none of the pool's
// devices is ErrStateMismatch; states for devices this pool does not
// serve are skipped (their cache entries would be unreachable here),
// and registered devices absent from the snapshot simply start cold.
func (pp *PlannerPool) LoadState(r io.Reader) error {
	return restore(r, pp.all())
}

// all lists the pool's planners in registration order.
func (pp *PlannerPool) all() []*Planner {
	planners := make([]*Planner, len(pp.names))
	for i, name := range pp.names {
		planners[i] = pp.planners[name]
	}
	return planners
}
