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
// The snapshot is section-granular: StateSections exposes the same
// state as independently decodable persist.Section frames, and
// LoadSections restores from any subset of them, so a future replica
// can request (and a pool can serve — SaveStateFor) exactly the
// device shard it owns instead of the whole file. SaveState/LoadState
// remain the whole-file convenience wrappers; LoadState decodes
// sections concurrently and prepares matched planner sections in
// parallel, which changes wall-clock only — results land in
// position-indexed slots and are applied in registration order.
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

// ErrStateMismatch re-exports the persist sentinel the gateway and
// daemon branch on.
var ErrStateMismatch = persist.ErrStateMismatch

// state captures one planner's section of a snapshot file.
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

// matches reports whether a snapshot section was written by a planner
// with this planner's identity.
func (p *Planner) matches(s *persist.PlannerState) bool {
	return s.Device == p.cfg.Device.Name &&
		s.Calibration == p.dev.Fingerprint() &&
		s.Seed == p.cfg.Seed &&
		s.WarmupRuns == p.cfg.Protocol.WarmupRuns &&
		s.TimedRuns == p.cfg.Protocol.TimedRuns
}

// preparedState is a section decoded and validated but not yet
// applied. The prepare/apply split is what makes LoadState
// all-or-nothing: every section of a snapshot is prepared (each entry
// built and validated exactly once) before any section is applied, so
// a rejected snapshot — even one whose damage sits in its last
// section — leaves every cache untouched and the planner fully
// functional on the cold path.
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

// applyPrepared restores a prepared section; it cannot fail.
func (p *Planner) applyPrepared(ps preparedState) {
	p.dev.RestorePlans(ps.plans)
	p.prof.RestoreMeasurements(ps.measurements)
	p.prof.RestoreTables(ps.tables)
}

// StateSections captures the planner's warm state as section frames —
// the shard a replica serving only this device would request: its
// planner sections plus the whole cut cache, since cuts do not depend
// on the device.
func (p *Planner) StateSections() []persist.Section {
	f := &persist.File{
		Seed:     p.cfg.Seed,
		Planners: []persist.PlannerState{p.state()},
		Cuts:     persist.CaptureCuts(),
	}
	return f.Sections()
}

// SaveState writes the planner's warm state as a versioned snapshot.
// Safe to call while serving: each cache is captured atomically, so a
// concurrent request at worst lands in or misses the snapshot — either
// way every entry written is valid.
func (p *Planner) SaveState(w io.Writer) error {
	return persist.WriteSections(w, p.StateSections())
}

// LoadState restores a snapshot written by SaveState (or by a pool
// containing this planner's device). Decode failures and identity
// mismatches are structured errors — branch with errors.Is on
// persist.ErrVersionMismatch / ErrChecksumMismatch / ErrStateMismatch —
// and leave the planner fully functional on the cold path.
func (p *Planner) LoadState(r io.Reader) error {
	f, err := persist.DecodeParallel(r)
	if err != nil {
		return err
	}
	return p.loadFile(f)
}

// LoadSections restores already-decoded sections — the entry point a
// replica streaming its shard section-by-section lands on.
func (p *Planner) LoadSections(secs []persist.Section) error {
	f, err := persist.FromSections(secs)
	if err != nil {
		return err
	}
	return p.loadFile(f)
}

func (p *Planner) loadFile(f *persist.File) error {
	for i := range f.Planners {
		if p.matches(&f.Planners[i]) {
			ps, err := prepareState(&f.Planners[i])
			if err != nil {
				return err
			}
			// Cuts replay through the public trim path into the
			// process-wide cache; RestoreCuts validates every record
			// before replaying any, and runs first so a bad cut section
			// rejects the snapshot before the planner caches fill.
			if err := persist.RestoreCuts(f.Cuts); err != nil {
				return err
			}
			p.applyPrepared(ps)
			return nil
		}
	}
	return fmt.Errorf(
		"serve: %w: snapshot holds %s, this planner is %s (calibration %016x, seed %d, protocol %d/%d)",
		ErrStateMismatch, snapshotIdentity(f), p.cfg.Device.Name,
		p.dev.Fingerprint(), p.cfg.Seed, p.cfg.Protocol.WarmupRuns, p.cfg.Protocol.TimedRuns)
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

// StateSections captures the warm state of the named devices (all
// registered devices when none are named) as section frames, in
// registration order, plus the whole cut cache, which every device
// shares — the shard a replica owning that device subset would
// request. Naming a device the pool does not serve is an error.
func (pp *PlannerPool) StateSections(devices ...string) ([]persist.Section, error) {
	names := pp.names
	if len(devices) > 0 {
		names = make([]string, 0, len(devices))
		for _, want := range devices {
			if _, ok := pp.planners[want]; !ok {
				return nil, fmt.Errorf("serve: no planner for device %q, pool serves %v", want, pp.names)
			}
			names = append(names, want)
		}
	}
	f := &persist.File{Seed: pp.Default().cfg.Seed, Cuts: persist.CaptureCuts()}
	for _, name := range names {
		f.Planners = append(f.Planners, pp.planners[name].state())
	}
	return f.Sections(), nil
}

// SaveState writes the pool's warm state — one section group per
// registered device, in registration order, plus the cut cache — as
// one snapshot.
func (pp *PlannerPool) SaveState(w io.Writer) error {
	return pp.SaveStateFor(w)
}

// SaveStateFor writes the named devices' shard of the pool's warm
// state (all devices when none are named) as one snapshot.
func (pp *PlannerPool) SaveStateFor(w io.Writer, devices ...string) error {
	secs, err := pp.StateSections(devices...)
	if err != nil {
		return err
	}
	return persist.WriteSections(w, secs)
}

// LoadState restores a pool snapshot: every registered device restores
// its matching section. A snapshot containing none of the pool's
// devices is ErrStateMismatch; sections for devices this pool does not
// serve are skipped (their cache entries would be unreachable here),
// and registered devices absent from the snapshot simply start cold.
// Every matched section — and every cut — is validated before any is
// applied, so a rejected snapshot leaves every cache untouched.
func (pp *PlannerPool) LoadState(r io.Reader) error {
	f, err := persist.DecodeParallel(r)
	if err != nil {
		return err
	}
	return pp.loadFile(f)
}

// LoadSections restores a pool shard from already-decoded sections.
func (pp *PlannerPool) LoadSections(secs []persist.Section) error {
	f, err := persist.FromSections(secs)
	if err != nil {
		return err
	}
	return pp.loadFile(f)
}

func (pp *PlannerPool) loadFile(f *persist.File) error {
	type match struct {
		planner *Planner
		state   *persist.PlannerState
	}
	var matches []match
	for _, name := range pp.names {
		p := pp.planners[name]
		for i := range f.Planners {
			if p.matches(&f.Planners[i]) {
				matches = append(matches, match{p, &f.Planners[i]})
				break
			}
		}
	}
	if len(matches) == 0 {
		return fmt.Errorf("serve: %w: snapshot holds %s, pool serves %v",
			ErrStateMismatch, snapshotIdentity(f), pp.names)
	}
	// Prepare every matched section concurrently into its slot —
	// preparation is pure validation + entry building, so parallelism
	// changes wall-clock only and the lowest-index section's error is
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
	if err := persist.RestoreCuts(f.Cuts); err != nil {
		return err
	}
	for i, m := range matches {
		m.planner.applyPrepared(preps[i])
	}
	return nil
}
