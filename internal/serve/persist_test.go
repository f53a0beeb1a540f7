package serve

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"runtime"
	"testing"

	"netcut/internal/device"
	"netcut/internal/persist"
	"netcut/internal/telemetry"
	"netcut/internal/trim"
	"netcut/internal/zoo"
)

// reseal recomputes a binary snapshot's envelope checksum in place, so
// damage tests can prove the per-section checksums reject a file whose
// envelope looks consistent.
func reseal(raw []byte) {
	h := fnv.New64a()
	h.Write(raw[len(persist.Magic)+9:])
	binary.LittleEndian.PutUint64(raw[len(persist.Magic)+1:], h.Sum64())
}

// warmRequests is the request mix the persistence tests warm planners
// with: a zoo network plus user graphs, mixed estimators.
func warmRequests(t *testing.T) []Request {
	t.Helper()
	zg, err := zoo.ByName("MobileNetV1 (0.25)")
	if err != nil {
		t.Fatal(err)
	}
	return []Request{
		{Graph: zg, DeadlineMs: 0.9, Estimator: "profiler"},
		{Graph: userNet(0), DeadlineMs: 0.35, Estimator: "profiler"},
		{Graph: userNet(1), DeadlineMs: 0.35, Estimator: "linear"},
	}
}

func mustSelectAll(t *testing.T, p *Planner, reqs []Request) [][10]interface{} {
	t.Helper()
	out := make([][10]interface{}, len(reqs))
	for i, r := range reqs {
		resp, err := p.Select(r)
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		out[i] = responseKey(resp)
	}
	return out
}

// TestPlannerRestoreMatchesRecompute pins the restore-equals-recompute
// contract across GOMAXPROCS: a planner restored from a snapshot
// returns byte-identical responses to the freshly-warmed planner that
// wrote it, and its first post-restore request executes on the warm
// path (the measurement is resident, not re-measured).
func TestPlannerRestoreMatchesRecompute(t *testing.T) {
	reqs := warmRequests(t)

	trim.PurgeCutCache()
	t.Cleanup(trim.PurgeCutCache)
	warm, err := New(Config{Seed: 5, Protocol: quickProto})
	if err != nil {
		t.Fatal(err)
	}
	want := mustSelectAll(t, warm, reqs)
	var snap bytes.Buffer
	if err := warm.SaveState(&snap); err != nil {
		t.Fatal(err)
	}

	for _, procs := range []int{1, 4} {
		t.Run(fmt.Sprintf("gomaxprocs-%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			// A fresh process: empty per-planner caches, purged cut cache.
			trim.PurgeCutCache()
			restored, err := New(Config{Seed: 5, Protocol: quickProto})
			if err != nil {
				t.Fatal(err)
			}
			reg := telemetry.NewRegistry()
			restored.Instrument(reg)
			if err := restored.LoadState(bytes.NewReader(snap.Bytes())); err != nil {
				t.Fatalf("LoadState: %v", err)
			}
			got := mustSelectAll(t, restored, reqs)
			for i := range reqs {
				if got[i] != want[i] {
					t.Fatalf("request %d: restored response %v differs from recompute %v", i, got[i], want[i])
				}
			}
			// Every request hit the warm path: the restored measurement
			// cache classified all of them as resident.
			if _, samples := restored.WarmQuantile(0.99); samples != uint64(len(reqs)) {
				t.Fatalf("warm executions = %d, want %d (restored planner must not run cold)", samples, len(reqs))
			}
		})
	}
}

// TestPlannerSnapshotRoundTripBytes pins snapshot determinism: saving a
// restored planner reproduces the original snapshot byte for byte
// (contents, order and encoding are all pure functions of cache state),
// at every parallelism width — the concurrent section decode and
// fanned-out cut replay must not perturb any persisted ordering.
func TestPlannerSnapshotRoundTripBytes(t *testing.T) {
	trim.PurgeCutCache()
	t.Cleanup(trim.PurgeCutCache)
	warm, err := New(Config{Seed: 3, Protocol: quickProto})
	if err != nil {
		t.Fatal(err)
	}
	mustSelectAll(t, warm, warmRequests(t))
	var first bytes.Buffer
	if err := warm.SaveState(&first); err != nil {
		t.Fatal(err)
	}

	for _, procs := range []int{1, 4} {
		t.Run(fmt.Sprintf("gomaxprocs-%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			trim.PurgeCutCache()
			restored, err := New(Config{Seed: 3, Protocol: quickProto})
			if err != nil {
				t.Fatal(err)
			}
			if err := restored.LoadState(bytes.NewReader(first.Bytes())); err != nil {
				t.Fatal(err)
			}
			var second bytes.Buffer
			if err := restored.SaveState(&second); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(first.Bytes(), second.Bytes()) {
				t.Fatalf("snapshot changed across save/load/save: %d -> %d bytes",
					first.Len(), second.Len())
			}
		})
	}
}

// TestPlannerLoadStateRejectsMismatch pins the never-silently-trusted
// rule: snapshots from another seed or another device calibration are
// structured ErrStateMismatch rejections, damaged files surface the
// persist sentinels, and after any rejection the planner still serves
// correctly from a cold cache.
func TestPlannerLoadStateRejectsMismatch(t *testing.T) {
	trim.PurgeCutCache()
	t.Cleanup(trim.PurgeCutCache)
	warm, err := New(Config{Seed: 1, Protocol: quickProto})
	if err != nil {
		t.Fatal(err)
	}
	reqs := warmRequests(t)
	want := mustSelectAll(t, warm, reqs)
	var snap bytes.Buffer
	if err := warm.SaveState(&snap); err != nil {
		t.Fatal(err)
	}

	otherSeed, err := New(Config{Seed: 2, Protocol: quickProto})
	if err != nil {
		t.Fatal(err)
	}
	if err := otherSeed.LoadState(bytes.NewReader(snap.Bytes())); !errors.Is(err, persist.ErrStateMismatch) {
		t.Fatalf("cross-seed load: err = %v, want ErrStateMismatch", err)
	}

	edge, err := device.ProfileByName("sim-edge-cpu")
	if err != nil {
		t.Fatal(err)
	}
	otherDev, err := New(Config{Seed: 1, Protocol: quickProto, Device: &edge})
	if err != nil {
		t.Fatal(err)
	}
	if err := otherDev.LoadState(bytes.NewReader(snap.Bytes())); !errors.Is(err, persist.ErrStateMismatch) {
		t.Fatalf("cross-device load: err = %v, want ErrStateMismatch", err)
	}

	// Same device name, different calibration: still rejected — identity
	// is the fingerprint, not the label.
	tweaked := device.Xavier()
	tweaked.MemBandwidth *= 2
	crossCal, err := New(Config{Seed: 1, Protocol: quickProto, Device: &tweaked})
	if err != nil {
		t.Fatal(err)
	}
	if err := crossCal.LoadState(bytes.NewReader(snap.Bytes())); !errors.Is(err, persist.ErrStateMismatch) {
		t.Fatalf("cross-calibration load: err = %v, want ErrStateMismatch", err)
	}

	// Damaged files: the persist sentinels pass through.
	fresh, err := New(Config{Seed: 1, Protocol: quickProto})
	if err != nil {
		t.Fatal(err)
	}
	if err := fresh.LoadState(bytes.NewReader(snap.Bytes()[:5])); !errors.Is(err, persist.ErrNotSnapshot) {
		t.Fatalf("header-truncated load: err = %v, want ErrNotSnapshot", err)
	}
	if err := fresh.LoadState(bytes.NewReader(snap.Bytes()[:snap.Len()/2])); !errors.Is(err, persist.ErrChecksumMismatch) {
		t.Fatalf("truncated load: err = %v, want ErrChecksumMismatch", err)
	}
	// Flip one byte inside a section frame and re-seal the envelope
	// checksum: the per-section checksum still rejects the file.
	corrupt := bytes.Clone(snap.Bytes())
	corrupt[len(corrupt)-20] ^= 0x01
	reseal(corrupt)
	if err := fresh.LoadState(bytes.NewReader(corrupt)); !errors.Is(err, persist.ErrChecksumMismatch) {
		t.Fatalf("corrupt load: err = %v, want ErrChecksumMismatch", err)
	}

	// Fallback: every rejection above left its planner fully functional
	// on the cold path, and results are unaffected.
	trim.PurgeCutCache()
	got := mustSelectAll(t, fresh, reqs)
	for i := range reqs {
		if got[i] != want[i] {
			t.Fatalf("request %d after rejected loads: %v != %v", i, got[i], want[i])
		}
	}
}

// TestLoadStateIsAllOrNothing pins the no-partial-apply contract: a
// snapshot with a valid envelope whose payload smuggles a non-physical
// value (checksum recomputed, the hand-edited-file threat model) is
// rejected with every cache left empty — nothing from the undamaged
// sections may have been applied.
func TestLoadStateIsAllOrNothing(t *testing.T) {
	trim.PurgeCutCache()
	t.Cleanup(trim.PurgeCutCache)
	warm, err := New(Config{Seed: 4, Protocol: quickProto})
	if err != nil {
		t.Fatal(err)
	}
	zg, err := zoo.ByName("MobileNetV1 (0.25)")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := warm.Select(Request{Graph: zg, DeadlineMs: 0.9}); err != nil {
		t.Fatal(err)
	}
	var snap bytes.Buffer
	if err := warm.SaveState(&snap); err != nil {
		t.Fatal(err)
	}

	// Decode, poison the LAST table entry (plans and measurements stay
	// valid), re-encode with a fresh checksum.
	f, err := persist.Decode(bytes.NewReader(snap.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	tables := f.Planners[0].Tables
	if len(tables) == 0 || len(tables[len(tables)-1].Layers) == 0 {
		t.Fatal("snapshot holds no table rows to poison")
	}
	tables[len(tables)-1].Layers[0].MeanMs = -1
	var poisoned bytes.Buffer
	if err := persist.Encode(&poisoned, f); err != nil {
		t.Fatal(err)
	}

	trim.PurgeCutCache()
	fresh, err := New(Config{Seed: 4, Protocol: quickProto})
	if err != nil {
		t.Fatal(err)
	}
	if err := fresh.LoadState(bytes.NewReader(poisoned.Bytes())); err == nil {
		t.Fatal("poisoned snapshot accepted")
	}
	st := fresh.Stats()
	if st.Plans.Len != 0 || st.Measurements.Len != 0 || st.Tables.Len != 0 || st.Cuts.Len != 0 {
		t.Fatalf("rejected snapshot left state behind: %+v", st)
	}
	if fresh.prof.HasMeasurement(zg) {
		t.Fatal("rejected snapshot partially applied a measurement")
	}
}

// TestLoadStateRejectsBadNodeIDs pins the node-ID rules of restored
// plans and tables: a table indexes its rows by node ID in a slice as
// long as the table, so a plan or table row with a repeated or
// out-of-range node ID is rejected at load rather than trusted.
func TestLoadStateRejectsBadNodeIDs(t *testing.T) {
	trim.PurgeCutCache()
	t.Cleanup(trim.PurgeCutCache)
	warm, err := New(Config{Seed: 4, Protocol: quickProto})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := warm.Select(Request{Graph: userNet(0), DeadlineMs: 0.3}); err != nil {
		t.Fatal(err)
	}
	var snap bytes.Buffer
	if err := warm.SaveState(&snap); err != nil {
		t.Fatal(err)
	}
	poisons := map[string]func(f *persist.File){
		"plan id out of range": func(f *persist.File) { f.Planners[0].Plans[0].RowTmpl[0][0].NodeID = 1 << 30 },
		"plan id repeated": func(f *persist.File) {
			rows := f.Planners[0].Plans[0].RowTmpl
			rows[1][0].NodeID = rows[0][0].NodeID
		},
		"table id negative":     func(f *persist.File) { f.Planners[0].Tables[0].Layers[0].NodeID = -2 },
		"table id out of range": func(f *persist.File) { f.Planners[0].Tables[0].Layers[0].NodeID = 1 << 30 },
		"table id repeated": func(f *persist.File) {
			ls := f.Planners[0].Tables[0].Layers
			ls[1].NodeID = ls[0].NodeID
		},
	}
	for name, poison := range poisons {
		f, err := persist.Decode(bytes.NewReader(snap.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		poison(f)
		var buf bytes.Buffer
		if err := persist.Encode(&buf, f); err != nil {
			t.Fatal(err)
		}
		fresh, err := New(Config{Seed: 4, Protocol: quickProto})
		if err != nil {
			t.Fatal(err)
		}
		if err := fresh.LoadState(&buf); err == nil {
			t.Errorf("%s: snapshot accepted", name)
		}
	}
}

// TestPoolStateRoundTrip pins pool-level persistence: a restored pool
// answers byte-identically to the pool that wrote the snapshot on every
// device, a subset pool restores just its own sections, and a snapshot
// with no matching section is rejected.
func TestPoolStateRoundTrip(t *testing.T) {
	trim.PurgeCutCache()
	t.Cleanup(trim.PurgeCutCache)
	devs := device.Profiles()[:3]
	mk := func(ds []device.Config) *PlannerPool {
		pool, err := NewPool(PoolConfig{Base: Config{Seed: 11, Protocol: quickProto}, Devices: ds})
		if err != nil {
			t.Fatal(err)
		}
		return pool
	}
	warm := mk(devs)
	zg, err := zoo.ByName("MobileNetV1 (0.25)")
	if err != nil {
		t.Fatal(err)
	}
	req := Request{Graph: zg, DeadlineMs: 0.9}
	want := make(map[string][10]interface{})
	for _, name := range warm.DeviceNames() {
		resp, err := warm.Select(name, req)
		if err != nil {
			t.Fatal(err)
		}
		want[name] = responseKey(resp)
	}
	var snap bytes.Buffer
	if err := warm.SaveState(&snap); err != nil {
		t.Fatal(err)
	}

	trim.PurgeCutCache()
	restored := mk(devs)
	if err := restored.LoadState(bytes.NewReader(snap.Bytes())); err != nil {
		t.Fatal(err)
	}
	for _, name := range restored.DeviceNames() {
		resp, err := restored.Select(name, req)
		if err != nil {
			t.Fatal(err)
		}
		if responseKey(resp) != want[name] {
			t.Fatalf("%s: restored pool response diverged", name)
		}
		p, err := restored.Planner(name)
		if err != nil {
			t.Fatal(err)
		}
		if !p.prof.HasMeasurement(zg) {
			t.Fatalf("%s: measurement not restored", name)
		}
	}

	// A subset pool restores only its own devices' sections.
	trim.PurgeCutCache()
	subset := mk(devs[:1])
	if err := subset.LoadState(bytes.NewReader(snap.Bytes())); err != nil {
		t.Fatalf("subset load: %v", err)
	}
	resp, err := subset.Select(devs[0].Name, req)
	if err != nil {
		t.Fatal(err)
	}
	if responseKey(resp) != want[devs[0].Name] {
		t.Fatal("subset pool response diverged")
	}

	// No overlap at all is a rejection, not a silent no-op.
	foreign := mk([]device.Config{device.Profiles()[3]})
	if err := foreign.LoadState(bytes.NewReader(snap.Bytes())); !errors.Is(err, persist.ErrStateMismatch) {
		t.Fatalf("foreign pool load: err = %v, want ErrStateMismatch", err)
	}
}

// TestPlannerRestoresFromPoolSnapshot pins the pool/planner snapshot
// interchange: a lone Planner restored from a multi-device pool's
// snapshot answers byte-identically to the pool's planner for its
// device, on the warm path, and a one-device pool writes the same
// snapshot bytes as a lone planner with the same configuration.
func TestPlannerRestoresFromPoolSnapshot(t *testing.T) {
	trim.PurgeCutCache()
	t.Cleanup(trim.PurgeCutCache)
	reqs := warmRequests(t)
	devs := device.Profiles()[:3]
	pool, err := NewPool(PoolConfig{Base: Config{Seed: 17, Protocol: quickProto}, Devices: devs})
	if err != nil {
		t.Fatal(err)
	}
	want := make(map[string][][10]interface{})
	for _, name := range pool.DeviceNames() {
		p, err := pool.Planner(name)
		if err != nil {
			t.Fatal(err)
		}
		want[name] = mustSelectAll(t, p, reqs)
	}
	var snap bytes.Buffer
	if err := pool.SaveState(&snap); err != nil {
		t.Fatal(err)
	}

	for i := range devs {
		d := devs[i]
		t.Run("restore/"+d.Name, func(t *testing.T) {
			trim.PurgeCutCache()
			lone, err := New(Config{Seed: 17, Protocol: quickProto, Device: &d})
			if err != nil {
				t.Fatal(err)
			}
			lone.Instrument(telemetry.NewRegistry())
			if err := lone.LoadState(bytes.NewReader(snap.Bytes())); err != nil {
				t.Fatalf("LoadState: %v", err)
			}
			got := mustSelectAll(t, lone, reqs)
			for j := range reqs {
				if got[j] != want[d.Name][j] {
					t.Fatalf("request %d: restored planner answered %v, pool planner %v", j, got[j], want[d.Name][j])
				}
			}
			if _, samples := lone.WarmQuantile(0.99); samples != uint64(len(reqs)) {
				t.Fatalf("warm executions = %d, want %d (restored planner must not run cold)", samples, len(reqs))
			}
		})
	}

	t.Run("one-device-pool-bytes", func(t *testing.T) {
		d := devs[1]
		trim.PurgeCutCache()
		lone, err := New(Config{Seed: 19, Protocol: quickProto, Device: &d})
		if err != nil {
			t.Fatal(err)
		}
		mustSelectAll(t, lone, reqs)
		var loneSnap bytes.Buffer
		if err := lone.SaveState(&loneSnap); err != nil {
			t.Fatal(err)
		}

		trim.PurgeCutCache()
		single, err := NewPool(PoolConfig{Base: Config{Seed: 19, Protocol: quickProto}, Devices: []device.Config{d}})
		if err != nil {
			t.Fatal(err)
		}
		for j, r := range reqs {
			if _, err := single.Select(d.Name, r); err != nil {
				t.Fatalf("request %d: %v", j, err)
			}
		}
		var poolSnap bytes.Buffer
		if err := single.SaveState(&poolSnap); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(loneSnap.Bytes(), poolSnap.Bytes()) {
			t.Fatalf("one-device pool snapshot (%d bytes) differs from the lone planner's (%d bytes)",
				poolSnap.Len(), loneSnap.Len())
		}
	})
}
