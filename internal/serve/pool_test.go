package serve

import (
	"errors"
	"math"
	"testing"

	"netcut/internal/device"
	"netcut/internal/telemetry"
	"netcut/internal/trim"
)

func quickPool(t *testing.T, seed int64, devs ...device.Config) *PlannerPool {
	t.Helper()
	pp, err := NewPool(PoolConfig{
		Base:    Config{Seed: seed, Protocol: quickProto},
		Devices: devs,
	})
	if err != nil {
		t.Fatal(err)
	}
	return pp
}

// TestPoolCrossDeviceCacheIsolation pins what a pool shares across
// devices: the same graph+seed planned against two registered devices
// returns different measured latencies from per-device plan,
// measurement and table caches, while the cuts, which do not depend on
// the device, are shared — the second device hits the first device's
// cuts and answers exactly as it does with a cold cut cache. A repeat
// on one device stays a warm cache hit.
func TestPoolCrossDeviceCacheIsolation(t *testing.T) {
	trim.PurgeCutCache()
	t.Cleanup(trim.PurgeCutCache)
	pp := quickPool(t, 7, device.Xavier(), device.ServerGPU())
	g := userNet(0)
	req := Request{Graph: g, DeadlineMs: 0.35}

	ra, err := pp.Select("sim-xavier", req)
	if err != nil {
		t.Fatal(err)
	}
	cutsAfterA := trim.CutCacheStats()
	rb, err := pp.Select("sim-server-gpu", req)
	if err != nil {
		t.Fatal(err)
	}
	cutsAfterB := trim.CutCacheStats()

	if ra.Device != "sim-xavier" || rb.Device != "sim-server-gpu" {
		t.Fatalf("responses name devices %q/%q", ra.Device, rb.Device)
	}
	if ra.MeasuredMs == rb.MeasuredMs {
		t.Fatalf("two calibrations measured identical latency %v ms", ra.MeasuredMs)
	}
	// Shared cuts: the second device's pass hits the first device's
	// entries and so misses fewer cuts than it does on its own.
	trim.PurgeCutCache()
	fresh := quickPool(t, 7, device.Xavier(), device.ServerGPU())
	cold := trim.CutCacheStats()
	rbCold, err := fresh.Select("sim-server-gpu", req)
	if err != nil {
		t.Fatal(err)
	}
	coldMisses := trim.CutCacheStats().Misses - cold.Misses
	if responseKey(rb) != responseKey(rbCold) || rb.Device != rbCold.Device {
		t.Fatalf("second device's response depends on the first device's cuts:\nshared %+v\ncold   %+v", rb, rbCold)
	}
	if sharedMisses := cutsAfterB.Misses - cutsAfterA.Misses; sharedMisses >= coldMisses {
		t.Fatalf("second device missed %d cuts after the first device planned, %d on a cold cut cache",
			sharedMisses, coldMisses)
	}
	// Per-planner caches are independent instances with independent keys.
	pa, _ := pp.Planner("sim-xavier")
	pb, _ := pp.Planner("sim-server-gpu")
	sa, sb := pa.Stats(), pb.Stats()
	if sa.Measurements.Len == 0 || sb.Measurements.Len == 0 {
		t.Fatal("a device planned without populating its measurement cache")
	}

	// Repeats stay warm per device and reproduce the response exactly.
	ma := sa.Measurements.Hits
	ra2, err := pp.Select("sim-xavier", req)
	if err != nil {
		t.Fatal(err)
	}
	if responseKey(ra2) != responseKey(ra) || ra2.Device != ra.Device {
		t.Fatal("repeated request on one device diverged")
	}
	if pa.Stats().Measurements.Hits <= ma {
		t.Fatal("repeated request on one device was not a warm cache hit")
	}
}

// TestPoolMatchesSingleDevicePlanner pins pool determinism: for every
// registered target, the pool's response is identical to a fresh
// single-device Planner built with the same seed and calibration.
func TestPoolMatchesSingleDevicePlanner(t *testing.T) {
	pp := quickPool(t, 21) // full registry
	req := Request{Graph: userNet(1), DeadlineMs: 0.35}
	for _, name := range pp.DeviceNames() {
		got, err := pp.Select(name, Request{Graph: userNet(1), DeadlineMs: 0.35})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		cfg, err := device.ProfileByName(name)
		if err != nil {
			t.Fatal(err)
		}
		solo, err := New(Config{Seed: 21, Protocol: quickProto, Device: &cfg})
		if err != nil {
			t.Fatal(err)
		}
		want, err := solo.Select(req)
		if err != nil {
			t.Fatal(err)
		}
		if responseKey(got) != responseKey(want) || got.Device != want.Device {
			t.Fatalf("%s: pool response diverges from single-device planner:\npool %+v\nsolo %+v",
				name, got, want)
		}
	}
}

// TestPoolBoundsArePerPool pins the cap-splitting rule: the pool-wide
// budget is divided across targets, not multiplied by them.
func TestPoolBoundsArePerPool(t *testing.T) {
	pp := quickPool(t, 1, device.Xavier(), device.EdgeCPU())
	for _, name := range pp.DeviceNames() {
		p, _ := pp.Planner(name)
		s := p.Stats()
		if want := device.DefaultPlanCacheCap / 2; s.Plans.Cap != want {
			t.Fatalf("%s plan cache cap %d, want %d (pool default / devices)", name, s.Plans.Cap, want)
		}
	}
	// Explicit totals divide too; negative stays unbounded.
	pp2, err := NewPool(PoolConfig{
		Base:    Config{Protocol: quickProto, PlanCacheCap: 64, MeasurementCacheCap: -1},
		Devices: []device.Config{device.Xavier(), device.EdgeCPU()},
	})
	if err != nil {
		t.Fatal(err)
	}
	p, _ := pp2.Planner("sim-edge-cpu")
	if s := p.Stats(); s.Plans.Cap != 32 || s.Measurements.Cap != 0 {
		t.Fatalf("caps %d/%d, want 32 plan cap and unbounded measurements", s.Plans.Cap, s.Measurements.Cap)
	}
}

// TestPoolConfigErrors pins the structured-error boundary: bad device
// profiles, duplicates and unknown lookups are errors, never panics.
func TestPoolConfigErrors(t *testing.T) {
	bad := device.Xavier()
	bad.MemBandwidth = -4
	if _, err := NewPool(PoolConfig{Devices: []device.Config{bad}}); err == nil {
		t.Fatal("invalid device profile accepted")
	}
	if _, err := NewPool(PoolConfig{Devices: []device.Config{device.Xavier(), device.Xavier()}}); err == nil {
		t.Fatal("duplicate device accepted")
	}
	pp := quickPool(t, 1, device.Xavier())
	if _, err := pp.Planner("sim-quantum"); !errors.Is(err, ErrUnknownDevice) {
		t.Fatalf("unknown device lookup: %v", err)
	}
	if _, err := pp.Select("sim-quantum", Request{Graph: userNet(0)}); !errors.Is(err, ErrUnknownDevice) {
		t.Fatalf("unknown device select: %v", err)
	}
}

// TestPoolRoute pins auto-routing: deterministic cold-start pick,
// fastest-qualifying selection once estimates exist, and the
// no-qualifier outcome carrying a retry hint.
func TestPoolRoute(t *testing.T) {
	pp := quickPool(t, 3, device.Xavier(), device.EdgeCPU())

	// Cold start: no estimates anywhere, first registered target wins.
	name, est, ok := pp.Route(0.5, 0, 1, nil)
	if !ok || name != "sim-xavier" || est != 0 {
		t.Fatalf("cold route = (%q, %v, %v), want deterministic first device", name, est, ok)
	}

	// Warm one device so it has a real (positive) estimate; the other
	// stays unmeasured (estimate 0) and must win the fastest ranking.
	reg := telemetry.NewRegistry()
	pp.Instrument(reg)
	req := Request{Graph: userNet(2), DeadlineMs: 0.35}
	pa, _ := pp.Planner("sim-xavier")
	for i := 0; i < 3; i++ {
		if _, err := pa.Select(req); err != nil {
			t.Fatal(err)
		}
	}
	p99, samples := pa.WarmQuantile(0.99)
	if samples == 0 || p99 <= 0 {
		t.Fatalf("warm histogram empty after repeats: %v/%d", p99, samples)
	}
	if name, _, ok := pp.Route(0, 0, 1, nil); !ok || name != "sim-edge-cpu" {
		t.Fatalf("route = %q, want the unmeasured device ranked fastest", name)
	}
	// A budget below the measured device's p99 disqualifies it; the
	// unmeasured device still qualifies.
	if name, _, ok := pp.Route(p99/1e6, 0, 1, nil); !ok || name != "sim-edge-cpu" {
		t.Fatalf("tiny-budget route = (%q, %v)", name, ok)
	}
	// With a huge min-sample threshold every estimate reads 0 again.
	if name, _, ok := pp.Route(p99/1e6, 0, 1<<40, nil); !ok || name != "sim-xavier" {
		t.Fatalf("high-threshold route = (%q, %v), want first device", name, ok)
	}

	// Once every device has a real estimate, an impossible budget
	// qualifies none: ok is false and the hint carries the pool's
	// fastest estimate for the client's retry.
	pb, _ := pp.Planner("sim-edge-cpu")
	for i := 0; i < 3; i++ {
		if _, err := pb.Select(req); err != nil {
			t.Fatal(err)
		}
	}
	minP99, _ := pa.WarmQuantile(0.99)
	if b99, _ := pb.WarmQuantile(0.99); b99 < minP99 {
		minP99 = b99
	}
	name, hint, ok := pp.Route(minP99/1e6, 0, 1, nil)
	if ok {
		t.Fatalf("impossible budget routed to %q", name)
	}
	if hint != minP99 {
		t.Fatalf("retry hint %v, want pool minimum estimate %v", hint, minP99)
	}
}

// TestPoolRouteEligibility pins the health filter: an ineligible
// device is skipped by auto routing even when it would rank fastest,
// and an empty eligible set reports no qualifier with an infinite
// hint.
func TestPoolRouteEligibility(t *testing.T) {
	pp := quickPool(t, 4, device.Xavier(), device.EdgeCPU())

	only := func(want string) func(string) bool {
		return func(name string) bool { return name == want }
	}
	// Cold start normally picks the first registered device; filtering
	// it out must hand the route to the next one.
	if name, _, ok := pp.Route(0, 0, 1, only("sim-edge-cpu")); !ok || name != "sim-edge-cpu" {
		t.Fatalf("filtered route = (%q, %v), want sim-edge-cpu", name, ok)
	}
	// Nothing eligible: no qualifier, +Inf hint.
	name, hint, ok := pp.Route(0, 0, 1, func(string) bool { return false })
	if ok {
		t.Fatalf("empty eligible set routed to %q", name)
	}
	if !math.IsInf(hint, 1) {
		t.Fatalf("empty eligible set hint = %v, want +Inf", hint)
	}
}
