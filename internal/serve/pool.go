package serve

import (
	"errors"
	"fmt"
	"math"

	"netcut/internal/device"
	"netcut/internal/profiler"
	"netcut/internal/telemetry"
)

// PlannerPool is the multi-target planning service: one Planner per
// registered device calibration, all built from one base Config (same
// seed, protocol, head), behind a single façade. Every planner keeps
// the repository's invariants — responses from the pool are
// byte-identical to a single-device Planner built with the same seed
// and device — while the caches stay device-isolated: plan keys,
// measurement/table memos and cut-cache entries all fold in the
// device-calibration fingerprint, so no two targets share an entry.
//
// Cache bounding is per pool, not per device: the configured (or
// default) caps are a pool-wide budget divided evenly across the
// registered targets, so registering more devices re-slices memory
// instead of multiplying it.
type PlannerPool struct {
	names    []string // registration order: the routing tie-break order
	planners map[string]*Planner
}

// PoolConfig parameterizes a PlannerPool.
type PoolConfig struct {
	// Base is the per-planner template: seed, protocol, head, train
	// fraction, and the pool-wide cache caps (divided across devices).
	// Base.Device is ignored; targets come from Devices.
	Base Config
	// Devices lists the target calibrations, in the order routing
	// tie-breaks on. Empty registers the full device registry
	// (device.Profiles), Xavier first.
	Devices []device.Config
}

// ErrUnknownDevice is the lookup failure for an unregistered target
// name; callers branch on it with errors.Is (the gateway maps it to a
// 400).
var ErrUnknownDevice = errors.New("unknown device")

// splitCap divides a pool-wide cache budget across n planners:
// 0 resolves to the layer default first, negative stays unbounded, and
// every planner gets at least one entry. The result is expressed in
// the Config cap convention (negative = unbounded).
func splitCap(v, def, n int) int {
	total := capOrDefault(v, def)
	if total <= 0 {
		return -1
	}
	per := total / n
	if per < 1 {
		per = 1
	}
	return per
}

// NewPool builds one Planner per device. A device profile that fails
// validation — or a duplicate/empty name — is a structured constructor
// error naming the device, never a panic.
func NewPool(cfg PoolConfig) (*PlannerPool, error) {
	devs := cfg.Devices
	if len(devs) == 0 {
		devs = device.Profiles()
	}
	n := len(devs)
	pool := &PlannerPool{planners: make(map[string]*Planner, n)}
	for i := range devs {
		d := devs[i]
		if d.Name == "" {
			return nil, fmt.Errorf("serve: pool device %d has no name", i)
		}
		if _, dup := pool.planners[d.Name]; dup {
			return nil, fmt.Errorf("serve: duplicate pool device %q", d.Name)
		}
		pc := cfg.Base
		pc.Device = &d
		pc.PlanCacheCap = splitCap(cfg.Base.PlanCacheCap, device.DefaultPlanCacheCap, n)
		pc.MeasurementCacheCap = splitCap(cfg.Base.MeasurementCacheCap, profiler.DefaultMeasurementCacheCap, n)
		pc.TableCacheCap = splitCap(cfg.Base.TableCacheCap, profiler.DefaultTableCacheCap, n)
		// The cut cache is process-wide and device-independent (one
		// namespace, one cap), so Base.CutCacheCap passes through
		// unchanged: each planner re-applies the same value, which is
		// idempotent.
		p, err := New(pc)
		if err != nil {
			// serve.New already names the failing device; adding a pool
			// prefix here would print it twice.
			return nil, err
		}
		pool.names = append(pool.names, d.Name)
		pool.planners[d.Name] = p
	}
	return pool, nil
}

// DeviceNames lists the registered targets in registration order.
func (pp *PlannerPool) DeviceNames() []string {
	return append([]string(nil), pp.names...)
}

// Devices lists the registered calibrations in registration order.
func (pp *PlannerPool) Devices() []device.Config {
	out := make([]device.Config, len(pp.names))
	for i, name := range pp.names {
		out[i] = pp.planners[name].DeviceConfig()
	}
	return out
}

// Planner returns the planner for a registered target name.
func (pp *PlannerPool) Planner(name string) (*Planner, error) {
	p, ok := pp.planners[name]
	if !ok {
		return nil, fmt.Errorf("serve: %w %q (registered: %v)", ErrUnknownDevice, name, pp.names)
	}
	return p, nil
}

// Default returns the first registered target's planner — the target
// requests without an explicit device route to.
func (pp *PlannerPool) Default() *Planner { return pp.planners[pp.names[0]] }

// Select resolves a target name ("" means the default device) and
// plans the request on that device's planner.
func (pp *PlannerPool) Select(target string, req Request) (*Response, error) {
	if target == "" {
		return pp.Default().Select(req)
	}
	p, err := pp.Planner(target)
	if err != nil {
		return nil, err
	}
	return p.Select(req)
}

// Route picks the serving target for an auto-routed request: the
// fastest device — by estimated warm-path latency, the p99 of its warm
// execution histogram plus the caller's fixed per-request overheadMs
// (the gateway passes its BatchWindow) — whose estimate fits the
// client's budget. Devices whose histogram holds fewer than minSamples
// warm executions estimate as 0 ("unmeasured, assume fast"), mirroring
// the gateway's shed activation rule; they therefore both qualify and
// win the fastest-first ranking until real measurements exist, which
// is what spreads a fresh pool's first traffic instead of shedding it.
// Ties — including the all-unmeasured cold start — break on
// registration order, so routing is deterministic for a fixed
// telemetry state.
//
// eligible filters the candidate set before ranking (nil means every
// registered device): the gateway passes its per-device health check,
// so a tripped target is skipped by auto routing the same way a
// budget-failing one is. Eligibility, like the rest of routing, is
// admission policy — it moves executions, never changes results.
//
// ok reports whether any device qualified; when false, estMs carries
// the eligible set's minimum estimate as the caller's retry hint (+Inf
// when nothing was eligible at all). budgetMs <= 0 means unbudgeted:
// every eligible device qualifies and the fastest wins.
func (pp *PlannerPool) Route(budgetMs, overheadMs float64, minSamples uint64, eligible func(device string) bool) (name string, estMs float64, ok bool) {
	bestEst := math.Inf(1)
	minEst := math.Inf(1)
	for _, n := range pp.names {
		if eligible != nil && !eligible(n) {
			continue
		}
		est, samples := pp.planners[n].WarmQuantile(0.99)
		if samples < minSamples {
			est = 0
		}
		if est > 0 {
			est += overheadMs
		}
		if est < minEst {
			minEst = est
		}
		if budgetMs > 0 && est > 0 && budgetMs < est {
			continue
		}
		if est < bestEst {
			name, bestEst = n, est
		}
	}
	if name == "" {
		return "", minEst, false
	}
	return name, bestEst, true
}

// Fastest is Route without a budget: the fastest eligible device by
// estimated warm-path latency, ties broken on registration order. This
// is the deterministic fallback target for degraded serving — when a
// request opts into allow_degraded, the gateway answers from here
// instead of rejecting, and the spelling of the answer stays identical
// to an explicit request for that device. ok is false only when
// nothing was eligible.
func (pp *PlannerPool) Fastest(overheadMs float64, minSamples uint64, eligible func(device string) bool) (name string, estMs float64, ok bool) {
	return pp.Route(0, overheadMs, minSamples, eligible)
}

// Instrument registers every planner's series — each labeled with its
// device — plus the shared cut cache on reg.
func (pp *PlannerPool) Instrument(reg *telemetry.Registry) {
	for _, name := range pp.names {
		pp.planners[name].Instrument(reg)
	}
}

// Stats reports each target's request and cache counters, keyed by
// device name.
func (pp *PlannerPool) Stats() map[string]Stats {
	out := make(map[string]Stats, len(pp.names))
	for _, name := range pp.names {
		out[name] = pp.planners[name].Stats()
	}
	return out
}
