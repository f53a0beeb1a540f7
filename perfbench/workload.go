package main

import (
	"bytes"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"netcut/internal/serve"
	"netcut/internal/zoo"
)

// A workload is a stream plus how its server is started and warmed and
// what the timed phase must (not) do, checked from /metrics deltas.
type workload struct {
	st *stream
	// pool is the in-process reference planner pool the oracle uses.
	pool *serve.PlannerPool
	// snapshot is the prepared warm state (planner-warm only).
	snapshot []byte
}

// prepare builds what every set-up of the workload starts from. For
// planner-warm that is a snapshot of a pool that has planned every cut
// any request of the stream can accept, so all cold work of the timed
// phase moves into set-up; the same warm pool then serves as the
// oracle's reference.
func prepare(st *stream) (*workload, error) {
	pool, err := newRefPool()
	if err != nil {
		return nil, err
	}
	w := &workload{st: st, pool: pool}
	if st.name != plannerWarm {
		return w, nil
	}
	for _, est := range []string{"profiler", "analytical"} {
		for _, p := range st.pairs {
			if err := sweepCuts(pool, p, est); err != nil {
				return nil, err
			}
		}
	}
	var buf bytes.Buffer
	if err := pool.SaveState(&buf); err != nil {
		return nil, fmt.Errorf("saving prepared state: %w", err)
	}
	w.snapshot = buf.Bytes()
	return w, nil
}

// sweepCuts walks one pair's answer staircase under one estimator: it
// starts at the top of the deadline range and asks again just under
// each accepted cut's estimate, so every cut that any deadline in the
// range can select gets planned, measured and cut once.
func sweepCuts(pool *serve.PlannerPool, p pair, est string) error {
	g, err := zoo.ByName(p.Network)
	if err != nil {
		return err
	}
	for d := p.HiMs; d > 0; {
		resp, err := pool.Select(p.Device, serve.Request{Graph: g, DeadlineMs: d, Estimator: est})
		if err != nil {
			return err
		}
		if !resp.Feasible {
			return nil
		}
		d = resp.EstimatedMs * (1 - 1e-9)
	}
	return nil
}

// serverArgs are the workload's netserve flags beyond address and seed.
func (w *workload) serverArgs(statePath string) []string {
	switch w.st.name {
	case hitHeavy:
		return []string{"-prewarm"}
	case plannerWarm:
		return []string{"-state-file", statePath}
	}
	return nil
}

// setUp starts one server and runs the workload's warm-up, returning the
// server and the set-up time: exec until /readyz is 200, plus warm-up.
func (w *workload) setUp(bin, dir string, n int) (*server, time.Duration, error) {
	statePath := ""
	if w.snapshot != nil {
		// Each server gets its own copy: netserve saves its state back
		// over the file when it drains.
		statePath = filepath.Join(dir, fmt.Sprintf("state-%d.bin", n))
		if err := os.WriteFile(statePath, w.snapshot, 0o644); err != nil {
			return nil, 0, err
		}
	}
	t0 := time.Now()
	s, err := startServer(bin, w.serverArgs(statePath))
	if err != nil {
		return nil, 0, err
	}
	if err := w.warmUp(s); err != nil {
		s.kill()
		return nil, 0, err
	}
	return s, time.Since(t0), nil
}

// warmUp is the workload's set-up traffic.
func (w *workload) warmUp(s *server) error {
	switch w.st.name {
	case hitHeavy:
		// Wait for the background prewarm to plan the zoo on every
		// device, so no planner pass overlaps the timed phase, then put
		// every key of the key space into the byte cache.
		want := float64(len(zoo.Names) * len(w.st.devices))
		for deadline := time.Now().Add(60 * time.Second); ; {
			m, err := s.metrics()
			if err != nil {
				return err
			}
			if m["netcut_gateway_prewarmed_total"] >= want {
				break
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("prewarm did not finish within 60s")
			}
			time.Sleep(2 * time.Millisecond)
		}
		for _, k := range w.st.keys {
			if err := w.postOK(s, k); err != nil {
				return err
			}
		}
	case plannerWarm:
		// The analytical estimator is trained on first use and is not
		// part of the snapshot: one analytical request per device.
		for _, p := range w.st.pairs {
			if p.Network == zoo.Names[0] {
				r := planReq{Network: p.Network, GraphIndex: -1, Device: p.Device, DeadlineMs: p.HiMs, Estimator: "analytical"}
				if err := w.postOK(s, r); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

func (w *workload) postOK(s *server, r planReq) error {
	body, err := w.st.body(r)
	if err != nil {
		return err
	}
	status, resp, err := s.post(body)
	if err != nil {
		return fmt.Errorf("warm-up request: %w", err)
	}
	if status != http.StatusOK {
		return fmt.Errorf("warm-up request: status %d: %s", status, resp)
	}
	return nil
}

// Counter families the hygiene checks and per-layer ratios read.
const (
	mRequests    = "netcut_gateway_requests_total"
	mByteHits    = "netcut_gateway_bytecache_hits_total"
	mByteMisses  = "netcut_gateway_bytecache_misses_total"
	mByteEvict   = "netcut_gateway_bytecache_evictions_total"
	mCoalesced   = "netcut_gateway_coalesced_total"
	mExecutions  = "netcut_planner_executions_total"
	mTableHits   = "netcut_profiler_tables_hits_total"
	mTableMisses = "netcut_profiler_tables_misses_total"
	mTableEvict  = "netcut_profiler_tables_evictions_total"
	mMeasMisses  = "netcut_profiler_measurements_misses_total"
	mMeasEvict   = "netcut_profiler_measurements_evictions_total"
	mPlanHits    = "netcut_device_plans_hits_total"
	mPlanMisses  = "netcut_device_plans_misses_total"
	mPlanEvict   = "netcut_device_plans_evictions_total"
	mCutHits     = "netcut_trim_cuts_hits_total"
	mCutMisses   = "netcut_trim_cuts_misses_total"
	mCutEvict    = "netcut_trim_cuts_evictions_total"
)

// hygieneCounters are printed with every run, so a reader can see what
// the timed phase did.
var hygieneCounters = []string{mRequests, mByteHits, mByteMisses, mByteEvict, mCoalesced, mExecutions,
	mTableHits, mTableMisses, mMeasMisses, mPlanHits, mPlanMisses, mCutHits, mCutMisses}

// expectation is one hygiene rule: a counter delta over the timed phase
// must equal a value.
type expectation struct {
	counters []string // summed
	want     float64
	why      string
}

// expectations are the workload's hygiene rules; distinctGraphs is the
// number of distinct graphs the timed phase sent.
func (w *workload) expectations(distinctGraphs int) []expectation {
	switch w.st.name {
	case hitHeavy:
		return []expectation{
			{[]string{mByteMisses}, 0, "every request is a byte-cache hit"},
			{[]string{mExecutions}, 0, "the planner does no work"},
		}
	case plannerWarm:
		return []expectation{
			{[]string{mByteHits}, 0, "every request misses the byte cache"},
			{[]string{mTableMisses, mMeasMisses}, 0, "no profiler misses: cold work stayed in set-up"},
			{[]string{mPlanMisses}, 0, "no device-plan misses"},
			{[]string{mCutMisses}, 0, "no trim-cut misses"},
		}
	default:
		return []expectation{
			{[]string{mTableMisses}, float64(distinctGraphs), "one profiler-table build per distinct graph"},
		}
	}
}
