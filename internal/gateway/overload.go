package gateway

// Adaptive overload control: the closed-loop half of the gateway's
// admission policy. A background sampler (overloadLoop) folds signals
// the process already has — per-lane backlog, warm-p99 drift of
// observed execution latency, heap occupancy and GC pauses — into one
// discrete load level, and each level deterministically sheds optional
// work:
//
//	level 0 (normal)    everything on: full batch window, prewarming,
//	                    every completed trace retained.
//	level 1 (brownout)  batch window halved, Prewarm paused, the
//	                    /debug/trace ring samples 1-in-4 traces.
//	level 2 (emergency) batch window dropped, Prewarm paused, ring
//	                    samples 1-in-16, and admission serves only
//	                    byte-cache hits and coalesce joins — every
//	                    cold miss is shed pre-execution with a
//	                    level-scaled, backlog-honest Retry-After.
//
// The level is a pure function of the signals sampled each tick — no
// hysteresis — so it returns to 0 within one controller interval of
// the load going away, and a fixed signal state always maps to the
// same level (the property the deterministic ladder tests pin, via
// the faultinject QueueStall/HeapPressure points). The one signal
// with memory, the per-lane exec-latency EWMA, decays while its lane
// is idle: it only collects samples when passes run, so without decay
// a single slow cold pass would hold an otherwise idle gateway in
// brownout with nothing left to pull the average back down.
//
// Alongside the ladder, each lane's execution parallelism adapts by
// AIMD (laneAIMDIncrease / laneAIMDDecrease): workers acquire a slot
// from a limit that grows by one while observed pass latency tracks
// the warm p99 and halves on containment events, floored at 1 and
// capped at the configured per-lane worker count. Like every admission
// mechanism in this repository, overload control decides where and
// when executions run — never what any execution returns.

import (
	"time"

	"netcut/internal/faultinject"
	"netcut/internal/telemetry"
)

// The load-level ladder.
const (
	levelNormal    = 0
	levelBrownout  = 1
	levelEmergency = 2
)

// Degraded-serving reasons (the wire degraded_reason values).
const (
	degradedUnhealthy = "unhealthy_device"
	degradedBudget    = "budget_infeasible"
)

const (
	// heapBrownoutFrac is the fraction of Config.HeapLimitBytes at
	// which the heap signal starts the brownout; the limit itself is
	// the emergency.
	heapBrownoutFrac = 0.8
	// gcPauseBrownoutMs holds the level at brownout while the p99 GC
	// stop-the-world pause exceeds it: a collector this busy is already
	// taxing every request, so optional work goes first. Armed, like
	// the heap thresholds, only when Config.HeapLimitBytes is set.
	gcPauseBrownoutMs = 50.0
	// execDriftFactor is the warm-p99 drift signal's threshold: a
	// lane whose smoothed observed pass latency exceeds this multiple
	// of (warm p99 + batch window) is running hotter than its own
	// history predicts — a brownout signal.
	execDriftFactor = 2.0
	// execEwmaAlpha is the smoothing weight of a new pass observation
	// in the lane's exec-latency EWMA.
	execEwmaAlpha = 0.2
	// driftMinSamples floors the drift signal's activation: however
	// eagerly budget shedding is configured (Config.ShedMinSamples can
	// be 1), a warm p99 estimated from fewer executions than this is
	// too noisy to declare a lane drifting — one cold pass against a
	// one-sample history would read as overload on every boot.
	driftMinSamples = 8
	// Brownout/emergency trace-ring sampling: keep 1 in N.
	brownoutTraceSample  = 4
	emergencyTraceSample = 16
)

// LoadLevel reports the overload controller's current load level:
// 0 normal, 1 brownout, 2 emergency. Always 0 when the controller is
// disabled (negative Config.OverloadInterval).
func (g *Gateway) LoadLevel() int { return int(g.loadLevel.Load()) }

// sleep waits d or until the drain starts, whichever is first, and
// reports whether the caller should keep running. After the timer
// fires it re-checks g.stop, so a drain landing mid-wait can never be
// followed by one more loop iteration — the "trailing tick" the
// probe and autosave loops used to take when both select arms were
// ready at once.
func (g *Gateway) sleep(d time.Duration) bool {
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-g.stop:
		return false
	case <-timer.C:
	}
	select {
	case <-g.stop:
		return false
	default:
		return true
	}
}

// overloadLoop is the controller: one tick per Config.OverloadInterval
// until the drain.
func (g *Gateway) overloadLoop() {
	for {
		if !g.sleep(g.cfg.OverloadInterval) {
			return
		}
		g.overloadTick()
	}
}

// overloadTick decays idle lanes' drift signal, samples the signals,
// publishes the resulting level and counts the transition if it moved.
func (g *Gateway) overloadTick() {
	g.decayIdleLanes()
	lvl := int32(g.computeLoadLevel())
	if g.loadLevel.Swap(lvl) != lvl {
		g.loadTransitions.Inc()
	}
}

// decayIdleLanes halves the exec-latency EWMA of every lane with no
// queued work and no pass in flight, zeroing it below one microsecond.
// Only idle lanes decay — a loaded lane's EWMA stays sample-driven, so
// the drift signal cannot be washed out while the condition it
// measures persists.
func (g *Gateway) decayIdleLanes() {
	for _, l := range g.lanes {
		if len(l.queue) != 0 {
			continue
		}
		l.execMu.Lock()
		if l.execActive == 0 && l.execEwmaMs > 0 {
			l.execEwmaMs /= 2
			if l.execEwmaMs < 1e-3 {
				l.execEwmaMs = 0
			}
		}
		l.execMu.Unlock()
	}
}

// computeLoadLevel is the ladder's pure signal fold. Signals, in
// escalation order:
//
//   - lane backlog: the fullest lane's occupancy against the
//     Brownout/EmergencyQueueFrac thresholds (the faultinject
//     QueueStall point reads a lane as completely full, so tests pin
//     the ladder deterministically);
//   - heap: live heap against Config.HeapLimitBytes (emergency at the
//     limit, brownout at heapBrownoutFrac of it; the HeapPressure
//     point reads the heap as over the limit);
//   - GC pressure: p99 stop-the-world pause over gcPauseBrownoutMs.
//     Like the heap signal it is armed only when HeapLimitBytes is
//     set: GC pauses on a contended host reflect scheduler noise as
//     much as allocation pressure, and an unarmed memory signal must
//     never brown out a gateway on its own;
//   - warm-p99 drift: any lane whose smoothed observed pass latency
//     exceeds execDriftFactor x its device's (warm p99 + window).
func (g *Gateway) computeLoadLevel() int {
	level := levelNormal
	occ := 0.0
	for _, l := range g.lanes {
		o := float64(len(l.queue)) / float64(g.laneQueueCap)
		if faultinject.Fire(faultinject.QueueStall, l.device) {
			o = 1
		}
		if o > occ {
			occ = o
		}
	}
	if occ >= g.cfg.EmergencyQueueFrac {
		return levelEmergency
	}
	if occ >= g.cfg.BrownoutQueueFrac {
		level = levelBrownout
	}
	if faultinject.Fire(faultinject.HeapPressure, "heap") {
		return levelEmergency
	}
	if g.cfg.HeapLimitBytes > 0 {
		stat := g.mem.Read()
		if stat.HeapAlloc >= uint64(g.cfg.HeapLimitBytes) {
			return levelEmergency
		}
		if float64(stat.HeapAlloc) >= heapBrownoutFrac*float64(g.cfg.HeapLimitBytes) {
			level = levelBrownout
		}
		if telemetry.GCPauseP99(&stat) >= gcPauseBrownoutMs {
			level = levelBrownout
		}
	}
	if level == levelNormal && g.anyLaneDrifting() {
		level = levelBrownout
	}
	return level
}

// anyLaneDrifting reports whether any lane's smoothed observed pass
// latency has drifted past execDriftFactor x its device's own warm
// p99 (plus the batch window every pass leader waits out). Only lanes
// whose histograms hold driftSamplesFloor executions participate —
// the activation rule budget shedding uses, floored at
// driftMinSamples, for the same reason: drifting against a cold
// estimate is noise.
func (g *Gateway) anyLaneDrifting() bool {
	for _, l := range g.lanes {
		l.execMu.Lock()
		ewma := l.execEwmaMs
		l.execMu.Unlock()
		if ewma <= 0 {
			continue
		}
		p, err := g.pool.Planner(l.device)
		if err != nil {
			continue
		}
		p99, samples := p.WarmQuantile(0.99)
		if samples >= g.driftSamplesFloor() && p99 > 0 &&
			ewma > execDriftFactor*(p99+g.windowMs()) {
			return true
		}
	}
	return false
}

// driftSamplesFloor is the warm-sample count at which the drift
// signal (and the AIMD tracking predicate) activates:
// Config.ShedMinSamples, never below driftMinSamples.
func (g *Gateway) driftSamplesFloor() uint64 {
	if g.cfg.ShedMinSamples < driftMinSamples {
		return driftMinSamples
	}
	return uint64(g.cfg.ShedMinSamples)
}

// effectiveBatchWindow is the batch window after the ladder's cut:
// full at level 0, halved in brownout, gone in emergency. The budget
// shed predicates keep using the configured window — a conservative
// (over-reporting) estimate during overload, matching the repo-wide
// quantile rule.
func (g *Gateway) effectiveBatchWindow() time.Duration {
	switch g.loadLevel.Load() {
	case levelNormal:
		return g.cfg.BatchWindow
	case levelBrownout:
		return g.cfg.BatchWindow / 2
	default:
		return 0
	}
}

// traceKeep decides whether a completed trace enters the /debug/trace
// ring: all of them at level 0, a deterministic 1-in-N sample under
// load — the ring is optional work, and under pressure its allocation
// and lock traffic go before anything a client can see.
func (g *Gateway) traceKeep() bool {
	var n uint64
	switch g.loadLevel.Load() {
	case levelNormal:
		return true
	case levelBrownout:
		n = brownoutTraceSample
	default:
		n = emergencyTraceSample
	}
	return g.traceSeq.Add(1)%n == 1
}

// laneWaves is the retry-hint arithmetic shared by the queue-full and
// overload sheds: a backlog of n requests in front of workers lane
// workers clears in ceil(n/workers) execution waves, never fewer than
// one.
func laneWaves(backlog, workers int) float64 {
	waves := (backlog + workers - 1) / workers
	if waves < 1 {
		waves = 1
	}
	return float64(waves)
}

// acquireExec takes one of the lane's AIMD execution slots, blocking
// while the lane is already running at its current limit. Workers call
// it only between queue drains, so admission (and the queue's backlog
// signal) is never blocked by it.
func (l *lane) acquireExec() {
	l.execMu.Lock()
	for l.execActive >= l.execLimit {
		l.execCond.Wait()
	}
	l.execActive++
	l.execMu.Unlock()
}

// releaseExec returns a slot and wakes one waiter.
func (l *lane) releaseExec() {
	l.execMu.Lock()
	l.execActive--
	l.execCond.Signal()
	l.execMu.Unlock()
}

// laneAIMDIncrease is the additive half of the lane's concurrency
// control, called after every successful planner pass with the pass's
// observed wall-clock duration: the EWMA the drift signal reads is
// updated unconditionally, and while the observation still tracks the
// device's own warm p99 the limit grows by one toward the configured
// per-lane worker ceiling.
func (g *Gateway) laneAIMDIncrease(dev string, passMs float64) {
	l := g.lanes[dev]
	if l == nil {
		return
	}
	tracking := true
	if p, err := g.pool.Planner(dev); err == nil {
		p99, samples := p.WarmQuantile(0.99)
		if samples >= g.driftSamplesFloor() && p99 > 0 &&
			passMs > execDriftFactor*(p99+g.windowMs()) {
			tracking = false
		}
	}
	l.execMu.Lock()
	if l.execEwmaMs == 0 {
		l.execEwmaMs = passMs
	} else {
		l.execEwmaMs = (1-execEwmaAlpha)*l.execEwmaMs + execEwmaAlpha*passMs
	}
	if tracking && l.execLimit < g.laneWorkers {
		l.execLimit++
		l.execCond.Broadcast()
	}
	l.execMu.Unlock()
}

// laneAIMDDecrease is the multiplicative half, called on containment
// events (panics, watchdog abandons): the limit halves, floored at 1
// so the lane always makes progress.
func (g *Gateway) laneAIMDDecrease(dev string) {
	l := g.lanes[dev]
	if l == nil {
		return
	}
	l.execMu.Lock()
	if half := l.execLimit / 2; half >= 1 && half < l.execLimit {
		l.execLimit = half
		l.aimdDecreases.Inc()
	}
	l.execMu.Unlock()
}

// overloadStats is the /debug/stats "overload" document: the live
// level plus each lane's AIMD limit and smoothed pass latency.
func (g *Gateway) overloadStats() map[string]any {
	lanes := make(map[string]any, len(g.lanes))
	for name, l := range g.lanes {
		l.execMu.Lock()
		lanes[name] = map[string]any{
			"concurrency_limit": l.execLimit,
			"exec_ewma_ms":      l.execEwmaMs,
		}
		l.execMu.Unlock()
	}
	return map[string]any{
		"level": g.LoadLevel(),
		"lanes": lanes,
	}
}
