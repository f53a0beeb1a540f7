package gateway

// Adaptive overload control: the closed-loop half of the gateway's
// admission policy. A background sampler (overloadLoop) folds two
// signals the process already has — per-lane backlog and warm-p99
// drift of observed execution latency — into one discrete load level,
// and each level deterministically sheds optional work:
//
//	level 0 (normal)    everything on.
//	level 1 (brownout)  Prewarm paused.
//	level 2 (emergency) Prewarm paused, and admission serves only
//	                    resident answers and coalesce joins — every
//	                    cold miss is shed pre-execution with a
//	                    level-scaled, backlog-honest Retry-After.
//
// The level is a pure function of the signals sampled each tick — no
// hysteresis — so it returns to 0 within one controller interval of
// the load going away, and a fixed signal state always maps to the
// same level (the property the deterministic ladder tests pin, via
// the faultinject QueueStall point). The one signal with memory, the
// per-lane exec-latency EWMA, decays while its lane is idle: it only
// collects samples when passes run, so without decay a single slow
// cold pass would hold an otherwise idle gateway in brownout with
// nothing left to pull the average back down. A lane counts as busy
// from the moment a worker dequeues a call until the pass delivers,
// so a long pass keeps its EWMA.
//
// A lane's parallelism is its per-lane worker count, fixed: that is
// what the backlog-honest Retry-After hints assume. Like every admission mechanism in this repository,
// overload control decides where and when executions run — never what
// any execution returns.

import (
	"time"

	"netcut/internal/faultinject"
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
	// brownoutQueueFrac / emergencyQueueFrac are the lane-backlog
	// thresholds of the ladder, as fractions of a lane's queue
	// capacity: a half-full lane starts the brownout, a near-full one
	// declares the emergency.
	brownoutQueueFrac  = 0.5
	emergencyQueueFrac = 0.9
	// execDriftFactor is the warm-p99 drift signal's threshold: a
	// lane whose smoothed observed pass latency exceeds this multiple
	// of its warm p99 is running hotter than its own history
	// predicts — a brownout signal.
	execDriftFactor = 2.0
	// execEwmaAlpha is the smoothing weight of a new pass observation
	// in the lane's exec-latency EWMA.
	execEwmaAlpha = 0.2
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
// queued work and no busy worker, zeroing it below one microsecond.
// Only idle lanes decay — a loaded lane's EWMA stays sample-driven, so
// the drift signal cannot be washed out while the condition it
// measures persists.
func (g *Gateway) decayIdleLanes() {
	for _, l := range g.lanes {
		if len(l.queue) != 0 || l.busy.Load() != 0 {
			continue
		}
		l.ewmaMu.Lock()
		if l.execEwmaMs /= 2; l.execEwmaMs < 1e-3 {
			l.execEwmaMs = 0
		}
		l.ewmaMu.Unlock()
	}
}

// observePass folds one successful pass's observed wall-clock duration
// into its lane's exec-latency EWMA, the drift signal's input.
func (g *Gateway) observePass(dev string, d time.Duration) {
	l := g.lanes[dev]
	ms := float64(d) / float64(time.Millisecond)
	l.ewmaMu.Lock()
	if l.execEwmaMs == 0 {
		l.execEwmaMs = ms
	} else {
		l.execEwmaMs = (1-execEwmaAlpha)*l.execEwmaMs + execEwmaAlpha*ms
	}
	l.ewmaMu.Unlock()
}

// ewma reads a lane's exec-latency EWMA.
func (l *lane) ewma() float64 {
	l.ewmaMu.Lock()
	defer l.ewmaMu.Unlock()
	return l.execEwmaMs
}

// computeLoadLevel is the ladder's pure signal fold. Signals, in
// escalation order:
//
//   - lane backlog: the fullest lane's occupancy against the
//     brownout/emergencyQueueFrac thresholds (the faultinject
//     QueueStall point reads a lane as completely full, so tests pin
//     the ladder deterministically);
//   - warm-p99 drift: any lane whose smoothed observed pass latency
//     exceeds execDriftFactor x its device's warm p99.
func (g *Gateway) computeLoadLevel() int {
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
	if occ >= emergencyQueueFrac {
		return levelEmergency
	}
	if occ >= brownoutQueueFrac || g.anyLaneDrifting() {
		return levelBrownout
	}
	return levelNormal
}

// anyLaneDrifting reports whether any lane's smoothed observed pass
// latency has drifted past execDriftFactor x its device's own warm
// p99. Only lanes whose histograms hold shedMinSamples executions
// participate — the activation rule budget shedding uses, for the same
// reason: drifting against a cold estimate is noise.
func (g *Gateway) anyLaneDrifting() bool {
	for _, l := range g.lanes {
		ewma := l.ewma()
		if ewma <= 0 {
			continue
		}
		p, err := g.pool.Planner(l.device)
		if err != nil {
			continue
		}
		p99, samples := p.WarmQuantile(0.99)
		if samples >= shedMinSamples && p99 > 0 &&
			ewma > execDriftFactor*p99 {
			return true
		}
	}
	return false
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

// overloadStats is the /debug/stats "overload" document: the live
// level plus each lane's smoothed pass latency.
func (g *Gateway) overloadStats() map[string]any {
	lanes := make(map[string]any, len(g.lanes))
	for name, l := range g.lanes {
		lanes[name] = map[string]any{"exec_ewma_ms": l.ewma()}
	}
	return map[string]any{
		"level": g.LoadLevel(),
		"lanes": lanes,
	}
}
