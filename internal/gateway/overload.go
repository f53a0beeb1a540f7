package gateway

// Adaptive overload control: the closed-loop half of the gateway's
// admission policy. level folds the one signal the process already
// has — the backlog waiting in each lane — into a discrete load level,
// and each level deterministically sheds optional work:
//
//	level 0 (normal)    everything on.
//	level 1 (brownout)  Prewarm paused.
//	level 2 (emergency) Prewarm paused, and admission serves only
//	                    resident answers and coalesce joins — every
//	                    cold miss is shed pre-execution with a
//	                    level-scaled, backlog-honest Retry-After.
//
// The level is a pure function of the backlog at the moment it is read
// — no hysteresis, no memory, no sampler — and it is read wherever it
// acts or is shown: the emergency gate, the prewarm pause, LoadLevel,
// the netcut_gateway_load_level gauge and /debug/stats. So shedding
// starts and stops with the backlog itself, and a fixed backlog always
// maps to the same level (the property the deterministic ladder tests
// pin, via the faultinject QueueStall point). How long passes take is
// not a signal: lanes carry mostly cold passes, which are slow by
// nature, so a slow pass on an idle lane is ordinary work, not
// overload.
//
// The emergency gate alone also looks at admission's read before its
// own (g.loadLevel; no other reader records): it sheds only when both
// find level 2. The arrival that first finds a lane full therefore
// meets that lane's queue-full gate and its exact backlog hint, and a
// flood that keeps the lane full is shed as overload from the next
// arrival on, whoever else reads the level in between.
//
// A lane's parallelism is its permit count, fixed: that is what the
// backlog-honest Retry-After hints assume. Like every admission
// mechanism in this repository, overload control decides where and
// when executions run — never what any execution returns.

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
)

// LoadLevel reads the current load level from the lane backlog:
// 0 normal, 1 brownout, 2 emergency.
func (g *Gateway) LoadLevel() int { return g.level() }

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

// level is the ladder's signal fold: the fullest lane's waiting-room
// occupancy against the brownout/emergencyQueueFrac thresholds (the
// faultinject QueueStall point reads a lane as completely full, so
// tests pin the ladder deterministically). It records nothing.
func (g *Gateway) level() int {
	occ := 0.0
	for _, l := range g.lanes {
		o := float64(l.waiting.Load()) / float64(g.laneQueueCap)
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
	if occ >= brownoutQueueFrac {
		return levelBrownout
	}
	return levelNormal
}

// admitLevel is admission's read of the level: it returns the level
// and admission's read before it, records the level as the last one
// admission saw and counts a transition when that moved.
func (g *Gateway) admitLevel() (lvl, prev int) {
	lvl = g.level()
	prev = int(g.loadLevel.Swap(int32(lvl)))
	if prev != lvl {
		g.loadTransitions.Inc()
	}
	return lvl, prev
}

// laneWaves is the retry-hint arithmetic shared by the queue-full and
// overload sheds: a backlog of n requests in front of a lane's permits
// clears in ceil(n/permits) execution waves, never fewer than one.
func laneWaves(backlog, permits int) float64 {
	waves := (backlog + permits - 1) / permits
	if waves < 1 {
		waves = 1
	}
	return float64(waves)
}

// overloadStats is the /debug/stats "overload" document: the live
// level.
func (g *Gateway) overloadStats() map[string]any {
	return map[string]any{"level": g.LoadLevel()}
}
