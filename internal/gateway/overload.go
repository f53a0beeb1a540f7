package gateway

// Adaptive overload control: level folds the one signal the process
// already has — the backlog waiting in each lane — into a discrete
// load level, which pauses optional background work:
//
//	level 0 (normal)    everything on.
//	level 1 (brownout)  Prewarm paused.
//
// The level is a pure function of the backlog at the moment it is read
// — no hysteresis, no memory, no sampler — and it is read wherever it
// acts or is shown: the prewarm pause, LoadLevel, the
// netcut_gateway_load_level gauge and /debug/stats. Reading it records
// nothing, so no reader can change what another sees, and a fixed
// backlog always maps to the same level (the property the
// deterministic ladder tests pin, via the faultinject QueueStall
// point). How long passes take is not a signal: lanes carry mostly
// cold passes, which are slow by nature, so a slow pass on an idle
// lane is ordinary work, not overload.
//
// The level refuses no request. Backlog is shed where it stands: a
// lane whose waiting room is full answers its own arrivals 429
// queue_full with that lane's exact backlog hint, and every other
// lane keeps admitting. A lane's parallelism is its permit count,
// fixed: that is what the backlog-honest Retry-After hint assumes.
// Like every admission mechanism in this repository, overload control
// decides where and when executions run — never what any execution
// returns.

import (
	"time"

	"netcut/internal/faultinject"
)

// The load-level ladder.
const (
	levelNormal   = 0
	levelBrownout = 1
)

// Degraded-serving reasons (the wire degraded_reason values).
const (
	degradedUnhealthy = "unhealthy_device"
	degradedBudget    = "budget_infeasible"
)

// brownoutQueueFrac is the ladder's lane-backlog threshold, as a
// fraction of a lane's queue capacity: a half-full lane starts the
// brownout.
const brownoutQueueFrac = 0.5

// LoadLevel reads the current load level from the lane backlog:
// 0 normal, 1 brownout.
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
// occupancy against brownoutQueueFrac (the faultinject QueueStall
// point reads a lane as completely full, so tests pin the ladder
// deterministically). It records nothing.
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
	if occ >= brownoutQueueFrac {
		return levelBrownout
	}
	return levelNormal
}

// laneWaves is the queue-full shed's retry-hint arithmetic: a backlog
// of n requests in front of a lane's permits clears in
// ceil(n/permits) execution waves, never fewer than one.
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
