// Package faultinject is the deterministic fault-injection harness the
// robustness tests and smoke scripts drive the serving stack with. A
// handful of named fault points are compiled into the production code
// paths (a panic inside the trim layer, a delay inside a planner
// execution, a write error and a byte-corruption inside the state
// snapshot path); each is a no-op — one atomic load — unless a test
// arms it, so the instrumented binaries pay nothing in normal
// operation and CI can pin every failure behavior under -race without
// build tags or mock seams.
//
// Determinism contract: a fault point fires on *key match*, not on
// randomness. Sites pass a stable identity key (a graph name, a state
// path) and Arm* installs rules that match by substring, so which
// requests fault is a pure function of the armed rules and the request
// stream — the same property the rest of the repository demands of
// results. A rule's Count bounds how many times it fires; rules are
// consumed in arming order.
//
// The package is safe for concurrent use: sites may fire from any
// goroutine while tests arm and reset. Tests that arm faults must
// defer Reset() so parallel packages never inherit rules.
package faultinject

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// Point names one compiled-in fault site.
type Point string

// The fault points wired into the serving stack.
const (
	// TrimPanic panics inside trim's cut path (Cut, CutAtNode and
	// BuildCut), keyed by the parent graph's name — the "poison graph"
	// fault: a request whose planning execution blows up deep in the
	// layer stack.
	TrimPanic Point = "trim-panic"
	// ExecDelay sleeps inside serve.(*Planner).Select, keyed by the
	// graph name — the "stuck execution" fault: the held pass keeps its
	// lane permit, so later leaders back up in the waiting room.
	ExecDelay Point = "exec-delay"
	// SnapshotWrite fails the gateway's state-snapshot write, keyed by
	// the state path.
	SnapshotWrite Point = "snapshot-write"
	// StateCorrupt corrupts the leading bytes of a written state
	// snapshot, keyed by the state path — the fault that exercises the
	// .bak recovery path end to end.
	StateCorrupt Point = "state-corrupt"
	// QueueStall makes every read of the gateway's load level see a
	// lane's backlog as completely full, keyed by the device name — the
	// deterministic way to pin the overload ladder without racing real
	// queue occupancy.
	QueueStall Point = "queue-stall"
)

// Injected is the value an injected panic carries (and the error an
// armed error site returns), so handlers can tell harness faults from
// organic ones in test assertions and log lines.
type Injected struct {
	Point Point
	Key   string
}

func (i Injected) Error() string {
	return fmt.Sprintf("faultinject: %s fired for %q", i.Point, i.Key)
}

// rule is one armed fault: it fires at a point when the site key
// contains Match ("" matches every key), at most Count times (<= 0
// means unlimited).
type rule struct {
	point Point
	match string
	count int64 // remaining firings; negative = unlimited
	delay time.Duration
}

var (
	// armed is the fast path: every site checks it with one atomic load
	// and returns immediately while no rules exist.
	armed atomic.Bool

	mu    sync.Mutex
	rules []*rule
)

// Arm installs a panic/error rule: Point p fires for site keys
// containing match (empty matches all), at most times times (<= 0 =
// unlimited).
func Arm(p Point, match string, times int) {
	ArmDelay(p, match, times, 0)
}

// ArmDelay is Arm with a sleep duration attached, for delay points.
func ArmDelay(p Point, match string, times int, d time.Duration) {
	mu.Lock()
	defer mu.Unlock()
	n := int64(times)
	if times <= 0 {
		n = -1
	}
	rules = append(rules, &rule{point: p, match: match, count: n, delay: d})
	armed.Store(true)
}

// Reset disarms every rule. Tests that arm faults must defer it.
func Reset() {
	mu.Lock()
	defer mu.Unlock()
	rules = nil
	armed.Store(false)
}

// contains is strings.Contains without the import (the package stays
// dependency-minimal so every layer can import it).
func contains(s, sub string) bool {
	if sub == "" {
		return true
	}
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

// fire consumes the first live rule matching (p, key), returning it, or
// nil when nothing is armed for the site.
func fire(p Point, key string) *rule {
	if !armed.Load() {
		return nil
	}
	mu.Lock()
	defer mu.Unlock()
	for _, r := range rules {
		if r.point != p || r.count == 0 || !contains(key, r.match) {
			continue
		}
		if r.count > 0 {
			r.count--
		}
		return r
	}
	return nil
}

// Fire reports whether an armed rule matches (p, key), consuming one
// firing. Sites that need custom behavior (e.g. corrupting bytes they
// own) branch on it.
func Fire(p Point, key string) bool { return fire(p, key) != nil }

// Panic panics with an Injected value if a rule matches (p, key);
// otherwise it is a no-op. This is the call compiled into the trim
// layer.
func Panic(p Point, key string) {
	if fire(p, key) != nil {
		panic(Injected{Point: p, Key: key})
	}
}

// Delay sleeps for the armed rule's duration if one matches (p, key);
// otherwise it is a no-op. This is the call compiled into the planner
// execution path.
func Delay(p Point, key string) {
	if r := fire(p, key); r != nil && r.delay > 0 {
		time.Sleep(r.delay)
	}
}

// Error returns an Injected error if a rule matches (p, key), nil
// otherwise. This is the call compiled into the snapshot write path.
func Error(p Point, key string) error {
	if fire(p, key) != nil {
		return Injected{Point: p, Key: key}
	}
	return nil
}
