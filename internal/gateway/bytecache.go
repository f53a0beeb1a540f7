package gateway

import "math"

// The rendered-response byte cache: fully delivered 200 bodies, keyed
// by complete response identity, served straight from admission so a
// repeat request skips its lane, the planner and the wire-marshal
// entirely. The cache is legal because responses are pure functions of
// (seed, device calibration, graph structure, deadline, estimator) —
// the same byte-identity contract that makes coalescing
// transparent — so a hit returns exactly the bytes a fresh execution
// would render, and eviction only restores the recompute cost.
//
// What is never cached or served: planner errors and panics (only
// deliverResult's 200 path populates), watchdog-abandoned passes
// (abandonCalls never touches the cache), quarantined identities (the
// quarantine gate precedes the lookup), tripped devices (eligibility
// precedes the lookup, and tripping a device purges its entries), and
// anything while draining (the drain gate is first).

// byteCacheShards fixes the shard count of the byte cache: enough to
// keep concurrent warm hits off one mutex, few enough that tiny test
// capacities still bound sensibly (lru routes small totals over
// cap-many active shards).
const byteCacheShards = 8

// byteKey is the identity a rendered body is cached under: the
// resolved coalesce key (device, name, structure fingerprint,
// deadline, estimator) plus the device's calibration fingerprint,
// which pins the bytes to the exact calibration that produced them.
type byteKey struct {
	key   coalesceKey
	calib uint64
}

// hashByteKey routes a byteKey to its shard: FNV-1a over every field,
// a pure function of the key as lru.NewSharded requires.
func hashByteKey(k byteKey) uint64 {
	const prime64 = 1099511628211
	h := uint64(14695981039346656037)
	str := func(s string) {
		for i := 0; i < len(s); i++ {
			h ^= uint64(s[i])
			h *= prime64
		}
	}
	num := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= v & 0xff
			h *= prime64
			v >>= 8
		}
	}
	str(k.key.device)
	str(k.key.name)
	num(k.key.print)
	num(math.Float64bits(k.key.deadline))
	str(k.key.estimator)
	num(k.calib)
	return h
}

// byteCacheGet looks up the rendered body for a fully resolved
// coalesce key. Callers must have passed the drain, quarantine and
// device-eligibility gates first: the cache short-circuits queueing and
// planning, never admission policy.
func (g *Gateway) byteCacheGet(k coalesceKey) ([]byte, bool) {
	if g.bytes == nil {
		return nil, false
	}
	return g.bytes.Get(byteKey{key: k, calib: g.calib[k.device]})
}

// byteCacheAdd caches a successfully delivered response body. Only
// deliverResult's 200 path calls it, which is what keeps errors,
// contained panics and watchdog-abandoned results out of the cache by
// construction.
func (g *Gateway) byteCacheAdd(k coalesceKey, body []byte) {
	if g.bytes == nil {
		return
	}
	g.bytes.Add(byteKey{key: k, calib: g.calib[k.device]}, body)
}

// byteCachePurgeDevice drops every cached body of one device — called
// when its health trips, so a device taken out of rotation cannot leave
// stale-looking fast-path bytes behind. (Serving them would still be
// byte-correct — bodies are pure functions of the calibration — but
// admission refuses tripped devices everywhere else, and the cache
// must not be the one path that answers for them.)
func (g *Gateway) byteCachePurgeDevice(dev string) {
	if g.bytes == nil {
		return
	}
	g.bytes.DeleteFunc(func(k byteKey) bool { return k.key.device == dev })
}
