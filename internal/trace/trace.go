// Package trace is the request-scoped tracing substrate of the serving
// stack: per-request records of timestamped stage spans, a bounded
// lock-sharded ring buffer of completed traces, and a sharded table of
// in-flight ones. Like internal/telemetry it is dependency-free
// (standard library only) and observability-only by construction: a
// Trace is a passive record — nothing in this package influences what
// any request returns.
//
// Concurrency model: a Trace has a single writer (the goroutine serving
// the request) but may be read at any time by the /debug/requests live
// dump, so every mutation and every read goes through the Trace's own
// mutex; the critical sections are tiny (append one span, copy one
// view). The Ring and Live containers shard their locks so concurrent
// request completions don't serialize on one mutex.
//
// Trace IDs are deterministic in format — exactly 16 lowercase hex
// characters — and deterministic in sequence for a fixed IDGen seed:
// the generator is a splitmix64 walk, so a replay with the same seed
// and admission order reproduces the same IDs. The walk is a bijection
// over the counter, so IDs never collide within a process.
package trace

import (
	"sync"
	"sync/atomic"
	"time"
)

// Span is one timed stage of a request: a name from the caller's stage
// vocabulary, an optional gate verdict ("hit", "shed", "leader", ...),
// and a [start, start+dur] window expressed in milliseconds relative to
// the trace's own start.
type Span struct {
	Stage   string  `json:"stage"`
	Verdict string  `json:"verdict,omitempty"`
	StartMs float64 `json:"start_ms"`
	DurMs   float64 `json:"dur_ms"`
}

// MaxSpans bounds a trace's span storage. The storage is inline (one
// allocation per trace, no append growth); marks beyond the bound are
// dropped rather than grown — a request path has a fixed number of
// stages, so hitting the cap means a plumbing bug, not load.
const MaxSpans = 24

// Trace is one request's record. Construct with Start; the owning
// goroutine marks stages as the request moves through them and calls
// Finish exactly once. All methods are safe against concurrent View
// readers.
type Trace struct {
	mu     sync.Mutex
	id     string
	start  time.Time
	cursor time.Time // end of the last recorded span: the next Mark's start

	name   string // request identity (network/graph name), set after decode
	target string // requested target ("", "auto", or a device name)
	device string // resolved device, set at routing

	status int
	durMs  float64
	done   bool

	nspans int
	spans  [MaxSpans]Span

	// seq is the ring admission order, written once by Ring.Add before
	// the trace is published into a shard (never read before that).
	seq uint64
}

// pool recycles Trace records. A Trace is ~1.2KB (the inline span
// array), which is real allocation and GC-scan pressure at one trace
// per request; recycling displaced ring entries keeps steady-state
// tracing allocation-free. reset leaves the spans array dirty — only
// spans[:nspans] is ever read.
var pool = sync.Pool{New: func() any { return new(Trace) }}

// Start begins a trace at now, reusing a released record when one is
// available. The id should come from an IDGen.
func Start(id string, now time.Time) *Trace {
	t := pool.Get().(*Trace)
	t.reset(id, now)
	return t
}

// release returns a trace to the allocation pool. The caller must
// guarantee no goroutine still holds a reference: the ring releases
// only a trace it displaced, and every read surface copies under the
// shard lock.
func release(t *Trace) { pool.Put(t) }

// reset clears a recycled record back to Start state.
func (t *Trace) reset(id string, now time.Time) {
	t.mu.Lock()
	t.id, t.start, t.cursor = id, now, now
	t.name, t.target, t.device = "", "", ""
	t.status, t.durMs, t.done = 0, 0, false
	t.nspans, t.seq = 0, 0
	t.mu.Unlock()
}

// ID returns the trace's identifier.
func (t *Trace) ID() string { return t.id }

// SetRequest records the decoded request identity: the graph/network
// name and the raw requested target.
func (t *Trace) SetRequest(name, target string) {
	t.mu.Lock()
	t.name, t.target = name, target
	t.mu.Unlock()
}

// SetDevice records the resolved device once routing has picked one.
func (t *Trace) SetDevice(dev string) {
	t.mu.Lock()
	t.device = dev
	t.mu.Unlock()
}

// DeviceOr returns the resolved device, or fallback when the request
// never reached routing (decode errors, drain/quarantine refusals).
func (t *Trace) DeviceOr(fallback string) string {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.device == "" {
		return fallback
	}
	return t.device
}

// Cursor returns the end timestamp of the last recorded span — the
// instant admission handed the request off, which is where queue-wait
// accounting starts.
func (t *Trace) Cursor() time.Time {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.cursor
}

// Mark records a span from the cursor to now (one clock read), advances
// the cursor, and returns the timestamp it read so callers can reuse it
// (Finish accepts it) instead of paying a second clock read.
func (t *Trace) Mark(stage, verdict string) time.Time {
	now := time.Now()
	t.MarkAt(now, stage, verdict)
	return now
}

// MarkAt is Mark with a caller-supplied clock read.
func (t *Trace) MarkAt(now time.Time, stage, verdict string) {
	t.mu.Lock()
	t.append(stage, verdict, t.cursor, now)
	if now.After(t.cursor) {
		t.cursor = now
	}
	t.mu.Unlock()
}

// MarkZero records a zero-duration span at the cursor without reading
// the clock — the admission gates decide in nanoseconds, and what
// matters about them is the verdict, not a duration below the clock's
// own resolution.
func (t *Trace) MarkZero(stage, verdict string) {
	t.mu.Lock()
	t.append(stage, verdict, t.cursor, t.cursor)
	t.mu.Unlock()
}

// SpanAt records a span with explicit boundaries — how the queue-wait
// and execution windows, measured by the goroutine that ran the pass
// and read back after delivery, are stitched into a waiter's trace. A start before
// the trace's own start or an end before the start is clamped rather
// than rendered negative (a coalesced follower can join an execution
// that began before it arrived). The cursor advances to end if later.
func (t *Trace) SpanAt(stage, verdict string, start, end time.Time) {
	if start.Before(t.start) {
		start = t.start
	}
	if end.Before(start) {
		end = start
	}
	t.mu.Lock()
	t.append(stage, verdict, start, end)
	if end.After(t.cursor) {
		t.cursor = end
	}
	t.mu.Unlock()
}

// append records one span; callers hold t.mu.
func (t *Trace) append(stage, verdict string, start, end time.Time) {
	if t.nspans >= MaxSpans {
		return
	}
	t.spans[t.nspans] = Span{
		Stage:   stage,
		Verdict: verdict,
		StartMs: float64(start.Sub(t.start)) / float64(time.Millisecond),
		DurMs:   float64(end.Sub(start)) / float64(time.Millisecond),
	}
	t.nspans++
}

// Finish seals the trace: total duration from start to now, final
// status. Call exactly once, after the last Mark (reuse Mark's returned
// timestamp as now).
func (t *Trace) Finish(status int, now time.Time) {
	t.mu.Lock()
	t.status = status
	t.durMs = float64(now.Sub(t.start)) / float64(time.Millisecond)
	t.done = true
	t.mu.Unlock()
}

// Done reports whether Finish has run.
func (t *Trace) Done() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.done
}

// DurMs returns the sealed total duration (0 before Finish).
func (t *Trace) DurMs() float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.durMs
}

// ForEach calls fn for every recorded span, under the trace mutex.
// fn must not call back into the trace.
func (t *Trace) ForEach(fn func(Span)) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for i := 0; i < t.nspans; i++ {
		fn(t.spans[i])
	}
}

// View is a JSON-marshalable copy of a trace, the wire form of
// /debug/trace and /debug/requests.
type View struct {
	ID          string  `json:"trace_id"`
	Name        string  `json:"name,omitempty"`
	Target      string  `json:"target,omitempty"`
	Device      string  `json:"device,omitempty"`
	Status      int     `json:"status,omitempty"`
	Done        bool    `json:"done"`
	StartUnixNs int64   `json:"start_unix_ns"`
	DurMs       float64 `json:"dur_ms"`
	Spans       []Span  `json:"spans"`
}

// View copies the trace under its mutex. For an in-flight trace
// (Done == false) DurMs is the elapsed time up to now, so the live dump
// shows how long each stuck request has been in flight.
func (t *Trace) View(now time.Time) View {
	t.mu.Lock()
	defer t.mu.Unlock()
	v := View{
		ID:          t.id,
		Name:        t.name,
		Target:      t.target,
		Device:      t.device,
		Status:      t.status,
		Done:        t.done,
		StartUnixNs: t.start.UnixNano(),
		DurMs:       t.durMs,
		Spans:       append([]Span(nil), t.spans[:t.nspans]...),
	}
	if !t.done {
		v.DurMs = float64(now.Sub(t.start)) / float64(time.Millisecond)
	}
	return v
}

// IDGen generates trace IDs: 16 lowercase hex characters, a splitmix64
// walk seeded once. Safe for concurrent use; IDs never collide within a
// generator (the walk is a bijection over the 64-bit counter).
type IDGen struct {
	state atomic.Uint64
}

// NewIDGen seeds a generator. A fixed seed reproduces the ID stream in
// admission order, keeping trace IDs as replayable as everything else
// derived from the planner seed.
func NewIDGen(seed uint64) *IDGen {
	g := &IDGen{}
	g.state.Store(mix(seed))
	return g
}

// Next returns the next ID.
func (g *IDGen) Next() string {
	z := mix(g.state.Add(0x9e3779b97f4a7c15))
	const hexdigits = "0123456789abcdef"
	var b [16]byte
	for i := 15; i >= 0; i-- {
		b[i] = hexdigits[z&0xf]
		z >>= 4
	}
	return string(b[:])
}

// mix is the splitmix64 finalizer.
func mix(z uint64) uint64 {
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return z
}
