package gateway

// Request tracing: the gateway-side half of internal/trace. Every
// /v1/plan request is traced from arrival to response write; the stage
// vocabulary below names each span, the X-Netcut-Trace header and the
// injected trace_id body field carry the ID back to the client, and
// completed traces feed four read surfaces — GET /debug/trace (ring
// buffer), GET /debug/requests (in-flight), the
// netcut_gateway_stage_ms{stage,device} histograms, and the
// Config.SlowTraceMs structured log lines.
//
// Tracing is observability only, like every telemetry surface in this
// repo: the canonical response body (and the resident staircase step
// that stores it) stays trace-free, and the per-request trace_id is
// spliced in at response-write time — so a resident answer, a coalesced
// follower and a fresh execution still produce byte-identical bodies modulo that one
// injected field, at any GOMAXPROCS.

import (
	"bytes"
	"context"
	"encoding/json"
	"log/slog"
	"net/http"
	"strconv"
	"sync"
	"time"

	"netcut/internal/trace"
)

// TraceHeader is the response header carrying the request's trace ID,
// the key into GET /debug/trace?id=.
const TraceHeader = "X-Netcut-Trace"

// statusClientClosed is the trace status recorded for requests whose
// client disconnected before delivery (nginx's 499 convention; no
// response is written, so the code exists only in traces).
const statusClientClosed = 499

// The stage vocabulary, in pipeline order. Gates record zero-duration
// verdict spans; the clock-bounded stages (timedStages) also feed the
// netcut_gateway_stage_ms histograms.
const (
	stageDecode     = "decode"     // body read + JSON decode + graph validation
	stageDrain      = "drain"      // drain gate (includes the gateway-mutex wait)
	stageQuarantine = "quarantine" // poison-key gate
	stageRoute      = "route"      // target resolution; verdict is the resolved device
	stageHealth     = "health"     // device-health gate
	stageResident   = "resident"   // planner staircase lookup; verdict hit/miss
	stageCoalesce   = "coalesce"   // verdict leader/follower
	stageShed       = "shed"       // budget shed gate
	stageDegraded   = "degraded"   // allow_degraded fallback; verdict is the reason
	stageEnqueue    = "enqueue"    // lane handoff; verdict ok/full
	stageQueueWait  = "queue_wait" // admission to pass start (stitched post-delivery)
	stageExec       = "exec"       // the planner pass (stitched post-delivery)
	stageEncode     = "encode"     // wire-marshal of the response body
	stageDeliver    = "deliver"    // pass end (or resident answer) to response write
)

// verdictOK is the span verdict of a gate that let the request through.
const verdictOK = "ok"

// stageDeviceNone is the device label for requests refused before
// routing resolved a device (decode errors, drain, quarantine).
const stageDeviceNone = "none"

// timedStages are the stages whose durations are clock-bounded and
// meaningful as histograms. The admission gates are deliberately
// absent: they decide in nanoseconds and appear in traces as verdicts,
// not in /metrics as mass. The resident gate is the exception: a hit's
// span (gate run-up, staircase lookup, first render) is the fast path's
// admission cost, and a miss records zero.
var timedStages = []string{stageDecode, stageResident, stageQueueWait, stageExec, stageEncode, stageDeliver}

// stitchCallSpans carves a delivered call's pass timeline into the
// waiting handler's trace: queue-wait (this trace's enqueue mark to
// pass start), exec, and encode. The timestamps were written by the
// leader before done closed (a cancelled call has no waiter left to
// read it), so reading them here is race-free; a
// coalesced follower that joined mid-pass gets its edges clamped by
// SpanAt rather than a negative wait.
func stitchCallSpans(tr *trace.Trace, c *call) {
	tr.SpanAt(stageQueueWait, "", tr.Cursor(), c.execStartAt)
	// Planner-internal phases (reported by serve via the per-request
	// Trace callback) are sub-spans of the exec window.
	for _, ph := range c.planPhases {
		tr.SpanAt("plan_"+ph.name, "", ph.start, ph.end)
	}
	tr.SpanAt(stageExec, "", c.execStartAt, c.execEndAt)
	if c.encodeDur > 0 {
		tr.SpanAt(stageEncode, "", c.execEndAt, c.execEndAt.Add(c.encodeDur))
	}
}

// writePlanTraced writes every /v1/plan answer: a plan body, a
// delivered planner error or a rejection. It splices the trace_id field
// into the rendered body, sets Retry-After from a positive retryAfterMs,
// marks the deliver span with verdict (verdictOK for a delivered call
// or resident answer, the error code for a rejection) and finishes the
// trace. It returns the timestamp of the deliver mark so the caller can
// reuse it for the request-latency histogram (one clock read for all
// three). The deliver span runs from the previous cursor (pass end, or
// the resident answer) to this handler resuming to write — scheduler
// handoff latency, the gap no other stage accounts for.
func (g *Gateway) writePlanTraced(w http.ResponseWriter, tr *trace.Trace, status int, body []byte, verdict string, retryAfterMs float64) time.Time {
	now := tr.Mark(stageDeliver, verdict)
	writeJSONHeader(w, status, retryAfterMs)
	writeWithTraceID(w, body, tr.ID())
	g.finishTrace(tr, status, now)
	return now
}

// bodyScratch recycles the small tail buffer of the trace-ID splice:
// just the `,"trace_id":"<id>"}` suffix plus whatever follows the
// closing brace (the trailing newline), never the body itself.
var bodyScratch = sync.Pool{New: func() any { b := make([]byte, 0, 64); return &b }}

// writeWithTraceID writes a rendered JSON body (bodies end "}\n") with
// `,"trace_id":"<id>"` spliced before its final closing brace. The
// canonical body — a resident step's, a coalesced result, an error
// body — stays trace-free, so resident answers and coalescing produce
// byte-identical bodies modulo this one field. The body (immutable by
// convention) is written directly up to its final brace, so the warm
// path never copies the payload; only the few-byte trace-ID tail is
// assembled in the pooled scratch and written second.
func writeWithTraceID(w http.ResponseWriter, body []byte, id string) {
	i := bytes.LastIndexByte(body, '}')
	if i < 0 {
		w.Write(body)
		return
	}
	w.Write(body[:i])
	bp := bodyScratch.Get().(*[]byte)
	out := (*bp)[:0]
	if i > 0 && body[i-1] != '{' {
		out = append(out, ',')
	}
	out = append(out, `"trace_id":"`...)
	out = append(out, id...)
	out = append(out, `"}`...)
	out = append(out, body[i+1:]...)
	w.Write(out)
	*bp = out
	bodyScratch.Put(bp)
}

// finishTrace seals a trace and files it: out of the live table, its
// timed spans into the per-stage histograms, past Config.SlowTraceMs
// onto the structured log, and finally into the ring. The ring add
// hands ownership away — Trace records are pooled, so it must be the
// last touch.
func (g *Gateway) finishTrace(tr *trace.Trace, status int, now time.Time) {
	tr.Finish(status, now)
	g.live.Remove(tr)
	g.observeStages(tr)
	if g.cfg.SlowTraceMs > 0 && tr.DurMs() >= g.cfg.SlowTraceMs {
		g.slowTraces.Inc()
		g.logSlow(tr)
	}
	g.ring.Add(tr)
}

// observeStages feeds a completed trace's clock-bounded spans into the
// netcut_gateway_stage_ms{stage,device} histograms. Gate spans miss the
// map and are skipped — they are verdicts, not durations.
func (g *Gateway) observeStages(tr *trace.Trace) {
	byStage := g.stagesNone
	if l := g.lanes[tr.DeviceOr("")]; l != nil {
		byStage = l.stages
	}
	tr.ForEach(func(sp trace.Span) {
		if h, ok := byStage[sp.Stage]; ok {
			h.Observe(sp.DurMs)
		}
	})
}

// logSlow emits one structured line for a slow trace: identity and
// totals as top-level attributes, per-stage durations in a "stages"
// group, so a log pipeline can aggregate on any stage without parsing.
func (g *Gateway) logSlow(tr *trace.Trace) {
	v := tr.View(time.Now())
	stages := make([]any, 0, 2*len(v.Spans))
	for _, sp := range v.Spans {
		stages = append(stages, slog.Float64(sp.Stage, sp.DurMs))
	}
	slog.Default().LogAttrs(context.Background(), slog.LevelWarn, "slow request",
		slog.String("trace_id", v.ID),
		slog.String("name", v.Name),
		slog.String("device", tr.DeviceOr(stageDeviceNone)),
		slog.Int("status", v.Status),
		slog.Float64("dur_ms", v.DurMs),
		slog.Float64("threshold_ms", g.cfg.SlowTraceMs),
		slog.Group("stages", stages...),
	)
}

// handleTrace serves the completed-trace ring buffer, newest first.
// Query parameters filter the dump: id (exact trace ID), device,
// status (numeric), min_ms (minimum total duration), limit (defaults
// to 100; 0 means the whole ring).
func (g *Gateway) handleTrace(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	id, device := q.Get("id"), q.Get("device")
	var minMs float64
	var status int
	if s := q.Get("min_ms"); s != "" {
		v, err := strconv.ParseFloat(s, 64)
		if err != nil {
			g.writeErr(w, errf(http.StatusBadRequest, "bad_query", "min_ms: %v", err))
			return
		}
		minMs = v
	}
	if s := q.Get("status"); s != "" {
		v, err := strconv.Atoi(s)
		if err != nil {
			g.writeErr(w, errf(http.StatusBadRequest, "bad_query", "status: %v", err))
			return
		}
		status = v
	}
	limit := 100
	if s := q.Get("limit"); s != "" {
		v, err := strconv.Atoi(s)
		if err != nil || v < 0 {
			g.writeErr(w, errf(http.StatusBadRequest, "bad_query", "limit must be a non-negative integer"))
			return
		}
		limit = v
	}
	views := g.ring.Snapshot(time.Now(), func(v trace.View) bool {
		if id != "" && v.ID != id {
			return false
		}
		if device != "" && v.Device != device {
			return false
		}
		if status != 0 && v.Status != status {
			return false
		}
		return v.DurMs >= minMs
	})
	if limit > 0 && len(views) > limit {
		views = views[:limit]
	}
	b, err := json.MarshalIndent(map[string]any{"traces": views}, "", "  ")
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	writeJSON(w, http.StatusOK, append(b, '\n'))
}

// handleRequests dumps every in-flight request's live trace, oldest
// first — the longest-stuck request tops the list, with the spans it
// has recorded so far and its elapsed time, which is how a wedged lane
// or a stuck planner pass is diagnosed while it is stuck.
func (g *Gateway) handleRequests(w http.ResponseWriter, _ *http.Request) {
	views := g.live.Snapshot(time.Now())
	b, err := json.MarshalIndent(map[string]any{"requests": views}, "", "  ")
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	writeJSON(w, http.StatusOK, append(b, '\n'))
}
