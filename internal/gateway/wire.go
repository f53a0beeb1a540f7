package gateway

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"sync"
	"unicode/utf8"

	"netcut/internal/graph"
	"netcut/internal/serve"
	"netcut/internal/zoo"
)

// The JSON wire format of the planning API. A request names either a
// calibrated zoo network ("network") or carries a full layer graph
// ("graph"); the graph schema mirrors graph.Graph field for field, so
// decode-encode is lossless and the decoded structure passes the same
// graph.Validate boundary every other entry point uses.

// ShapeWire is a feature-map shape.
type ShapeWire struct {
	H int `json:"h"`
	W int `json:"w"`
	C int `json:"c"`
}

func (s ShapeWire) shape() graph.Shape { return graph.Shape{H: s.H, W: s.W, C: s.C} }

func wireShape(s graph.Shape) ShapeWire { return ShapeWire{H: s.H, W: s.W, C: s.C} }

// NodeWire is one layer. Block is a pointer so that "absent" (stem or
// head, -1 internally) is distinguishable from "block 0".
type NodeWire struct {
	ID          int        `json:"id"`
	Name        string     `json:"name,omitempty"`
	Kind        string     `json:"kind"`
	Inputs      []int      `json:"inputs,omitempty"`
	In          *ShapeWire `json:"in,omitempty"`
	Out         ShapeWire  `json:"out"`
	KH          int        `json:"kh,omitempty"`
	KW          int        `json:"kw,omitempty"`
	Stride      int        `json:"stride,omitempty"`
	Pad         string     `json:"pad,omitempty"` // "same" or "valid"
	MACs        int64      `json:"macs,omitempty"`
	Params      int64      `json:"params,omitempty"`
	WeightBytes int64      `json:"weight_bytes,omitempty"`
	IOBytes     int64      `json:"io_bytes,omitempty"`
	Block       *int       `json:"block,omitempty"`
	Head        bool       `json:"head,omitempty"`
}

// BlockWire is one removable block.
type BlockWire struct {
	Index  int    `json:"index"`
	Label  string `json:"label,omitempty"`
	Nodes  []int  `json:"nodes"`
	Output int    `json:"output"`
}

// GraphWire is a full layer graph.
type GraphWire struct {
	Name       string      `json:"name"`
	Input      ShapeWire   `json:"input"`
	NumClasses int         `json:"num_classes"`
	Nodes      []NodeWire  `json:"nodes"`
	Blocks     []BlockWire `json:"blocks,omitempty"`
}

// PlanRequestWire is the body of POST /v1/plan.
type PlanRequestWire struct {
	// Network requests a calibrated zoo architecture by name; Graph
	// submits an arbitrary layer graph. Exactly one must be set.
	Network string     `json:"network,omitempty"`
	Graph   *GraphWire `json:"graph,omitempty"`
	// Target names the device to plan for: a registered device name
	// (see GET /v1/devices), "auto" to let the gateway route to the
	// fastest qualifying target, or empty for the default device.
	Target string `json:"target,omitempty"`
	// DeadlineMs is the inference deadline; 0 means the prosthetic
	// hand's 0.9 ms.
	DeadlineMs float64 `json:"deadline_ms,omitempty"`
	// Estimator is "profiler" (default), "analytical" or "linear".
	Estimator string `json:"estimator,omitempty"`
	// BudgetMs is the client's remaining latency budget for THIS call.
	// 0 means unbounded; a positive budget below the target's observed
	// warm-path p99 is shed up front with 429 instead of being queued
	// into certain lateness (with target "auto", only when no
	// registered device's warm path fits the budget).
	BudgetMs float64 `json:"budget_ms,omitempty"`
	// AllowDegraded opts this request into degraded serving: instead
	// of a 429/503 when the budget is infeasible or the requested
	// device is unhealthy, the gateway deterministically falls back to
	// the fastest healthy device and returns its plan marked
	// "degraded": true with a degraded_reason. The flag is admission
	// policy only — the fallback body is byte-identical to an explicit
	// request naming that device (modulo trace_id and the degraded
	// markers), and it is not part of the coalescing identity. When the
	// whole fleet is unhealthy there is nothing to fall back to and the
	// 503 stands.
	AllowDegraded bool `json:"allow_degraded,omitempty"`
}

// PlanResponseWire is the body of a successful plan. Field order is
// fixed; together with encoding/json's deterministic float formatting
// this makes response bodies byte-comparable, the property the
// coalescing tests pin.
type PlanResponseWire struct {
	Device        string  `json:"device"`
	Feasible      bool    `json:"feasible"`
	Network       string  `json:"network,omitempty"`
	Parent        string  `json:"parent"`
	BlocksRemoved int     `json:"blocks_removed"`
	LayersRemoved int     `json:"layers_removed"`
	EstimatedMs   float64 `json:"estimated_ms"`
	MeasuredMs    float64 `json:"measured_ms"`
	Accuracy      float64 `json:"accuracy"`
	TrainHours    float64 `json:"train_hours"`
	Iterations    int     `json:"iterations"`
	// Degraded marks an opt-in fallback response: the request set
	// allow_degraded and its preferred outcome was infeasible (budget
	// too small, device unhealthy), so this plan came from the fastest
	// healthy device instead. Like TraceID below, both fields are
	// spliced into the rendered body at write time — EncodeResponse
	// never sets them, so the canonical body (the coalesce/byte-cache
	// value) stays clean and byte-identical to the explicit spelling of
	// the fallback target.
	Degraded bool `json:"degraded,omitempty"`
	// DegradedReason says why the fallback happened: "unhealthy_device"
	// or "budget_infeasible".
	DegradedReason string `json:"degraded_reason,omitempty"`
	// TraceID is the per-request trace identifier (16 lowercase hex
	// chars, also in the X-Netcut-Trace header). It is spliced into the
	// rendered body at response-write time — EncodeResponse never sets
	// it, so the canonical body (the coalesce/byte-cache value) stays
	// trace-free and byte-identical across serving paths. The field is
	// declared last to match the injected position.
	TraceID string `json:"trace_id,omitempty"`
}

// ErrorWire is the structured error body of every non-2xx response.
type ErrorWire struct {
	Code         string  `json:"code"`
	Error        string  `json:"error"`
	RetryAfterMs float64 `json:"retry_after_ms,omitempty"`
	// TraceID mirrors PlanResponseWire.TraceID: injected at write time,
	// never marshaled by the gateway itself.
	TraceID string `json:"trace_id,omitempty"`
}

// apiError carries an HTTP status plus the structured body.
type apiError struct {
	status int
	wire   ErrorWire
}

func (e *apiError) Error() string { return e.wire.Error }

func errf(status int, code, format string, args ...any) *apiError {
	return &apiError{status: status, wire: ErrorWire{Code: code, Error: fmt.Sprintf(format, args...)}}
}

// encBufPool recycles scratch buffers for EncodeResponse, so a warm
// miss renders its body with exactly one allocation (the returned
// slice, which outlives the call as the response and byte-cache value).
var encBufPool = sync.Pool{
	New: func() any { b := make([]byte, 0, 256); return &b },
}

// EncodeResponse renders a planner response as the gateway's response
// body. Exported so tests (and clients embedded in this repo) can pin
// the byte-identity contract: a coalesced or batched gateway body
// equals EncodeResponse of the same request served alone.
//
// The rendering is hand-rolled — field order and spelling mirror
// PlanResponseWire, and the scalar appenders replicate encoding/json's
// formatting exactly — so the warm path pays no reflective walk while
// the bytes stay identical to json.Marshal of the wire struct
// (TestEncodeResponseMatchesJSONMarshal pins the equivalence; change
// PlanResponseWire and this renderer together).
func EncodeResponse(r *serve.Response) []byte {
	bp := encBufPool.Get().(*[]byte)
	b := (*bp)[:0]
	b = append(b, `{"device":`...)
	b = appendJSONString(b, r.Device)
	b = append(b, `,"feasible":`...)
	b = strconv.AppendBool(b, r.Feasible)
	if r.Network != "" { // omitempty
		b = append(b, `,"network":`...)
		b = appendJSONString(b, r.Network)
	}
	b = append(b, `,"parent":`...)
	b = appendJSONString(b, r.Parent)
	b = append(b, `,"blocks_removed":`...)
	b = strconv.AppendInt(b, int64(r.BlocksRemoved), 10)
	b = append(b, `,"layers_removed":`...)
	b = strconv.AppendInt(b, int64(r.LayersRemoved), 10)
	b = append(b, `,"estimated_ms":`...)
	b = appendJSONFloat(b, r.EstimatedMs)
	b = append(b, `,"measured_ms":`...)
	b = appendJSONFloat(b, r.MeasuredMs)
	b = append(b, `,"accuracy":`...)
	b = appendJSONFloat(b, r.Accuracy)
	b = append(b, `,"train_hours":`...)
	b = appendJSONFloat(b, r.TrainHours)
	b = append(b, `,"iterations":`...)
	b = strconv.AppendInt(b, int64(r.Iterations), 10)
	b = append(b, '}', '\n')
	out := append(make([]byte, 0, len(b)), b...)
	*bp = b
	encBufPool.Put(bp)
	return out
}

// StripTraceID removes the injected `"trace_id":"..."` member from a
// response body, recovering the canonical rendering. The inverse of the
// write-time injection, exported so tests and embedded clients can pin
// the byte-identity contract across serving paths: two responses to the
// same request are byte-identical after stripping their (per-request)
// trace IDs. Bodies without the field come back unchanged.
func StripTraceID(body []byte) []byte {
	const field = `"trace_id":"`
	i := bytes.Index(body, []byte(field))
	if i < 0 {
		return body
	}
	end := i + len(field)
	for end < len(body) && body[end] != '"' {
		end++
	}
	if end >= len(body) {
		return body
	}
	end++ // the closing quote
	start := i
	if start > 0 && body[start-1] == ',' {
		start-- // drop the comma that joined the field to its predecessor
	}
	out := make([]byte, 0, len(body)-(end-start))
	out = append(out, body[:start]...)
	out = append(out, body[end:]...)
	return out
}

// injectDegraded splices `,"degraded":true,"degraded_reason":"<r>"`
// before the final closing brace of a rendered 200 body, mirroring the
// trace-ID splice (the trace ID is injected after this, so it stays
// the last member, matching PlanResponseWire's field order). Reasons
// are fixed tokens (degradedUnhealthy, degradedBudget), so no JSON
// escaping is needed. The copy is fine: degraded fallbacks are the
// rare path by construction.
func injectDegraded(body []byte, reason string) []byte {
	i := bytes.LastIndexByte(body, '}')
	if i < 0 {
		return body
	}
	out := make([]byte, 0, len(body)+len(reason)+len(`,"degraded":true,"degraded_reason":""`))
	out = append(out, body[:i]...)
	if i > 0 && body[i-1] != '{' {
		out = append(out, ',')
	}
	out = append(out, `"degraded":true,"degraded_reason":"`...)
	out = append(out, reason...)
	out = append(out, `"}`...)
	out = append(out, body[i+1:]...)
	return out
}

// StripDegraded removes the injected degraded markers from a response
// body, recovering the canonical rendering — the inverse of the
// write-time degraded splice, exported (like StripTraceID) so tests
// and clients can pin the byte-identity contract: a degraded fallback
// body equals the explicit spelling of its fallback target after
// stripping trace IDs and degraded markers. Bodies without the fields
// come back unchanged.
func StripDegraded(body []byte) []byte {
	if i := bytes.Index(body, []byte(`"degraded":true`)); i >= 0 {
		body = cutMember(body, i, i+len(`"degraded":true`))
	}
	const reason = `"degraded_reason":"`
	if i := bytes.Index(body, []byte(reason)); i >= 0 {
		end := i + len(reason)
		for end < len(body) && body[end] != '"' {
			end++
		}
		if end < len(body) {
			body = cutMember(body, i, end+1)
		}
	}
	return body
}

// cutMember removes body[start:end] plus the comma that joined the
// member to its predecessor, allocating the result (the StripTraceID
// splice shape).
func cutMember(body []byte, start, end int) []byte {
	if start > 0 && body[start-1] == ',' {
		start--
	}
	out := make([]byte, 0, len(body)-(end-start))
	out = append(out, body[:start]...)
	out = append(out, body[end:]...)
	return out
}

// appendJSONString appends s as a JSON string. The fast path covers
// printable ASCII with nothing to escape — every registered device and
// zoo network name; anything else (quotes, control bytes, non-ASCII,
// and the <, >, & that encoding/json HTML-escapes) falls back to
// json.Marshal so the escaping matches it byte for byte.
func appendJSONString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= 0x7f || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			enc, err := json.Marshal(s)
			if err != nil {
				panic(err) // a string value cannot fail to marshal
			}
			return append(b, enc...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}

// appendJSONFloat appends f exactly as encoding/json renders a float64:
// shortest representation, 'f' format unless the magnitude forces 'e',
// and the exponent's leading zero stripped (2.5e-09 -> 2.5e-9).
func appendJSONFloat(b []byte, f float64) []byte {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		// encoding/json rejects these; the planner never emits them.
		panic(&json.UnsupportedValueError{Str: strconv.FormatFloat(f, 'g', -1, 64)})
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}

// EncodeGraph renders g in the wire schema, the inverse of the request
// decoder; the gateway example and load generators build request
// bodies with it.
func EncodeGraph(g *graph.Graph) *GraphWire {
	w := &GraphWire{
		Name:       g.Name,
		Input:      wireShape(g.InputShape),
		NumClasses: g.NumClasses,
		Nodes:      make([]NodeWire, 0, len(g.Nodes)),
		Blocks:     make([]BlockWire, 0, len(g.Blocks)),
	}
	for _, n := range g.Nodes {
		nw := NodeWire{
			ID:          n.ID,
			Name:        n.Name,
			Kind:        n.Kind.String(),
			Inputs:      append([]int(nil), n.Inputs...),
			Out:         wireShape(n.Out),
			KH:          n.KH,
			KW:          n.KW,
			Stride:      n.Stride,
			MACs:        n.MACs,
			Params:      n.Params,
			WeightBytes: n.WeightBytes,
			IOBytes:     n.IOBytes,
			Head:        n.Head,
		}
		if n.In != (graph.Shape{}) {
			in := wireShape(n.In)
			nw.In = &in
		}
		if n.Kind == graph.OpConv || n.Kind == graph.OpDWConv ||
			n.Kind == graph.OpMaxPool || n.Kind == graph.OpAvgPool {
			nw.Pad = n.Pad.String()
		}
		if n.Block >= 0 {
			b := n.Block
			nw.Block = &b
		}
		w.Nodes = append(w.Nodes, nw)
	}
	for _, b := range g.Blocks {
		w.Blocks = append(w.Blocks, BlockWire{
			Index:  b.Index,
			Label:  b.Label,
			Nodes:  append([]int(nil), b.Nodes...),
			Output: b.Output,
		})
	}
	return w
}

// decodeGraph converts the wire schema to a graph.Graph. Structural
// soundness is graph.Validate's job; this only rejects what Validate
// cannot see from the assembled struct (unknown operator names, bad
// pad modes, node-count mismatches that would otherwise panic during
// assembly).
func decodeGraph(w *GraphWire) (*graph.Graph, *apiError) {
	if w.Name == "" {
		return nil, errf(http.StatusBadRequest, "invalid_graph", "graph: missing name")
	}
	g := &graph.Graph{
		Name:       w.Name,
		InputShape: w.Input.shape(),
		NumClasses: w.NumClasses,
		Nodes:      make([]*graph.Node, 0, len(w.Nodes)),
	}
	for i := range w.Nodes {
		nw := &w.Nodes[i]
		kind, ok := graph.ParseOpKind(nw.Kind)
		if !ok {
			return nil, errf(http.StatusBadRequest, "invalid_graph", "graph %s: node %d: unknown kind %q", w.Name, nw.ID, nw.Kind)
		}
		var pad graph.PadMode
		switch nw.Pad {
		case "", "valid":
			pad = graph.Valid
		case "same":
			pad = graph.Same
		default:
			return nil, errf(http.StatusBadRequest, "invalid_graph", "graph %s: node %d: unknown pad mode %q", w.Name, nw.ID, nw.Pad)
		}
		block := -1
		if nw.Block != nil {
			block = *nw.Block
		}
		n := &graph.Node{
			ID:          nw.ID,
			Name:        nw.Name,
			Kind:        kind,
			Inputs:      append([]int(nil), nw.Inputs...),
			Out:         nw.Out.shape(),
			KH:          nw.KH,
			KW:          nw.KW,
			Stride:      nw.Stride,
			Pad:         pad,
			MACs:        nw.MACs,
			Params:      nw.Params,
			WeightBytes: nw.WeightBytes,
			IOBytes:     nw.IOBytes,
			Block:       block,
			Head:        nw.Head,
		}
		if nw.In != nil {
			n.In = nw.In.shape()
		}
		g.Nodes = append(g.Nodes, n)
	}
	for _, bw := range w.Blocks {
		g.Blocks = append(g.Blocks, graph.Block{
			Index:  bw.Index,
			Label:  bw.Label,
			Nodes:  append([]int(nil), bw.Nodes...),
			Output: bw.Output,
		})
	}
	if err := graph.Validate(g); err != nil {
		return nil, errf(http.StatusBadRequest, "invalid_graph", "%v", err)
	}
	return g, nil
}

// zooCache shares one graph instance (and one fingerprint) per
// calibrated name across all shorthand requests: zoo graphs are
// immutable once built, and rebuilding ResNet-50's several hundred
// nodes per request would dominate the warm-path decode cost and
// stagger otherwise-coalescable arrivals.
var zooCache sync.Map // name -> zooEntry

type zooEntry struct {
	g     *graph.Graph
	print uint64
}

func zooGraph(name string) (*graph.Graph, error) {
	if e, ok := zooCache.Load(name); ok {
		return e.(zooEntry).g, nil
	}
	g, err := zoo.ByName(name)
	if err != nil {
		return nil, err
	}
	e, _ := zooCache.LoadOrStore(name, zooEntry{g: g, print: graph.Fingerprint(g)})
	return e.(zooEntry).g, nil
}

// fingerprintOf returns the request graph's structural fingerprint,
// served from the zoo cache for shorthand requests.
func fingerprintOf(g *graph.Graph) uint64 {
	if e, ok := zooCache.Load(g.Name); ok && e.(zooEntry).g == g {
		return e.(zooEntry).print
	}
	return graph.Fingerprint(g)
}

// decodedRequest is a parsed, validated plan request plus the identity
// the gateway coalesces on. target is the raw wire value ("", "auto"
// or a device name); admission resolves it to a concrete device and
// completes key.device before the key is ever used.
type decodedRequest struct {
	req      serve.Request
	target   string
	budgetMs float64
	key      coalesceKey
	// allowDegraded is the wire opt-in; degradedReason is set by
	// admission iff the degraded fallback actually happened, and makes
	// the response writer splice the degraded markers into a 200 body.
	// Neither is part of the coalescing identity: a degraded request
	// shares executions (and canonical bytes) with the explicit
	// spelling of its fallback target.
	allowDegraded  bool
	degradedReason string
}

// coalesceKey identifies requests that must receive byte-identical
// responses: planner responses are pure functions of (planner config,
// graph, deadline, estimator), and within one gateway each device's
// planner config is fixed, so (device, name, structure, deadline,
// estimator) is the full identity. Name is part of the key because
// measurement noise and transfer profiles derive from it; device is
// the resolved target, so an "auto" request coalesces with — and
// returns bytes identical to — the same request naming that device
// explicitly.
type coalesceKey struct {
	device    string
	name      string
	print     uint64
	deadline  float64
	estimator string
}

// decodeRequest parses and validates one request body. It never panics
// on arbitrary input (fuzzed), and everything it accepts is safe to
// hand to the planner. The body is read whole first, so a body over the
// http.MaxBytesReader limit is 413 wherever it would have turned
// malformed. Canonical bodies then take parseRequest's single pass;
// anything else goes to decodeRequestJSON over the same bytes.
func decodeRequest(body io.Reader) (*decodedRequest, *apiError) {
	data, err := io.ReadAll(body)
	if err != nil {
		var maxErr *http.MaxBytesError
		if errors.As(err, &maxErr) {
			return nil, errf(http.StatusRequestEntityTooLarge, "body_too_large",
				"request body exceeds %d bytes", maxErr.Limit)
		}
		return nil, errf(http.StatusBadRequest, "invalid_json", "decoding request: %v", err)
	}
	var wire PlanRequestWire
	if !parseRequest(data, &wire) {
		wire = PlanRequestWire{}
		if aerr := decodeRequestJSON(data, &wire); aerr != nil {
			return nil, aerr
		}
	}

	switch wire.Estimator {
	case "":
		// The planner treats empty as profiler; normalize so both
		// spellings coalesce.
		wire.Estimator = "profiler"
	case "profiler", "analytical", "linear":
	default:
		return nil, errf(http.StatusBadRequest, "invalid_estimator", "unknown estimator %q", wire.Estimator)
	}
	if wire.DeadlineMs < 0 {
		return nil, errf(http.StatusBadRequest, "invalid_deadline", "negative deadline %v", wire.DeadlineMs)
	}
	if wire.BudgetMs < 0 {
		return nil, errf(http.StatusBadRequest, "invalid_budget", "negative budget %v", wire.BudgetMs)
	}

	var g *graph.Graph
	switch {
	case wire.Network != "" && wire.Graph != nil:
		return nil, errf(http.StatusBadRequest, "ambiguous_request", "set either network or graph, not both")
	case wire.Network != "":
		zg, err := zooGraph(wire.Network)
		if err != nil {
			return nil, errf(http.StatusBadRequest, "unknown_network", "%v", err)
		}
		g = zg
	case wire.Graph != nil:
		var aerr *apiError
		if g, aerr = decodeGraph(wire.Graph); aerr != nil {
			return nil, aerr
		}
	default:
		return nil, errf(http.StatusBadRequest, "missing_graph", "set network or graph")
	}

	// Normalize the deadline the same way the planner does, so 0 and
	// the explicit default coalesce.
	deadline := wire.DeadlineMs
	if deadline == 0 {
		deadline = 0.9
	}
	// key.device stays empty here: only the gateway knows its device
	// registrations, so admission resolves the target (including
	// "auto") and completes the key before coalescing on it.
	return &decodedRequest{
		req: serve.Request{
			Graph:      g,
			DeadlineMs: deadline,
			Estimator:  wire.Estimator,
		},
		target:        wire.Target,
		budgetMs:      wire.BudgetMs,
		allowDegraded: wire.AllowDegraded,
		key: coalesceKey{
			name:      g.Name,
			print:     fingerprintOf(g),
			deadline:  deadline,
			estimator: wire.Estimator,
		},
	}, nil
}

// decodeRequestJSON is the reference decoder: encoding/json over the
// whole body, then a check that only whitespace follows the value. It
// decides every body parseRequest declines, so the bodies and errors
// outside the canonical subset are exactly encoding/json's.
func decodeRequestJSON(data []byte, wire *PlanRequestWire) *apiError {
	dec := json.NewDecoder(bytes.NewReader(data))
	if err := dec.Decode(wire); err != nil {
		return errf(http.StatusBadRequest, "invalid_json", "decoding request: %v", err)
	}
	// Trailing garbage after the JSON value is a malformed request, not
	// a second request.
	if err := dec.Decode(new(json.RawMessage)); err != io.EOF {
		return errf(http.StatusBadRequest, "invalid_json", "trailing data after request body")
	}
	return nil
}

// parseRequest decodes data into w in one pass, without reflection,
// when data is in the canonical subset of the wire format: one object
// of exact lowercase known keys, each at most once; strings with no
// escapes or control bytes (non-ASCII only as valid UTF-8); numbers
// in JSON grammar, integers with no fraction, exponent or overflow; no
// null; only whitespace after the object. json.Marshal of a request
// built with EncodeGraph is in the subset whenever its names need no
// JSON escaping. On that subset the result equals
// encoding/json's decode (FuzzDecodeRequest checks it); for anything
// else parseRequest reports false, leaving w partly filled, and the
// caller decodes with encoding/json instead.
func parseRequest(data []byte, w *PlanRequestWire) bool {
	p := wireParser{b: data}
	p.ws()
	if !p.object(func(key []byte) uint32 {
		switch string(key) {
		case "network":
			return p.str(&w.Network, 1<<0)
		case "graph":
			w.Graph = new(GraphWire)
			return p.graph(w.Graph, 1<<1)
		case "target":
			return p.str(&w.Target, 1<<2)
		case "deadline_ms":
			return p.float(&w.DeadlineMs, 1<<3)
		case "estimator":
			return p.str(&w.Estimator, 1<<4)
		case "budget_ms":
			return p.float(&w.BudgetMs, 1<<5)
		case "allow_degraded":
			return p.boolean(&w.AllowDegraded, 1<<6)
		}
		return 0
	}) {
		return false
	}
	p.ws()
	return p.i == len(p.b)
}

// wireParser is parseRequest's cursor. Each value method takes the
// destination and the field's bit in its object, and returns the bit
// on success and 0 when the value is outside the canonical subset.
type wireParser struct {
	b    []byte
	i    int
	ints []int // scratch for int arrays, copied out at their length
}

func (p *wireParser) ws() {
	b, i := p.b, p.i
	for i < len(b) && (b[i] == ' ' || b[i] == '\t' || b[i] == '\n' || b[i] == '\r') {
		i++
	}
	p.i = i
}

// lit consumes c if it is the next byte.
func (p *wireParser) lit(c byte) bool {
	if p.i < len(p.b) && p.b[p.i] == c {
		p.i++
		return true
	}
	return false
}

// object parses one object, calling member with the cursor on each
// value. member returns the key's field bit, or 0 for an unknown key
// or a value it declined; a zero or repeated bit declines the object.
func (p *wireParser) object(member func(key []byte) uint32) bool {
	if !p.lit('{') {
		return false
	}
	p.ws()
	if p.lit('}') {
		return true
	}
	var seen uint32
	for {
		key, ok := p.quoted()
		if !ok {
			return false
		}
		p.ws()
		if !p.lit(':') {
			return false
		}
		p.ws()
		bit := member(key)
		if bit == 0 || seen&bit != 0 {
			return false
		}
		seen |= bit
		p.ws()
		if p.lit('}') {
			return true
		}
		if !p.lit(',') {
			return false
		}
		p.ws()
	}
}

// array parses one array, calling elem with the cursor on each element.
func (p *wireParser) array(elem func() bool) bool {
	if !p.lit('[') {
		return false
	}
	p.ws()
	if p.lit(']') {
		return true
	}
	for {
		if !elem() {
			return false
		}
		p.ws()
		if p.lit(']') {
			return true
		}
		if !p.lit(',') {
			return false
		}
		p.ws()
	}
}

// quoted returns the bytes of a string with no escapes or control
// bytes, aliasing the input. Invalid UTF-8 is declined: encoding/json
// would replace it with U+FFFD.
func (p *wireParser) quoted() ([]byte, bool) {
	if !p.lit('"') {
		return nil, false
	}
	b, start, ascii := p.b, p.i, true
	for i := start; i < len(b); i++ {
		switch c := b[i]; {
		case c == '"':
			p.i = i + 1
			return b[start:i], ascii || utf8.Valid(b[start:i])
		case c == '\\' || c < 0x20:
			return nil, false
		case c >= utf8.RuneSelf:
			ascii = false
		}
	}
	return nil, false
}

func (p *wireParser) str(dst *string, bit uint32) uint32 {
	s, ok := p.quoted()
	if !ok {
		return 0
	}
	*dst = string(s)
	return bit
}

func (p *wireParser) boolean(dst *bool, bit uint32) uint32 {
	rest := p.b[p.i:]
	switch {
	case bytes.HasPrefix(rest, []byte("true")):
		*dst, p.i = true, p.i+4
	case bytes.HasPrefix(rest, []byte("false")):
		*dst, p.i = false, p.i+5
	default:
		return 0
	}
	return bit
}

// digits consumes a run of decimal digits and returns its length.
func (p *wireParser) digits() int {
	b, i := p.b, p.i
	for i < len(b) && '0' <= b[i] && b[i] <= '9' {
		i++
	}
	n := i - p.i
	p.i = i
	return n
}

// intValue parses an integer: an optional minus, then 0 or a digit run
// without a leading zero, in int64 range, not followed by a fraction
// or exponent (encoding/json rejects those for integer fields).
func (p *wireParser) intValue() (int64, bool) {
	neg := p.lit('-')
	start := p.i
	n := p.digits()
	// 19 digits always fit a uint64; any 20-digit value overflows int64.
	if n == 0 || n > 19 || (n > 1 && p.b[start] == '0') {
		return 0, false
	}
	if p.i < len(p.b) && (p.b[p.i] == '.' || p.b[p.i] == 'e' || p.b[p.i] == 'E') {
		return 0, false
	}
	var u uint64
	for _, c := range p.b[start:p.i] {
		u = u*10 + uint64(c-'0')
	}
	if neg {
		if u > 1<<63 {
			return 0, false
		}
		return -int64(u), true
	}
	if u > math.MaxInt64 {
		return 0, false
	}
	return int64(u), true
}

func (p *wireParser) integer64(dst *int64, bit uint32) uint32 {
	v, ok := p.intValue()
	if !ok {
		return 0
	}
	*dst = v
	return bit
}

func (p *wireParser) integer(dst *int, bit uint32) uint32 {
	v, ok := p.intValue()
	if !ok || int64(int(v)) != v {
		return 0
	}
	*dst = int(v)
	return bit
}

// float parses a number in JSON grammar with strconv.ParseFloat, the
// conversion encoding/json makes; out-of-range values are declined.
func (p *wireParser) float(dst *float64, bit uint32) uint32 {
	start := p.i
	p.lit('-')
	if !p.lit('0') && p.digits() == 0 {
		return 0
	}
	if p.lit('.') && p.digits() == 0 {
		return 0
	}
	if p.lit('e') || p.lit('E') {
		if !p.lit('+') {
			p.lit('-')
		}
		if p.digits() == 0 {
			return 0
		}
	}
	f, err := strconv.ParseFloat(string(p.b[start:p.i]), 64)
	if err != nil {
		return 0
	}
	*dst = f
	return bit
}

// intList parses an array of ints. "[]" decodes to an empty, non-nil
// slice, as encoding/json decodes it.
func (p *wireParser) intList(dst *[]int, bit uint32) uint32 {
	p.ints = p.ints[:0]
	if !p.array(func() bool {
		var v int
		ok := p.integer(&v, 1) != 0
		p.ints = append(p.ints, v)
		return ok
	}) {
		return 0
	}
	*dst = append(make([]int, 0, len(p.ints)), p.ints...)
	return bit
}

func (p *wireParser) shape(dst *ShapeWire, bit uint32) uint32 {
	if !p.object(func(key []byte) uint32 {
		switch string(key) {
		case "h":
			return p.integer(&dst.H, 1<<0)
		case "w":
			return p.integer(&dst.W, 1<<1)
		case "c":
			return p.integer(&dst.C, 1<<2)
		}
		return 0
	}) {
		return 0
	}
	return bit
}

func (p *wireParser) graph(g *GraphWire, bit uint32) uint32 {
	if !p.object(func(key []byte) uint32 {
		switch string(key) {
		case "name":
			return p.str(&g.Name, 1<<0)
		case "input":
			return p.shape(&g.Input, 1<<1)
		case "num_classes":
			return p.integer(&g.NumClasses, 1<<2)
		case "nodes":
			g.Nodes = []NodeWire{}
			if !p.array(func() bool {
				g.Nodes = append(g.Nodes, NodeWire{})
				return p.node(&g.Nodes[len(g.Nodes)-1])
			}) {
				return 0
			}
			return 1 << 3
		case "blocks":
			g.Blocks = []BlockWire{}
			if !p.array(func() bool {
				g.Blocks = append(g.Blocks, BlockWire{})
				return p.block(&g.Blocks[len(g.Blocks)-1])
			}) {
				return 0
			}
			return 1 << 4
		}
		return 0
	}) {
		return 0
	}
	return bit
}

func (p *wireParser) node(n *NodeWire) bool {
	return p.object(func(key []byte) uint32 {
		switch string(key) {
		case "id":
			return p.integer(&n.ID, 1<<0)
		case "name":
			return p.str(&n.Name, 1<<1)
		case "kind":
			return p.str(&n.Kind, 1<<2)
		case "inputs":
			return p.intList(&n.Inputs, 1<<3)
		case "in":
			n.In = new(ShapeWire)
			return p.shape(n.In, 1<<4)
		case "out":
			return p.shape(&n.Out, 1<<5)
		case "kh":
			return p.integer(&n.KH, 1<<6)
		case "kw":
			return p.integer(&n.KW, 1<<7)
		case "stride":
			return p.integer(&n.Stride, 1<<8)
		case "pad":
			return p.str(&n.Pad, 1<<9)
		case "macs":
			return p.integer64(&n.MACs, 1<<10)
		case "params":
			return p.integer64(&n.Params, 1<<11)
		case "weight_bytes":
			return p.integer64(&n.WeightBytes, 1<<12)
		case "io_bytes":
			return p.integer64(&n.IOBytes, 1<<13)
		case "block":
			n.Block = new(int)
			return p.integer(n.Block, 1<<14)
		case "head":
			return p.boolean(&n.Head, 1<<15)
		}
		return 0
	})
}

func (p *wireParser) block(b *BlockWire) bool {
	return p.object(func(key []byte) uint32 {
		switch string(key) {
		case "index":
			return p.integer(&b.Index, 1<<0)
		case "label":
			return p.str(&b.Label, 1<<1)
		case "nodes":
			return p.intList(&b.Nodes, 1<<2)
		case "output":
			return p.integer(&b.Output, 1<<3)
		}
		return 0
	})
}

// DeviceWire is one entry of GET /v1/devices: the registered
// calibration summary plus the target's live planning telemetry.
// Entries are listed in registration order — the order "auto" routing
// tie-breaks on — with the default device first.
type DeviceWire struct {
	Name    string `json:"name"`
	Default bool   `json:"default"`
	// Healthy is the fault-containment state "auto" routing reads: false
	// while repeated panics or watchdog abandons have tripped the device
	// and its background probe has not yet restored it.
	Healthy          bool    `json:"healthy"`
	Precision        string  `json:"precision"`
	PeakMACs         float64 `json:"peak_macs"`
	MemBandwidth     float64 `json:"mem_bandwidth_bytes"`
	LaunchOverheadMs float64 `json:"launch_overhead_ms"`
	Fusion           bool    `json:"fusion"`
	// Executions counts planning executions on this target;
	// WarmP99Ms is its estimated warm-path p99 (0 until the warm
	// histogram holds ShedMinSamples executions) — the estimate both
	// budget shedding and "auto" routing read.
	Executions uint64  `json:"executions"`
	WarmP99Ms  float64 `json:"warm_p99_ms"`
}
