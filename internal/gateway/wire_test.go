package gateway

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"netcut/internal/graph"
	"netcut/internal/serve"
	"netcut/internal/zoo"
)

// TestParseRequestTakesEncodedGraphs pins the canonical form: json.Marshal
// of an EncodeGraph request, for every zoo graph, must take the
// single-pass parser without falling back. If the wire structs or the
// encoder drift out of the subset parseRequest accepts, every request
// silently pays for encoding/json again.
func TestParseRequestTakesEncodedGraphs(t *testing.T) {
	graphs := append(zoo.Paper7(), zoo.ExtendedZoo()...)
	graphs = append(graphs, fuzzNet())
	for _, g := range graphs {
		req := PlanRequestWire{
			Graph:         EncodeGraph(g),
			Target:        "auto",
			DeadlineMs:    0.35,
			Estimator:     "analytical",
			BudgetMs:      12.5,
			AllowDegraded: true,
		}
		body, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		var fast PlanRequestWire
		if !parseRequest(body, &fast) {
			t.Fatalf("%s: encoded request fell back to encoding/json", g.Name)
		}
		var ref PlanRequestWire
		if err := json.Unmarshal(body, &ref); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(fast, ref) {
			t.Fatalf("%s: fast decode diverges from encoding/json", g.Name)
		}
	}
	for _, name := range zoo.Names {
		body, _ := json.Marshal(PlanRequestWire{Network: name, DeadlineMs: 0.9})
		if !parseRequest(body, new(PlanRequestWire)) {
			t.Fatalf("%s: shorthand request fell back to encoding/json", name)
		}
	}
}

// nonCanonicalBodies each break one rule of the canonical subset, so
// parseRequest must leave them to encoding/json, which accepts some and
// rejects others. They also seed FuzzDecodeRequest.
var nonCanonicalBodies = []string{
	`{"network":"Res\u004eet-50"}`,                                        // escape
	"{\"network\":\"ResNet-50\x01\"}",                                     // control byte
	"{\"network\":\"ResNet-50\n\"}",                                       // raw newline
	"{\"network\":\"\xff\"}",                                              // invalid UTF-8
	`{"Network":"ResNet-50"}`,                                             // mis-cased key
	`{"network":"ResNet-50","comment":"x"}`,                               // unknown key
	`{"network":"ResNet-50","network":"MobileNetV1 (0.25)"}`,              // duplicate key
	`{"graph":{"name":"x","nodes":[{"id":0,"in":{"h":1},"in":{"w":2}}]}}`, // nested duplicate
	`{"network":null}`,
	`{"graph":{"name":"x","nodes":[{"id":0,"inputs":null,"block":null}]}}`, // nested null
	`{"graph":{"name":"x","num_classes":1.0}}`,
	`{"graph":{"name":"x","num_classes":1e3}}`,
	`{"graph":{"name":"x","nodes":[{"id":0,"macs":9223372036854775808}]}}`,
	`{"network":"ResNet-50","deadline_ms":+1}`,
	`{"network":"ResNet-50","deadline_ms":.5}`,
	`{"network":"ResNet-50","deadline_ms":01}`,
	`{"network":"ResNet-50","deadline_ms":1e400}`,
	`{"network":"ResNet-50","deadline_ms":"1"}`,
	`{"network":"ResNet-50"} garbage`,
	`{"network":"ResNet-50"}{}`,
	`["ResNet-50"]`,
	``,
}

// canonicalEdgeBodies sit on the edge of the canonical subset and must
// stay on the fast path: free whitespace, the extreme int64s, signed
// zero with an exponent, and raw non-ASCII. They also seed
// FuzzDecodeRequest.
var canonicalEdgeBodies = []string{
	" {\"network\" : \"ResNet-50\" ,\t\"allow_degraded\" : true}\r\n",
	`{"graph":{"name":"x","nodes":[{"id":-9223372036854775808,"macs":9223372036854775807}]}}`,
	`{"network":"ResNet-50","deadline_ms":-0.0e-0,"budget_ms":1E+2}`,
	`{"graph":{"name":"ünïcode","nodes":[],"blocks":[]}}`,
}

// TestParseRequestDeclinesNonCanonical checks that each rule of the
// canonical subset sends its body to encoding/json, and that the
// request decoder then answers exactly as encoding/json alone would.
func TestParseRequestDeclinesNonCanonical(t *testing.T) {
	for _, body := range nonCanonicalBodies {
		if parseRequest([]byte(body), new(PlanRequestWire)) {
			t.Errorf("%q: accepted by the fast path", body)
		}
		var ref PlanRequestWire
		refErr := decodeRequestJSON([]byte(body), &ref)
		_, gotErr := decodeRequest(strings.NewReader(body))
		if refErr != nil && (gotErr == nil || *gotErr != *refErr) {
			t.Errorf("%q: error %+v, encoding/json alone gives %+v", body, gotErr, refErr)
		}
	}
	for _, body := range canonicalEdgeBodies {
		if !parseRequest([]byte(body), new(PlanRequestWire)) {
			t.Errorf("%q: declined by the fast path", body)
		}
	}
}

// BenchmarkDecodeRequest times one request decode — read, parse and
// validate, the gateway's decode trace stage — on a ~60-node generated
// graph body like the cold-graphs workload posts, and on a zoo
// shorthand body.
func BenchmarkDecodeRequest(b *testing.B) {
	for _, bc := range decodeBenchBodies(b) {
		b.Run(bc.name, benchDecode(bc.body))
	}
}

type namedBody struct {
	name string
	body []byte
}

func decodeBenchBodies(tb testing.TB) []namedBody {
	return []namedBody{
		{"graph", wireBody(tb, EncodeGraph(benchGraph(14)))},
		{"shorthand", []byte(`{"network":"ResNet-50","deadline_ms":0.9}`)},
	}
}

func benchDecode(body []byte) func(*testing.B) {
	return func(b *testing.B) {
		b.SetBytes(int64(len(body)))
		b.ReportAllocs()
		for b.Loop() {
			if _, aerr := decodeRequest(bytes.NewReader(body)); aerr != nil {
				b.Fatal(aerr)
			}
		}
	}
}

// wireBody is the canonical request body posting gw.
func wireBody(tb testing.TB, gw *GraphWire) []byte {
	tb.Helper()
	body, err := json.Marshal(PlanRequestWire{Graph: gw, DeadlineMs: 0.35})
	if err != nil {
		tb.Fatal(err)
	}
	return body
}

// TestDecodeRequestGarbage gates what a decode leaves for the
// collector, like TestResidentAnswerAllocs gates a resident answer: a
// graph body allocates the graph it returns and little else (the read
// buffer and wire scratch are pooled, op kinds and pad modes decode to
// constant strings, and the nodes' In and Block come from one slab), so
// a per-request copy of the body or of the node array fails here on
// bytes, and a per-node allocation creeping back fails on the count.
func TestDecodeRequestGarbage(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops pooled objects at random")
	}
	limits := map[string]struct{ bytes, allocs int64 }{
		"graph":     {32 << 10, 160},
		"shorthand": {512, 8},
	}
	for _, bc := range decodeBenchBodies(t) {
		res := testing.Benchmark(benchDecode(bc.body))
		got, allocs, lim := res.AllocedBytesPerOp(), res.AllocsPerOp(), limits[bc.name]
		if got > lim.bytes {
			t.Errorf("%s: a decode allocates %d B, want <= %d", bc.name, got, lim.bytes)
		}
		if allocs > lim.allocs {
			t.Errorf("%s: a decode makes %d allocations, want <= %d", bc.name, allocs, lim.allocs)
		}
		t.Logf("%s: %d B/op, %d allocs/op", bc.name, got, allocs)
	}
}

// TestDecodeRequestReuseIsStateless decodes, through the pool, a large
// graph, a small one, a body the fast path declines partway through
// its nodes, and a truncated body, from several goroutines at once.
// Each result must equal a decode on fresh scratch, and the first
// graph must be untouched by the decodes after it.
func TestDecodeRequestReuseIsStateless(t *testing.T) {
	large := EncodeGraph(benchGraph(14))
	late := EncodeGraph(benchGraph(14))
	late.Nodes[len(late.Nodes)-3].Name = `late "quoted" name` // escaped on the wire
	largeBody := wireBody(t, large)
	bodies := [][]byte{
		largeBody,
		wireBody(t, EncodeGraph(tinyGraph())),
		wireBody(t, late),
		largeBody[:len(largeBody)/2],
	}
	if parseRequest(bodies[2], new(PlanRequestWire)) {
		t.Fatal("the late-escape body took the fast path")
	}
	want := make([]*decodedRequest, len(bodies))
	wantErr := make([]*apiError, len(bodies))
	for i, body := range bodies {
		want[i], wantErr[i] = new(wireParser).decode(bytes.NewReader(body))
	}
	if wantErr[0] != nil || wantErr[1] != nil || wantErr[2] != nil || wantErr[3] == nil {
		t.Fatalf("fresh decodes: errors %v", wantErr)
	}

	var wg sync.WaitGroup
	for range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range 50 {
				var first *graph.Graph
				var names []string
				var inputs [][]int
				for i, body := range bodies {
					got, aerr := decodeRequest(bytes.NewReader(body))
					if !reflect.DeepEqual(got, want[i]) || !reflect.DeepEqual(aerr, wantErr[i]) {
						t.Errorf("body %d: pooled decode differs from a fresh one (error %v)", i, aerr)
						return
					}
					if i == 0 {
						first = got.req.Graph
						for _, n := range first.Nodes {
							names = append(names, strings.Clone(n.Name))
							inputs = append(inputs, slices.Clone(n.Inputs))
						}
					}
				}
				for j, n := range first.Nodes {
					if n.Name != names[j] || !slices.Equal(n.Inputs, inputs[j]) {
						t.Errorf("node %d of the first graph changed under later decodes", j)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}

// tinyGraph is a 3-node graph: input, dense head, softmax.
func tinyGraph() *graph.Graph {
	b := graph.NewBuilder("tiny-net", graph.Shape{H: 1, W: 1, C: 8}, 4)
	x := b.Input()
	b.BeginHead()
	x = b.Dense(x, 4)
	b.Softmax(x)
	return b.MustFinish()
}

// benchGraph builds a residual stack of the given depth (four nodes per
// block plus input, stem and head): depth 14 gives a 63-node graph.
func benchGraph(depth int) *graph.Graph {
	b := graph.NewBuilder("bench-net", graph.Shape{H: 32, W: 32, C: 3}, 10)
	x := b.Input()
	x = b.ConvBNReLU(x, 3, 16, 1, graph.Same)
	for i := 0; i < depth; i++ {
		b.BeginBlock("")
		y := b.ConvBNReLU(x, 3, 16, 1, graph.Same)
		x = b.Add(y, x)
		b.EndBlock()
	}
	b.BeginHead()
	x = b.GlobalAvgPool(x)
	x = b.Dense(x, 10)
	b.Softmax(x)
	return b.MustFinish()
}

// TestEncodeResponseBytes pins the plan body byte for byte against
// literal bodies, so a reordered or renamed PlanResponseWire field, or a
// change in float formatting or string escaping, fails here rather than
// passing every test that compares a body with EncodeResponse itself.
func TestEncodeResponseBytes(t *testing.T) {
	for _, tc := range []struct {
		name string
		r    serve.Response
		want string
	}{
		{"feasible", serve.Response{Device: "sim-xavier", Feasible: true, Network: "ResNet-50", Parent: "ResNet-50", BlocksRemoved: 3, LayersRemoved: 30, EstimatedMs: 0.8712, MeasuredMs: 0.88, Accuracy: 0.7415, TrainHours: 2.5, Iterations: 4},
			`{"device":"sim-xavier","feasible":true,"network":"ResNet-50","parent":"ResNet-50","blocks_removed":3,"layers_removed":30,"estimated_ms":0.8712,"measured_ms":0.88,"accuracy":0.7415,"train_hours":2.5,"iterations":4}`},
		{"e-format floats", serve.Response{Device: "sim-xavier", Feasible: true, Network: "e-floats", Parent: "p", EstimatedMs: 4.5e-9, MeasuredMs: 1e21, Accuracy: 1e-6, TrainHours: -9.9e-7, Iterations: 1},
			`{"device":"sim-xavier","feasible":true,"network":"e-floats","parent":"p","blocks_removed":0,"layers_removed":0,"estimated_ms":4.5e-9,"measured_ms":1e+21,"accuracy":0.000001,"train_hours":-9.9e-7,"iterations":1}`},
		{"large and shortest floats", serve.Response{Device: "sim-xavier", Feasible: true, Network: "big", Parent: "p", EstimatedMs: 1e20, MeasuredMs: 2.5e22, Accuracy: 1.0000000000000002},
			`{"device":"sim-xavier","feasible":true,"network":"big","parent":"p","blocks_removed":0,"layers_removed":0,"estimated_ms":100000000000000000000,"measured_ms":2.5e+22,"accuracy":1.0000000000000002,"train_hours":0,"iterations":0}`},
		{"html escaped", serve.Response{Device: "sim-xavier", Feasible: true, Network: "a<b>&c", Parent: "x", EstimatedMs: 1},
			`{"device":"sim-xavier","feasible":true,"network":"a\u003cb\u003e\u0026c","parent":"x","blocks_removed":0,"layers_removed":0,"estimated_ms":1,"measured_ms":0,"accuracy":0,"train_hours":0,"iterations":0}`},
		{"non-ascii and control bytes", serve.Response{Device: "sim-xavier", Feasible: true, Network: "Ünïcode-网络", Parent: "ctrl\x01\x1f\ttab", EstimatedMs: 1},
			`{"device":"sim-xavier","feasible":true,"network":"Ünïcode-网络","parent":"ctrl\u0001\u001f\ttab","blocks_removed":0,"layers_removed":0,"estimated_ms":1,"measured_ms":0,"accuracy":0,"train_hours":0,"iterations":0}`},
		{"quotes, invalid utf-8, line separator", serve.Response{Device: "sim-xavier", Feasible: true, Network: "quo\"te back\\slash", Parent: "bad\xffutf8 sep\u2028", EstimatedMs: 1},
			`{"device":"sim-xavier","feasible":true,"network":"quo\"te back\\slash","parent":"bad\ufffdutf8 sep\u2028","blocks_removed":0,"layers_removed":0,"estimated_ms":1,"measured_ms":0,"accuracy":0,"train_hours":0,"iterations":0}`},
		{"network omitted", serve.Response{Device: "sim-server-gpu", Feasible: true, Parent: "user-net-0", BlocksRemoved: 1, LayersRemoved: 2, EstimatedMs: 0.35, MeasuredMs: 0.36, Accuracy: 0.7, TrainHours: 1.25, Iterations: 2},
			`{"device":"sim-server-gpu","feasible":true,"parent":"user-net-0","blocks_removed":1,"layers_removed":2,"estimated_ms":0.35,"measured_ms":0.36,"accuracy":0.7,"train_hours":1.25,"iterations":2}`},
		{"infeasible", serve.Response{Device: "sim-xavier", Feasible: false, Network: "VGG-16", Parent: "VGG-16", BlocksRemoved: 4, LayersRemoved: 14, EstimatedMs: 3.141592653589793, MeasuredMs: 3.2, Accuracy: 0.6, TrainHours: 4, Iterations: 5},
			`{"device":"sim-xavier","feasible":false,"network":"VGG-16","parent":"VGG-16","blocks_removed":4,"layers_removed":14,"estimated_ms":3.141592653589793,"measured_ms":3.2,"accuracy":0.6,"train_hours":4,"iterations":5}`},
	} {
		if got := string(EncodeResponse(&tc.r)); got != tc.want+"\n" {
			t.Errorf("%s:\n got %s\nwant %s", tc.name, got, tc.want)
		}
	}
}

// TestEncodeResponseRejectsNonFinite pins the encoder's one divergence
// lever: values encoding/json would reject must panic, not render.
func TestEncodeResponseRejectsNonFinite(t *testing.T) {
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("EncodeResponse accepted %v", v)
				}
			}()
			EncodeResponse(&serve.Response{Device: "sim-xavier", EstimatedMs: v})
		}()
	}
}

// TestStripMembers pins the inverses of the write-time splices on the
// edge shapes no serving test produces: a lone member, a leading one,
// an absent one and an unterminated one. Every stripped body that was
// valid JSON stays valid JSON.
func TestStripMembers(t *testing.T) {
	for _, tc := range []struct {
		strip    func([]byte) []byte
		in, want string
	}{
		{StripTraceID, `{"device":"d","trace_id":"00ab"}` + "\n", `{"device":"d"}` + "\n"},
		{StripTraceID, `{"trace_id":"00ab"}`, `{}`},
		{StripTraceID, `{"trace_id":"00ab","device":"d"}`, `{"device":"d"}`},
		{StripTraceID, `{"device":"d"}`, `{"device":"d"}`},
		{StripTraceID, `{"device":"d","trace_id":"00ab`, `{"device":"d","trace_id":"00ab`},
		{StripDegraded, `{"device":"d","degraded":true,"degraded_reason":"budget_infeasible","trace_id":"00ab"}`, `{"device":"d","trace_id":"00ab"}`},
		{StripDegraded, `{"device":"d"}`, `{"device":"d"}`},
		{StripDegraded, `{"degraded":true,"degraded_reason":"budget_infeasible","device":"d"}`, `{"device":"d"}`},
		{StripDegraded, `{"degraded":true,"degraded_reason":"budget_infeasible"}`, `{}`},
		{StripDegraded, `{"degraded_reason":"unhealthy_device","device":"d"}`, `{"device":"d"}`},
		{StripDegraded, `{"device":"d","degraded":true,"degraded_reason":"unhealthy`, `{"device":"d","degraded_reason":"unhealthy`},
	} {
		got := string(tc.strip([]byte(tc.in)))
		if got != tc.want {
			t.Errorf("strip(%s) = %s, want %s", tc.in, got, tc.want)
		}
		if json.Valid([]byte(tc.in)) && !json.Valid([]byte(got)) {
			t.Errorf("strip(%s) = %s, not valid JSON", tc.in, got)
		}
	}
}
