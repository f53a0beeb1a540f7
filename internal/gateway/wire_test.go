package gateway

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"netcut/internal/graph"
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
	gw := EncodeGraph(benchGraph(14))
	graphBody, err := json.Marshal(PlanRequestWire{Graph: gw, DeadlineMs: 0.35})
	if err != nil {
		b.Fatal(err)
	}
	for _, bc := range []struct {
		name string
		body []byte
	}{
		{"graph", graphBody},
		{"shorthand", []byte(`{"network":"ResNet-50","deadline_ms":0.9}`)},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.SetBytes(int64(len(bc.body)))
			b.ReportAllocs()
			for b.Loop() {
				if _, aerr := decodeRequest(bytes.NewReader(bc.body)); aerr != nil {
					b.Fatal(aerr)
				}
			}
		})
	}
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
