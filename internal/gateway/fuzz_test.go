package gateway

import (
	"bytes"
	"encoding/json"
	"io"
	"reflect"
	"testing"

	"netcut/internal/graph"
)

// FuzzDecodeRequest is the gateway's untrusted-input fuzz target,
// extending the graph.Validate fuzz boundary to the JSON layer: the
// request decoder must reject — never panic on — arbitrary bytes, and
// any request it accepts must carry a graph the planning pipeline can
// safely run (the property the graph-package fuzzers pin for Validate
// acceptances). Whenever the single-pass parser accepts a body, its
// decode must equal encoding/json's, so the fast path can never change
// what a request means.
func FuzzDecodeRequest(f *testing.F) {
	// Well-formed seeds: zoo shorthand, a full encoded user graph, and
	// each knob exercised.
	f.Add([]byte(`{"network":"ResNet-50","deadline_ms":0.9}`))
	f.Add([]byte(`{"network":"MobileNetV1 (0.25)","estimator":"analytical","budget_ms":10}`))
	if gw, err := json.Marshal(EncodeGraph(fuzzNet())); err == nil {
		f.Add([]byte(`{"graph":` + string(gw) + `,"deadline_ms":0.35}`))
	}
	// Malformed seeds: truncations, wrong types, corrupted structure.
	f.Add([]byte(`{"graph":{"name":"x","nodes":[{"id":7,"kind":"Conv"}]}}`))
	f.Add([]byte(`{"graph":{"name":"x","nodes":[{"id":0,"kind":"Input","block":0}]}}`))
	f.Add([]byte(`{"network":42}`))
	f.Add([]byte(`[`))
	f.Add([]byte(``))
	// Edges of the canonical subset, on both sides.
	for _, body := range nonCanonicalBodies {
		f.Add([]byte(body))
	}
	for _, body := range canonicalEdgeBodies {
		f.Add([]byte(body))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		var fast PlanRequestWire
		if parseRequest(data, &fast) {
			var ref PlanRequestWire
			dec := json.NewDecoder(bytes.NewReader(data))
			if err := dec.Decode(&ref); err != nil {
				t.Fatalf("fast path accepted a body encoding/json rejects: %v", err)
			}
			if err := dec.Decode(new(json.RawMessage)); err != io.EOF {
				t.Fatalf("fast path accepted trailing data: %v", err)
			}
			if !reflect.DeepEqual(fast, ref) {
				t.Fatalf("fast path decode diverges from encoding/json:\n fast %+v\n json %+v", fast, ref)
			}
		}
		dec, aerr := decodeRequest(bytes.NewReader(data))
		if aerr != nil {
			if aerr.status < 400 || aerr.status > 499 {
				t.Fatalf("decode rejection with non-4xx status %d", aerr.status)
			}
			if aerr.wire.Code == "" {
				t.Fatal("decode rejection without a structured code")
			}
			return
		}
		// Accepted: the decoded request must satisfy the invariants the
		// planner's admission relies on.
		if dec.req.Graph == nil {
			t.Fatal("accepted request with nil graph")
		}
		if err := graph.Validate(dec.req.Graph); err != nil {
			t.Fatalf("accepted graph fails Validate: %v", err)
		}
		if dec.req.DeadlineMs <= 0 {
			t.Fatalf("accepted non-positive deadline %v", dec.req.DeadlineMs)
		}
		if dec.key.print != graph.Fingerprint(dec.req.Graph) {
			t.Fatal("coalescing key fingerprint diverges from the graph")
		}
	})
}

func fuzzNet() *graph.Graph {
	b := graph.NewBuilder("fuzz-seed-net", graph.Shape{H: 16, W: 16, C: 3}, 4)
	x := b.Input()
	x = b.ConvBNReLU(x, 3, 8, 2, graph.Same)
	b.BeginBlock("b0")
	y := b.ConvBNReLU(x, 3, 8, 1, graph.Same)
	x = b.Add(y, x)
	x = b.ReLU(x)
	b.EndBlock()
	b.BeginHead()
	x = b.GlobalAvgPool(x)
	x = b.Dense(x, 4)
	b.Softmax(x)
	return b.MustFinish()
}
