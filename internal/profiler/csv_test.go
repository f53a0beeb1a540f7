package profiler

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"netcut/internal/zoo"
)

func TestCSVRoundTrip(t *testing.T) {
	p := newProfiler(t, Protocol{WarmupRuns: 20, TimedRuns: 30})
	g, _ := zoo.ByName("MobileNetV1 (0.25)")
	tbl := p.Profile(g)

	var buf bytes.Buffer
	if err := tbl.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCSV(tbl.Network, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Layers) != len(tbl.Layers) {
		t.Fatalf("round trip lost layers: %d vs %d", len(got.Layers), len(tbl.Layers))
	}
	if math.Abs(got.EndToEndMs-tbl.EndToEndMs) > 1e-6 {
		t.Fatalf("end-to-end %v vs %v", got.EndToEndMs, tbl.EndToEndMs)
	}
	for _, l := range tbl.Layers {
		ms, ok := got.LayerMs(l.NodeID)
		if !ok {
			t.Fatalf("layer %d lost", l.NodeID)
		}
		if math.Abs(ms-l.MeanMs) > 1e-6 {
			t.Fatalf("layer %d latency %v vs %v", l.NodeID, ms, l.MeanMs)
		}
	}
	for i, l := range tbl.Layers {
		if g := got.Layers[i]; g.NodeID != l.NodeID || g.Name != l.Name || g.Kind != l.Kind {
			t.Fatalf("row %d: read back %d %q %v, wrote %d %q %v", i, g.NodeID, g.Name, g.Kind, l.NodeID, l.Name, l.Kind)
		}
	}
	if math.Abs(got.SumMs()-tbl.SumMs()) > 1e-4 {
		t.Fatalf("sum %v vs %v", got.SumMs(), tbl.SumMs())
	}
}

func TestReadCSVErrors(t *testing.T) {
	cases := map[string]string{
		"empty":        "",
		"header only":  "node_id,name,kind,mean_ms\n",
		"bad id":       "node_id,name,kind,mean_ms\nx,conv,Conv,0.1\n-1,end_to_end,,1\n",
		"bad latency":  "node_id,name,kind,mean_ms\n1,conv,Conv,zzz\n-1,end_to_end,,1\n",
		"no summary":   "node_id,name,kind,mean_ms\n1,conv,Conv,0.1\n",
		"wrong fields": "node_id,name,kind\n1,conv,Conv\n",
		"duplicate id": "node_id,name,kind,mean_ms\n1,conv,Conv,0.1\n1,conv,Conv,0.1\n-1,end_to_end,,1\n",
		"negative id":  "node_id,name,kind,mean_ms\n-2,conv,Conv,0.1\n-1,end_to_end,,1\n",
		"id past rows": "node_id,name,kind,mean_ms\n2,conv,Conv,0.1\n-1,end_to_end,,1\n",
		"unknown kind": "node_id,name,kind,mean_ms\n1,conv,Teleport,0.1\n-1,end_to_end,,1\n",
		"NaN latency":  "node_id,name,kind,mean_ms\n1,conv,Conv,NaN\n-1,end_to_end,,1\n",
		"Inf latency":  "node_id,name,kind,mean_ms\n1,conv,Conv,+Inf\n-1,end_to_end,,1\n",
		"negative":     "node_id,name,kind,mean_ms\n1,conv,Conv,-0.1\n-1,end_to_end,,1\n",
		"NaN summary":  "node_id,name,kind,mean_ms\n1,conv,Conv,0.1\n-1,end_to_end,,NaN\n",
	}
	for name, in := range cases {
		if _, err := ReadCSV("x", strings.NewReader(in)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}
