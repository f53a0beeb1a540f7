package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"netcut/internal/gateway"
	"netcut/internal/graph"
)

// TestStreamsReplayable pins the replay contract: one seed gives a
// byte-identical request sequence, another seed a different one.
func TestStreamsReplayable(t *testing.T) {
	for _, name := range workloadNames {
		a, err := newStream(name, 7)
		if err != nil {
			t.Fatal(err)
		}
		b, err := newStream(name, 7)
		if err != nil {
			t.Fatal(err)
		}
		c, err := newStream(name, 8)
		if err != nil {
			t.Fatal(err)
		}
		ha, err := a.hash()
		if err != nil {
			t.Fatal(err)
		}
		hb, _ := b.hash()
		hc, _ := c.hash()
		if ha != hb {
			t.Errorf("%s: seed 7 hashed %s then %s", name, ha, hb)
		}
		if ha == hc {
			t.Errorf("%s: seeds 7 and 8 both hashed %s", name, ha)
		}
		// Items are independent of the order they are drawn in, which is
		// what lets concurrent clients claim them from a shared counter.
		for _, i := range []int{999, 3, 500, 0} {
			x, _ := a.body(a.at(i))
			y, _ := b.body(b.at(i))
			if !bytes.Equal(x, y) {
				t.Errorf("%s: request %d differs between two streams of one seed", name, i)
			}
		}
	}
}

// TestColdGraphsUniqueAndValid checks that every cold-graphs graph is
// new to the server by name and by structure, passes graph.Validate,
// and survives the wire round trip the server performs.
func TestColdGraphsUniqueAndValid(t *testing.T) {
	st, err := newStream(coldGraphs, 3)
	if err != nil {
		t.Fatal(err)
	}
	names := make(map[string]bool)
	prints := make(map[uint64]bool)
	for i := 0; i < 600; i += 2 {
		r := st.at(i)
		if st.at(i+1) != r {
			t.Fatalf("request %d is not a repeat of request %d", i+1, i)
		}
		g, err := st.graphOf(r)
		if err != nil {
			t.Fatal(err)
		}
		if err := graph.Validate(g); err != nil {
			t.Fatal(err)
		}
		p := graph.Fingerprint(g)
		if names[g.Name] || prints[p] {
			t.Fatalf("graph %d (%s) repeats an earlier name or structure", r.GraphIndex, g.Name)
		}
		names[g.Name], prints[p] = true, true

		body, err := st.body(r)
		if err != nil {
			t.Fatal(err)
		}
		var wire struct {
			Graph json.RawMessage `json:"graph"`
		}
		if err := json.Unmarshal(body, &wire); err != nil {
			t.Fatal(err)
		}
		var gw gateway.GraphWire
		if err := json.Unmarshal(wire.Graph, &gw); err != nil {
			t.Fatal(err)
		}
		back, err := decodeGraph(&gw)
		if err != nil {
			t.Fatal(err)
		}
		if graph.Fingerprint(back) != p {
			t.Fatalf("graph %s changes structure over the wire", g.Name)
		}
	}
}

// benchmarkSpec is the part of BENCHMARK.json the smoke test checks.
type benchmarkSpec struct {
	Workloads []struct{ Name string }       `json:"workloads"`
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

// TestSmokeAllWorkloads runs every workload briefly against a real
// netserve, untraced and traced, and checks that each run is correct
// and prints exactly the metrics BENCHMARK.json declares.
func TestSmokeAllWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs netserve")
	}
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var declared []string
	for _, w := range spec.Workloads {
		declared = append(declared, w.Name)
	}
	if !equalSets(declared, workloadNames) {
		t.Fatalf("BENCHMARK.json workloads %v, benchmark knows %v", declared, workloadNames)
	}
	units := func(list []struct{ Name, Unit string }) map[string]string {
		m := make(map[string]string)
		for _, e := range list {
			m[e.Name] = e.Unit
		}
		return m
	}
	want := map[bool]map[string]string{false: units(spec.EndToEnd), true: units(spec.PerLayer)}

	dir := t.TempDir()
	bin := filepath.Join(dir, "netserve")
	if out, err := exec.Command("go", "build", "-o", bin, "netcut/cmd/netserve").CombinedOutput(); err != nil {
		t.Fatalf("building netserve: %v\n%s", err, out)
	}
	for _, name := range workloadNames {
		for _, trace := range []bool{false, true} {
			cfg := config{workload: name, seed: 5, duration: 300 * time.Millisecond, trace: trace,
				netserve: bin, workDir: filepath.Join(dir, "work"), setups: 2, commit: "test"}
			var log bytes.Buffer
			res, err := run(cfg, &log)
			if err != nil {
				t.Fatalf("%s trace=%v: %v\n%s", name, trace, err, log.String())
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Fatalf("%s trace=%v: correct=%v failed=%d attempted=%d\n%s",
					name, trace, res.Correct, res.Failed, res.Attempted, log.String())
			}
			if len(res.Metrics) != len(want[trace]) {
				t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json declares %d", name, trace, len(res.Metrics), len(want[trace]))
			}
			for m, unit := range want[trace] {
				got, ok := res.Metrics[m]
				if !ok || got.Unit != unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %s", name, trace, m, got, unit)
				}
			}
		}
	}
}

func equalSets(a, b []string) bool {
	a, b = slices.Clone(a), slices.Clone(b)
	slices.Sort(a)
	slices.Sort(b)
	return slices.Equal(a, b)
}
