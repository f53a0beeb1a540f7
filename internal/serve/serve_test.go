package serve

import (
	"errors"
	"fmt"
	"math"
	"os"
	"os/exec"
	"strings"
	"sync"
	"testing"

	"netcut/internal/graph"
	"netcut/internal/profiler"
	"netcut/internal/telemetry"
	"netcut/internal/zoo"
)

// quickProto keeps concurrency tests fast; determinism holds at any
// protocol because noise streams are seeded per network.
var quickProto = profiler.Protocol{WarmupRuns: 10, TimedRuns: 40}

// userNet builds a structurally distinct blocked network per index,
// standing in for the service's stream of arbitrary user graphs.
func userNet(i int) *graph.Graph { return namedNet(fmt.Sprintf("user-net-%d", i), i) }

// namedNet is userNet(i)'s structure under another name. A graph is
// sealed with its fingerprint when built, so it is built under the
// name it is planned with, never renamed afterwards.
func namedNet(name string, i int) *graph.Graph {
	b := graph.NewBuilder(name, graph.Shape{H: 32, W: 32, C: 3}, 8)
	x := b.Input()
	x = b.ConvBNReLU(x, 3, 8+i%4, 2, graph.Same)
	for blk := 0; blk < 3+i%3; blk++ {
		b.BeginBlock(fmt.Sprintf("b%d", blk))
		y := b.ConvBNReLU(x, 3, 8+i%4, 1, graph.Same)
		x = b.Add(y, x)
		x = b.ReLU(x)
		b.EndBlock()
	}
	b.BeginHead()
	x = b.GlobalAvgPool(x)
	x = b.Dense(x, 8)
	b.Softmax(x)
	return b.MustFinish()
}

// responseKey flattens a Response into one comparable value covering
// every field of the byte-identity contract.
func responseKey(r *Response) [10]interface{} {
	return [10]interface{}{
		r.Feasible, r.Network, r.Parent, r.BlocksRemoved, r.LayersRemoved,
		r.EstimatedMs, r.MeasuredMs, r.Accuracy, r.TrainHours, r.Iterations,
	}
}

// TestPlannerConcurrentStream hammers one Planner from many goroutines
// with a mix of distinct and repeated graphs and checks every response
// equals a serial replay on a fresh Planner — concurrency and cache
// sharing change wall-clock only.
func TestPlannerConcurrentStream(t *testing.T) {
	const (
		workers  = 8
		distinct = 6
		rounds   = 4
	)
	mk := func() *Planner {
		p, err := New(Config{Seed: 7, Protocol: quickProto})
		if err != nil {
			t.Fatal(err)
		}
		return p
	}

	// Serial reference on a fresh planner.
	ref := mk()
	want := make([][10]interface{}, distinct)
	for i := 0; i < distinct; i++ {
		r, err := ref.Select(Request{Graph: userNet(i), DeadlineMs: 0.35})
		if err != nil {
			t.Fatal(err)
		}
		want[i] = responseKey(r)
	}

	p := mk()
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for round := 0; round < rounds; round++ {
				for i := 0; i < distinct; i++ {
					g := userNet((i + w) % distinct)
					r, err := p.Select(Request{Graph: g, DeadlineMs: 0.35})
					if err != nil {
						errs <- fmt.Errorf("worker %d: %v", w, err)
						return
					}
					if responseKey(r) != want[(i+w)%distinct] {
						errs <- fmt.Errorf("worker %d round %d: response for %s diverged from serial replay", w, round, g.Name)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if s := p.Stats(); s.Requests != workers*rounds*distinct {
		t.Fatalf("request counter %d; want %d", s.Requests, workers*rounds*distinct)
	}
}

// TestPlannerBoundedCachesUnderStream pins the constant-memory claim:
// with tiny caps, a long stream of distinct architectures never grows
// any cache past its bound, and evicted architectures re-plan to
// byte-identical responses.
func TestPlannerBoundedCachesUnderStream(t *testing.T) {
	p, err := New(Config{
		Seed:                3,
		Protocol:            quickProto,
		PlanCacheCap:        4,
		MeasurementCacheCap: 4,
		TableCacheCap:       4,
	})
	if err != nil {
		t.Fatal(err)
	}
	first, err := p.Select(Request{Graph: userNet(0), DeadlineMs: 0.35})
	if err != nil {
		t.Fatal(err)
	}
	const stream = 24
	for i := 1; i < stream; i++ {
		if _, err := p.Select(Request{Graph: userNet(i % 12), DeadlineMs: 0.35}); err != nil {
			t.Fatal(err)
		}
		s := p.Stats()
		if s.Plans.Len > 4 || s.Measurements.Len > 4 || s.Tables.Len > 4 {
			t.Fatalf("cache bound exceeded after request %d: %+v", i, s)
		}
	}
	s := p.Stats()
	if s.Plans.Evictions == 0 || s.Measurements.Evictions == 0 {
		t.Fatalf("expected evictions under a 12-architecture stream with cap 4: %+v", s)
	}
	again, err := p.Select(Request{Graph: userNet(0), DeadlineMs: 0.35})
	if err != nil {
		t.Fatal(err)
	}
	if responseKey(again) != responseKey(first) {
		t.Fatalf("post-eviction response %v differs from pre-eviction %v", responseKey(again), responseKey(first))
	}
}

// TestPlannerUnknownNetworkDeterministic checks that graphs outside the
// calibrated zoo get a deterministic generic transfer profile: two
// independent planners with the same seed produce identical responses.
func TestPlannerUnknownNetworkDeterministic(t *testing.T) {
	run := func() *Response {
		p, err := New(Config{Seed: 11, Protocol: quickProto})
		if err != nil {
			t.Fatal(err)
		}
		r, err := p.Select(Request{Graph: userNet(2), DeadlineMs: 0.35})
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	a, b := run(), run()
	if responseKey(a) != responseKey(b) {
		t.Fatalf("unknown-network planning not reproducible: %v vs %v", responseKey(a), responseKey(b))
	}
	if !a.Feasible {
		t.Fatal("expected a feasible cut for the small user net at 0.35 ms")
	}
	if a.Accuracy <= 0 || a.Accuracy > 1 {
		t.Fatalf("implausible accuracy %v", a.Accuracy)
	}
}

// TestPlannerEstimatorKinds exercises all three estimator kinds on one
// planner, sharing the zoo-trained analytical model across requests.
func TestPlannerEstimatorKinds(t *testing.T) {
	if testing.Short() {
		t.Skip("trains the shared SVR")
	}
	p, err := New(Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	g, err := zoo.ByName("ResNet-50")
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range []string{"profiler", "analytical", "linear"} {
		r, err := p.Select(Request{Graph: g, DeadlineMs: 0.9, Estimator: kind})
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if !r.Feasible {
			t.Fatalf("%s: ResNet-50 infeasible at 0.9 ms", kind)
		}
		if r.Parent != "ResNet-50" {
			t.Fatalf("%s: parent %q", kind, r.Parent)
		}
	}
	// The shared analytical model must also serve a non-zoo parent via
	// the copy-on-write latency overlay.
	r, err := p.Select(Request{Graph: userNet(0), DeadlineMs: 0.35, Estimator: "analytical"})
	if err != nil {
		t.Fatal(err)
	}
	if r.Parent != "user-net-0" {
		t.Fatalf("parent %q", r.Parent)
	}
}

// TestPlannerRejectsInvalid checks the service survives malformed
// input: nil graphs, structurally invalid graphs, negative deadlines.
func TestPlannerRejectsInvalid(t *testing.T) {
	p, err := New(Config{Seed: 1, Protocol: quickProto})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Select(Request{}); err == nil {
		t.Fatal("nil graph accepted")
	}
	// A hand-built graph is unsealed, so Select validates it.
	bad := &graph.Graph{Name: "bad", Nodes: []*graph.Node{{ID: 0, Kind: graph.OpConv}}}
	if _, err := p.Select(Request{Graph: bad}); err == nil || !strings.HasPrefix(err.Error(), "serve: rejecting graph") {
		t.Fatalf("invalid unsealed graph: err = %v", err)
	}
	if _, err := p.Select(Request{Graph: userNet(0), DeadlineMs: -1}); err == nil {
		t.Fatal("negative deadline accepted")
	}
	if _, err := p.Select(Request{Graph: userNet(0), Estimator: "oracle"}); err == nil {
		t.Fatal("unknown estimator accepted")
	}
}

// TestPlannerUnknownEstimatorDoesNoWork pins that an unknown
// estimator is rejected before any planner work: no execution is
// counted, the graph is not measured and its name is not bound.
func TestPlannerUnknownEstimatorDoesNoWork(t *testing.T) {
	p, err := New(Config{Seed: 1, Protocol: quickProto})
	if err != nil {
		t.Fatal(err)
	}
	p.Instrument(telemetry.NewRegistry())
	g := userNet(0)
	_, err = p.Select(Request{Graph: g, Estimator: "bogus"})
	if err == nil || err.Error() != `serve: unknown estimator "bogus"` {
		t.Fatalf("err = %v", err)
	}
	if n := p.Executions(); n != 0 {
		t.Fatalf("executions = %d after a rejected estimator, want 0", n)
	}
	if p.Profiler().HasMeasurement(g) {
		t.Fatal("a request with an unknown estimator measured its graph")
	}
	// Neither rejection bound user-net-0 to g's structure.
	if _, err := p.Select(Request{Graph: g, DeadlineMs: -1}); err == nil {
		t.Fatal("negative deadline accepted")
	}
	if _, err := p.Select(Request{Graph: namedNet("user-net-0", 1), DeadlineMs: 0.35}); err != nil {
		t.Fatalf("name bound by rejected requests: %v", err)
	}
}

// TestPlannerDeadlineEdges pins Select on zero and non-finite
// deadlines: NaN and -Inf are rejected like a negative deadline (a NaN
// deadline used to pass both checks and plan ResNet-50/0 as feasible),
// 0 plans exactly like the 0.9 ms default, and +Inf is met by the
// unmodified network.
func TestPlannerDeadlineEdges(t *testing.T) {
	p, err := New(Config{Seed: 1, Protocol: quickProto})
	if err != nil {
		t.Fatal(err)
	}
	g := zoo.ResNet50()
	def, err := p.Select(Request{Graph: g, DeadlineMs: 0.9})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name     string
		deadline float64
		reject   bool
		want     func(r *Response) bool
	}{
		{"NaN", math.NaN(), true, nil},
		{"-Inf", math.Inf(-1), true, nil},
		{"zero", 0, false, func(r *Response) bool { return responseKey(r) == responseKey(def) }},
		{"+Inf", math.Inf(1), false, func(r *Response) bool {
			return r.Feasible && r.BlocksRemoved == 0 && r.Network == "ResNet-50/0"
		}},
	}
	for _, c := range cases {
		r, err := p.Select(Request{Graph: g, DeadlineMs: c.deadline})
		switch {
		case c.reject && err == nil:
			t.Errorf("%s: accepted, planned %s (feasible %v)", c.name, r.Network, r.Feasible)
		case !c.reject && err != nil:
			t.Errorf("%s: %v", c.name, err)
		case !c.reject && !c.want(r):
			t.Errorf("%s: planned %+v", c.name, responseKey(r))
		}
	}
}

// TestZooNameBoundOnFirstRequest pins that a zoo name is bound before
// the zoo exists: a structurally different graph named ResNet-50 is
// rejected as the process's very first request, and the genuine
// network then plans. It reruns itself in a fresh process, where no
// zoo graph has been built yet.
func TestZooNameBoundOnFirstRequest(t *testing.T) {
	if os.Getenv("NETCUT_ZOO_FIRST_REQUEST") == "" {
		cmd := exec.Command(os.Args[0], "-test.run=^TestZooNameBoundOnFirstRequest$", "-test.count=1")
		cmd.Env = append(os.Environ(), "NETCUT_ZOO_FIRST_REQUEST=1")
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("fresh process: %v\n%s", err, out)
		}
		return
	}
	p, err := New(Config{Seed: 1, Protocol: quickProto})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Select(Request{Graph: namedNet("ResNet-50", 2), DeadlineMs: 0.35}); !errors.Is(err, ErrNameBound) {
		t.Fatalf("fake ResNet-50 as the first request: %v, want ErrNameBound", err)
	}
	g, err := zoo.ByName("ResNet-50")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Select(Request{Graph: g, DeadlineMs: 0.9}); err != nil {
		t.Fatal(err)
	}
}

// TestPlannerRejectsNameCollisions pins the one-structure-per-name
// admission rule: measurement seeds and transfer profiles key on the
// network name, so a different structure under an admitted name must
// be rejected, not silently served with the first structure's curves.
func TestPlannerRejectsNameCollisions(t *testing.T) {
	p, err := New(Config{Seed: 1, Protocol: quickProto})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Select(Request{Graph: userNet(0), DeadlineMs: 0.35}); err != nil {
		t.Fatal(err)
	}
	// Same name, different structure.
	imposter := namedNet("user-net-0", 1)
	if _, err := p.Select(Request{Graph: imposter, DeadlineMs: 0.35}); err == nil {
		t.Fatal("structurally different graph admitted under an existing name")
	}
	// Zoo names are bound to the calibrated networks before any zoo
	// request.
	fake := namedNet("ResNet-50", 2)
	if _, err := p.Select(Request{Graph: fake, DeadlineMs: 0.35}); !errors.Is(err, ErrNameBound) {
		t.Fatalf("fake ResNet-50 against the calibrated name: %v, want ErrNameBound", err)
	}
	// The genuine structures keep working.
	if _, err := p.Select(Request{Graph: userNet(0), DeadlineMs: 0.35}); err != nil {
		t.Fatal(err)
	}
}
