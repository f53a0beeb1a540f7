package serve

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"netcut/internal/core"
	"netcut/internal/device"
	"netcut/internal/estimate"
	"netcut/internal/graph"
	"netcut/internal/telemetry"
	"netcut/internal/trim"
	"netcut/internal/zoo"
)

// loopSelect is Select as it was before the answer staircase: Algorithm
// 1 run from scratch for one request, through loopExplore. It keeps no
// state between requests beyond the planner's transparent caches, so
// calling it on a planner that has served nothing through Select
// answers every deadline as a fresh planner would.
func loopSelect(p *Planner, g *graph.Graph, deadline float64, kind string) (*Response, error) {
	if deadline == 0 {
		deadline = 0.9
	}
	cand, tbl, err := p.candidate(g, kind == "profiler")
	if err != nil {
		return nil, err
	}
	est, err := p.estimator(kind, g, cand.MeasuredMs, tbl)
	if err != nil {
		return nil, err
	}
	best, feasible, err := loopExplore(cand, deadline, est, p.rt, p.cfg.Head)
	if err != nil {
		return nil, err
	}
	if !feasible {
		return &Response{Device: p.cfg.Device.Name, Parent: g.Name}, nil
	}
	return &Response{
		Device:        p.cfg.Device.Name,
		Feasible:      true,
		Network:       best.TRN.Name(),
		Parent:        g.Name,
		BlocksRemoved: best.Cutpoint,
		LayersRemoved: best.TRN.LayersRemoved,
		EstimatedMs:   best.EstimateMs,
		MeasuredMs:    p.dev.LatencyMs(best.TRN.Graph),
		Accuracy:      best.Accuracy,
		TrainHours:    best.TrainHours,
		Iterations:    best.Iterations,
		TRN:           best.TRN,
	}, nil
}

// loopExplore is core's exploreOne as it was before core.Staircase, kept
// verbatim (with its types qualified) as the independent reference: the
// inner loop of Algorithm 1 (lines 2-10), run from scratch per deadline.
// core.Explore now climbs a staircase itself, so it cannot be the
// reference for one.
func loopExplore(c core.Candidate, deadlineMs float64, est estimate.Estimator, rt core.Retrainer, head trim.HeadSpec) (core.Proposal, bool, error) {
	estMs := c.MeasuredMs
	cut := 0
	var trn *trim.TRN
	iters := 1
	for estMs > deadlineMs {
		cut++
		if cut > c.Graph.BlockCount() {
			return core.Proposal{}, false, nil
		}
		var err error
		trn, err = trim.Cut(c.Graph, cut, head)
		if err != nil {
			return core.Proposal{}, false, err
		}
		estMs, err = est.EstimateMs(trn)
		if err != nil {
			return core.Proposal{}, false, err
		}
		iters++
	}

	p := core.Proposal{Cutpoint: cut, EstimateMs: estMs, Iterations: iters}
	if cut == 0 {
		// The unmodified network already meets the deadline: no
		// retraining needed, its accuracy is known (Algorithm 1 input).
		p.Accuracy = c.Accuracy
		var err error
		p.TRN, err = trim.Cut(c.Graph, 0, head)
		if err != nil {
			return core.Proposal{}, false, err
		}
		return p, true, nil
	}
	tr, err := rt.Retrain(trn)
	if err != nil {
		return core.Proposal{}, false, err
	}
	p.TRN = trn
	p.Accuracy = tr.Accuracy
	p.TrainHours = tr.TrainHours
	return p, true, nil
}

// stepGrid is the differential deadline grid of one graph under one
// estimator: every cutpoint's exact estimate (the measured parent for
// cut 0) and its math.Nextafter neighbours, plus 0 (the 0.9 ms default)
// and +Inf. The estimates come from the loop's own estimator, on p.
func stepGrid(t *testing.T, p *Planner, g *graph.Graph, kind string) []float64 {
	t.Helper()
	cand, tbl, err := p.candidate(g, kind == "profiler")
	if err != nil {
		t.Fatal(err)
	}
	est, err := p.estimator(kind, g, cand.MeasuredMs, tbl)
	if err != nil {
		t.Fatal(err)
	}
	grid := []float64{0, math.Inf(1)}
	for k := 0; k <= g.BlockCount(); k++ {
		e := cand.MeasuredMs
		if k > 0 {
			trn, err := trim.Cut(g, k, p.cfg.Head)
			if err != nil {
				t.Fatal(err)
			}
			if e, err = est.EstimateMs(trn); err != nil {
				t.Fatal(err)
			}
		}
		for _, d := range []float64{math.Nextafter(e, math.Inf(-1)), e, math.Nextafter(e, math.Inf(1))} {
			if d > 0 {
				grid = append(grid, d)
			}
		}
	}
	return grid
}

// stairCase is one request of the differential test and the loop's
// answer to it.
type stairCase struct {
	g    *graph.Graph
	kind string
	d    float64
	want *Response
}

// sameAnswer reports whether got is the loop's answer: every field of
// the byte-identity contract, the device, and the TRN's identity.
func sameAnswer(got, want *Response) bool {
	if got.Device != want.Device || responseKey(got) != responseKey(want) || (got.TRN == nil) != (want.TRN == nil) {
		return false
	}
	return got.TRN == nil || got.TRN.Name() == want.TRN.Name()
}

// runStairCases plans every case on p in a seeded shuffled order and
// checks each answer against the loop's, and that the answer is
// resident afterwards with the same response.
func runStairCases(t *testing.T, p *Planner, cases []stairCase, seed int64) {
	t.Helper()
	order := rand.New(rand.NewSource(seed)).Perm(len(cases))
	for _, i := range order {
		c := cases[i]
		req := Request{Graph: c.g, DeadlineMs: c.d, Estimator: c.kind}
		got, err := p.Select(req)
		if err != nil {
			t.Fatalf("%s/%s at %v: %v", c.g.Name, c.kind, c.d, err)
		}
		if !sameAnswer(got, c.want) {
			t.Fatalf("%s/%s at %v (order seed %d): staircase answered %+v, the loop %+v",
				c.g.Name, c.kind, c.d, seed, responseKey(got), responseKey(c.want))
		}
		a, ok := p.Resident(req)
		if !ok {
			t.Fatalf("%s/%s at %v: answered but not resident", c.g.Name, c.kind, c.d)
		}
		resident := a.resp
		resident.TRN = got.TRN
		if resident != *got {
			t.Fatalf("%s/%s at %v: resident %+v, Select %+v", c.g.Name, c.kind, c.d, resident, *got)
		}
	}
}

// TestStaircaseMatchesLoop is the staircase's differential oracle: over
// the zoo x device.Profiles() x {profiler, analytical, linear}, a
// long-lived planner answering a dense deadline grid in either of two
// seeded shuffled orders returns exactly what Algorithm 1's loop
// returns for each deadline on a planner that has never served a
// Select. The loop keeps nothing between requests but transparent
// caches; a spot check repeats the profiler cases on a fresh planner
// per deadline.
func TestStaircaseMatchesLoop(t *testing.T) {
	kinds := []string{"profiler", "analytical", "linear"}
	for _, dc := range device.Profiles() {
		dc := dc
		t.Run(dc.Name, func(t *testing.T) {
			cfg := Config{Seed: 3, Protocol: quickProto, Device: &dc}
			ref, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			var cases []stairCase
			for _, g := range zoo.Paper7() {
				for _, kind := range kinds {
					for _, d := range stepGrid(t, ref, g, kind) {
						want, err := loopSelect(ref, g, d, kind)
						if err != nil {
							t.Fatal(err)
						}
						cases = append(cases, stairCase{g: g, kind: kind, d: d, want: want})
					}
				}
			}
			for _, seed := range []int64{1, 2} {
				p, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				runStairCases(t, p, cases, seed)
				// A NaN or negative deadline is still rejected, and is
				// never resident.
				for _, d := range []float64{math.NaN(), -1} {
					req := Request{Graph: cases[0].g, DeadlineMs: d}
					if _, err := p.Select(req); err == nil {
						t.Fatalf("deadline %v accepted", d)
					}
					if _, ok := p.Resident(req); ok {
						t.Fatalf("deadline %v resident", d)
					}
				}
			}

			rng := rand.New(rand.NewSource(4))
			for _, i := range rng.Perm(len(cases)) {
				c := cases[i]
				if c.kind != "profiler" || rng.Intn(8) != 0 {
					continue
				}
				fresh, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				got, err := fresh.Select(Request{Graph: c.g, DeadlineMs: c.d})
				if err != nil {
					t.Fatal(err)
				}
				if !sameAnswer(got, c.want) {
					t.Fatalf("%s at %v on a fresh planner: %+v, the loop %+v", c.g.Name, c.d, responseKey(got), responseKey(c.want))
				}
			}
		})
	}
}

// userCases is the differential grid of a few user graphs under the
// profiler and linear estimators, answered by the loop on ref.
func userCases(t *testing.T, ref *Planner) []stairCase {
	t.Helper()
	var cases []stairCase
	for i := 0; i < 4; i++ {
		g := userNet(i)
		for _, kind := range []string{"profiler", "linear"} {
			for _, d := range stepGrid(t, ref, g, kind) {
				want, err := loopSelect(ref, g, d, kind)
				if err != nil {
					t.Fatal(err)
				}
				cases = append(cases, stairCase{g: g, kind: kind, d: d, want: want})
			}
		}
	}
	return cases
}

// TestStaircaseEvictionTransparent pins the staircase cache's bound as
// transparent: with room for one staircase (TableCacheCap 1, which
// sizes it), a shuffled stream over several graphs and estimators
// evicts on nearly every request and still answers exactly like the
// default cap.
func TestStaircaseEvictionTransparent(t *testing.T) {
	ref, err := New(Config{Seed: 5, Protocol: quickProto})
	if err != nil {
		t.Fatal(err)
	}
	cases := userCases(t, ref)
	tiny, err := New(Config{Seed: 5, Protocol: quickProto, TableCacheCap: 1})
	if err != nil {
		t.Fatal(err)
	}
	runStairCases(t, tiny, cases, 6)
	if st := tiny.Stats().Staircases; st.Len != 1 || st.Evictions == 0 {
		t.Fatalf("staircase cache %+v, want one resident entry and evictions", st)
	}
	def, err := New(Config{Seed: 5, Protocol: quickProto})
	if err != nil {
		t.Fatal(err)
	}
	runStairCases(t, def, cases, 6)
	if st := def.Stats().Staircases; st.Evictions != 0 {
		t.Fatalf("default-cap staircase cache evicted: %+v", st)
	}
}

// TestStaircaseRestoreEqualsRecompute pins that the staircase is not
// persisted and needs not be: a planner restored from a snapshot of a
// planner that answered the grid starts with no staircase, answers the
// same grid exactly like the loop, and rebuilds its staircases without
// a cold execution.
func TestStaircaseRestoreEqualsRecompute(t *testing.T) {
	cfg := Config{Seed: 7, Protocol: quickProto}
	ref, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cases := userCases(t, ref)
	warm, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	runStairCases(t, warm, cases, 8)
	var snap bytes.Buffer
	if err := warm.SaveState(&snap); err != nil {
		t.Fatal(err)
	}
	restored, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := restored.LoadState(bytes.NewReader(snap.Bytes())); err != nil {
		t.Fatal(err)
	}
	if n := restored.Stats().Staircases.Len; n != 0 {
		t.Fatalf("a restore brought back %d staircases", n)
	}
	if _, ok := restored.Resident(Request{Graph: cases[0].g, DeadlineMs: cases[0].d, Estimator: cases[0].kind}); ok {
		t.Fatal("an answer is resident right after a restore")
	}
	restored.Instrument(telemetry.NewRegistry())
	runStairCases(t, restored, cases, 9)
	if n := restored.tel.Load().coldMs.Count(); n != 0 {
		t.Fatalf("%d cold executions rebuilding staircases after a restore", n)
	}
}

// TestResidentDoesNoWork pins Resident as a pure lookup: it counts no
// request or execution, answers nothing Select has not accepted, and
// folds "" into "profiler" like Select.
func TestResidentDoesNoWork(t *testing.T) {
	p, err := New(Config{Seed: 1, Protocol: quickProto})
	if err != nil {
		t.Fatal(err)
	}
	p.Instrument(telemetry.NewRegistry())
	g := userNet(1)
	req := Request{Graph: g, DeadlineMs: 0.35}
	if _, ok := p.Resident(req); ok {
		t.Fatal("resident before any Select")
	}
	resp, err := p.Select(req)
	if err != nil {
		t.Fatal(err)
	}
	requests, execs := p.Stats().Requests, p.Executions()
	for _, spelling := range []string{"", "profiler"} {
		a, ok := p.Resident(Request{Graph: g, DeadlineMs: 0.35, Estimator: spelling})
		if !ok {
			t.Fatalf("estimator %q: not resident", spelling)
		}
		if got := a.resp; responseKey(&got) != responseKey(resp) || got.TRN != nil {
			t.Fatalf("estimator %q: resident %+v, Select %+v", spelling, responseKey(&got), responseKey(resp))
		}
	}
	for _, miss := range []Request{
		{Graph: g, DeadlineMs: 0.35, Estimator: "linear"},  // another staircase
		{Graph: g, DeadlineMs: 0.35, Estimator: "quantum"}, // rejected by Select
		{Graph: userNet(2), DeadlineMs: 0.35},              // never planned
		{DeadlineMs: 0.35},                                 // no graph
	} {
		if _, ok := p.Resident(miss); ok {
			t.Fatalf("%+v is resident", miss)
		}
	}
	if p.Stats().Requests != requests || p.Executions() != execs {
		t.Fatal("Resident counted planner work")
	}

	// A step's body renders once and is shared.
	a, _ := p.Resident(req)
	renders := 0
	render := func(r *Response) []byte { renders++; return []byte(fmt.Sprint(r.Network)) }
	first, second := a.Body(render), a.Body(render)
	if renders != 1 || &first[0] != &second[0] {
		t.Fatalf("%d renders for one step, want 1 shared body", renders)
	}
}

// TestStaircaseConcurrent shares one planner's staircases between
// goroutines that extend, materialise and look them up at once, each in
// its own order: every answer is still the loop's, and a resident
// lookup only ever returns a finished answer.
func TestStaircaseConcurrent(t *testing.T) {
	const workers = 8
	ref, err := New(Config{Seed: 11, Protocol: quickProto})
	if err != nil {
		t.Fatal(err)
	}
	cases := userCases(t, ref)
	p, err := New(Config{Seed: 11, Protocol: quickProto})
	if err != nil {
		t.Fatal(err)
	}
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		go func(seed int64) {
			for _, i := range rand.New(rand.NewSource(seed)).Perm(len(cases)) {
				c := cases[i]
				req := Request{Graph: c.g, DeadlineMs: c.d, Estimator: c.kind}
				if a, ok := p.Resident(req); ok {
					if got := a.resp; responseKey(&got) != responseKey(c.want) {
						errs <- fmt.Errorf("%s/%s at %v: resident %+v, the loop %+v", c.g.Name, c.kind, c.d, responseKey(&got), responseKey(c.want))
						return
					}
				}
				got, err := p.Select(req)
				if err != nil {
					errs <- err
					return
				}
				if !sameAnswer(got, c.want) {
					errs <- fmt.Errorf("%s/%s at %v: %+v, the loop %+v", c.g.Name, c.kind, c.d, responseKey(got), responseKey(c.want))
					return
				}
			}
			errs <- nil
		}(int64(w))
	}
	for w := 0; w < workers; w++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}
