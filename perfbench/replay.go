package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"time"

	"netcut/internal/core"
	"netcut/internal/device"
	"netcut/internal/estimate"
	"netcut/internal/gateway"
	"netcut/internal/graph"
	"netcut/internal/profiler"
	"netcut/internal/serve"
	"netcut/internal/transfer"
	"netcut/internal/trim"
	"netcut/internal/zoo"
)

// The traced replay: the benchmark re-runs a prefix of the timed
// phase's request stream in process and times each call into a layer
// from outside, through the layer's exported functions. The program
// itself carries no tracing. Spans are kept in memory and written to
// the work directory when the replay ends.

const (
	// replayMax bounds how many stream requests the replay re-runs.
	replayMax = 2000
	// probeMax bounds how many distinct (device, graph) pairs get the
	// per-layer probes (fresh profiler, fresh device, cold cuts, ...).
	probeMax = 24
	// probeCuts is how many cuts of each probed graph are made,
	// estimated and retrained.
	probeCuts = 3
	// warmRepeats is how often a warm device latency is read per graph.
	warmRepeats = 5
)

// span is one timed call. Kind tells cold from warm planner passes.
type span struct {
	Name   string    `json:"name"` // layer.function
	Kind   string    `json:"kind,omitempty"`
	Req    int       `json:"req"` // stream index; -1 for set-up work
	ID     int       `json:"id"`
	Parent int       `json:"parent"` // -1 at a root
	Start  time.Time `json:"start"`
	End    time.Time `json:"end"`
}

func (s *span) dur() time.Duration { return s.End.Sub(s.Start) }

// tracer records spans when on; when off every call is a no-op, which
// is the untraced replay the tracing overhead is measured against.
type tracer struct {
	on    bool
	spans []span
}

func (t *tracer) begin(name, kind string, req, parent int) int {
	if !t.on {
		return -1
	}
	t.spans = append(t.spans, span{Name: name, Kind: kind, Req: req, ID: len(t.spans), Parent: parent, Start: time.Now()})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	if id >= 0 {
		t.spans[id].End = time.Now()
	}
}

// add records a span whose bounds someone else measured.
func (t *tracer) add(name, kind string, req, parent int, start, end time.Time) {
	if t.on {
		t.spans = append(t.spans, span{Name: name, Kind: kind, Req: req, ID: len(t.spans), Parent: parent, Start: start, End: end})
	}
}

// replayOut is what a replay computed besides its spans.
type replayOut struct {
	iterations    int // core.Explore iterations summed over responses
	responses     int
	snapshotBytes int
}

// replay re-runs the first n requests of the workload's stream.
func replay(w *workload, n int, tr *tracer) (*replayOut, error) {
	out := &replayOut{}
	an, err := trainAnalytical(tr)
	if err != nil {
		return nil, err
	}
	if err := handlerPass(w, n, tr); err != nil {
		return nil, err
	}
	// The planner pass starts as cold as a fresh server: its own pool
	// and an empty process-wide cut cache.
	trim.PurgeCutCache()
	pool, err := newRefPool()
	if err != nil {
		return nil, err
	}
	probes, err := plannerPass(w, n, pool, tr, out)
	if err != nil {
		return nil, err
	}
	sim := transfer.NewSimulator(serverSeed)
	for _, p := range probes {
		if err := probeLayers(p, an, sim, tr); err != nil {
			return nil, err
		}
	}
	var buf bytes.Buffer
	id := tr.begin("persist.save", "", -1, -1)
	err = pool.SaveState(&buf)
	tr.end(id)
	if err != nil {
		return nil, err
	}
	out.snapshotBytes = buf.Len()
	fresh, err := newRefPool()
	if err != nil {
		return nil, err
	}
	id = tr.begin("persist.restore", "", -1, -1)
	err = fresh.LoadState(bytes.NewReader(buf.Bytes()))
	tr.end(id)
	return out, err
}

// trainAnalytical builds the 148-TRN zoo sample set on the default
// device the way the planner does, and times the SVR training alone.
func trainAnalytical(tr *tracer) (*estimate.AnalyticalEstimator, error) {
	dev := device.New(device.Xavier())
	prof, err := profiler.New(dev, profiler.PaperProtocol(), serverSeed)
	if err != nil {
		return nil, err
	}
	var samples []estimate.Sample
	for _, g := range zoo.Paper7() {
		parent := prof.Measure(g).MeanMs
		trns, err := trim.EnumerateBlockwiseScoped(dev.Fingerprint(), g, trim.DefaultHead, false)
		if err != nil {
			return nil, err
		}
		for _, t := range trns {
			samples = append(samples, estimate.Sample{TRN: t, ParentLatencyMs: parent, MeasuredMs: prof.Measure(t.Graph).MeanMs})
		}
	}
	train, _ := estimate.StratifiedSplit(samples, 0.2, serverSeed)
	id := tr.begin("estimate.train_analytical", "", -1, -1)
	an, err := estimate.TrainAnalytical(train, estimate.AnalyticalConfig{Seed: serverSeed})
	tr.end(id)
	return an, err
}

// handlerPass serves the requests through an in-process gateway's
// http.Handler, warmed the way the workload warms its server: the
// gateway's own time without sockets or the kernel.
func handlerPass(w *workload, n int, tr *tracer) error {
	gw, err := gateway.New(gateway.Config{Planner: serve.Config{Seed: serverSeed}})
	if err != nil {
		return err
	}
	defer gw.Shutdown(context.Background())
	h := gw.Handler()
	serveOne := func(body []byte) (int, []byte) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/plan", bytes.NewReader(body)))
		return rec.Code, rec.Body.Bytes()
	}
	switch w.st.name {
	case hitHeavy:
		<-gw.Prewarm()
		for _, k := range w.st.keys {
			body, err := w.st.body(k)
			if err != nil {
				return err
			}
			if code, b := serveOne(body); code != http.StatusOK {
				return fmt.Errorf("handler warm-up: status %d: %s", code, b)
			}
		}
	case plannerWarm:
		if err := gw.LoadState(bytes.NewReader(w.snapshot)); err != nil {
			return err
		}
	}
	for i := 0; i < n; i++ {
		body, err := w.st.body(w.st.at(i))
		if err != nil {
			return err
		}
		id := tr.begin("gateway.handler", "", i, -1)
		code, b := serveOne(body)
		tr.end(id)
		if code != http.StatusOK {
			return fmt.Errorf("handler request %d: status %d: %s", i, code, b)
		}
	}
	return nil
}

// probe is one distinct (device, graph) pair of the replayed prefix.
type probe struct {
	req      int // first request that used it
	g        *graph.Graph
	device   string
	deadline float64
}

// plannerPass runs each request through the same calls the server's
// request path makes — wire decode and validation, the planner's
// select (with its measure / estimate / explore phases reported through
// serve.Request.Trace) and the response encoder — and returns the
// distinct (device, graph) pairs it met, for the layer probes.
func plannerPass(w *workload, n int, pool *serve.PlannerPool, tr *tracer, out *replayOut) ([]probe, error) {
	type zooEntry struct {
		g     *graph.Graph
		print uint64
	}
	zooCache := make(map[string]zooEntry)
	seen := make(map[string]bool)
	var probes []probe
	for i := 0; i < n; i++ {
		r := w.st.at(i)
		body, err := w.st.body(r)
		if err != nil {
			return nil, err
		}
		root := tr.begin("replay.request", "", i, -1)

		id := tr.begin("graph.decode_validate", "", i, root)
		var wire gateway.PlanRequestWire
		var g *graph.Graph
		var print uint64
		if err := json.Unmarshal(body, &wire); err != nil {
			return nil, err
		}
		if wire.Graph != nil {
			if g, err = decodeGraph(wire.Graph); err != nil {
				return nil, err
			}
			print = graph.Fingerprint(g)
		} else {
			e, ok := zooCache[wire.Network]
			if !ok {
				zg, err := zoo.ByName(wire.Network)
				if err != nil {
					return nil, err
				}
				e = zooEntry{zg, graph.Fingerprint(zg)}
				zooCache[wire.Network] = e
			}
			g, print = e.g, e.print
		}
		tr.end(id)

		key := fmt.Sprintf("%s/%x", wire.Target, print)
		kind := "warm"
		if !seen[key] {
			seen[key] = true
			kind = "cold"
			if len(probes) < probeMax {
				probes = append(probes, probe{req: i, g: g, device: wire.Target, deadline: wire.DeadlineMs})
			}
		}
		req := serve.Request{Graph: g, DeadlineMs: wire.DeadlineMs, Estimator: wire.Estimator}
		sel := tr.begin("serve.select", kind, i, root)
		if tr.on {
			req.Trace = func(phase string, start, end time.Time) {
				tr.add("serve."+phase, kind, i, sel, start, end)
			}
		}
		resp, err := pool.Select(wire.Target, req)
		tr.end(sel)
		if err != nil {
			return nil, err
		}

		id = tr.begin("gateway.encode", "", i, root)
		gateway.EncodeResponse(resp)
		tr.end(id)
		tr.end(root)
		out.iterations += resp.Iterations
		out.responses++
	}
	return probes, nil
}

// probeScope numbers the cut-cache scopes of the layer probes, so every
// probe's cuts are cold.
var probeScope uint64 = 0x7065726662656e63

// probeLayers times the layers under the planner one at a time on one
// graph: a profiler table build and a measurement on fresh profilers,
// a device latency cold and warm, cold cuts, both estimators and the
// retraining simulator on those cuts, and Algorithm 1 on a prebuilt
// estimator over warm cuts.
func probeLayers(p probe, an *estimate.AnalyticalEstimator, sim *transfer.Simulator, tr *tracer) error {
	cfg, err := device.ProfileByName(p.device)
	if err != nil {
		return err
	}
	newProf := func() (*profiler.Profiler, error) {
		return profiler.New(device.New(cfg), profiler.PaperProtocol(), serverSeed)
	}
	prof, err := newProf()
	if err != nil {
		return err
	}
	id := tr.begin("profiler.profile", "", p.req, -1)
	tbl := prof.Profile(p.g)
	tr.end(id)
	if prof, err = newProf(); err != nil {
		return err
	}
	id = tr.begin("profiler.measure", "", p.req, -1)
	parentMs := prof.Measure(p.g).MeanMs
	tr.end(id)

	dev := device.New(cfg)
	id = tr.begin("device.latency_cold", "", p.req, -1)
	dev.LatencyMs(p.g)
	tr.end(id)
	for k := 0; k < warmRepeats; k++ {
		id = tr.begin("device.latency_warm", "", p.req, -1)
		dev.LatencyMs(p.g)
		tr.end(id)
	}

	if !sim.HasProfile(p.g.Name) {
		if err := sim.RegisterProfile(transfer.GenericProfile(p.g.Name, p.g.FeatureLayerCount())); err != nil {
			return err
		}
	}
	probeScope++
	scope := probeScope
	pe := estimate.NewProfilerEstimator(map[string]*profiler.Table{p.g.Name: tbl})
	ae := an.WithParentLatency(p.g.Name, parentMs)
	for k := 1; k <= probeCuts && k <= p.g.BlockCount(); k++ {
		id = tr.begin("trim.cut_cold", "", p.req, -1)
		t, err := trim.CutScoped(scope, p.g, k, trim.DefaultHead)
		tr.end(id)
		if err != nil {
			return err
		}
		id = tr.begin("estimate.profiler", "", p.req, -1)
		_, err = pe.EstimateMs(t)
		tr.end(id)
		if err != nil {
			return err
		}
		id = tr.begin("estimate.analytical", "", p.req, -1)
		_, err = ae.EstimateMs(t)
		tr.end(id)
		if err != nil {
			return err
		}
		id = tr.begin("transfer.retrain", "", p.req, -1)
		_, err = sim.Retrain(t)
		tr.end(id)
		if err != nil {
			return err
		}
	}

	acc, err := sim.OffTheShelfAccuracy(p.g.Name)
	if err != nil {
		return err
	}
	cands := []core.Candidate{{Graph: p.g, MeasuredMs: parentMs, Accuracy: acc, CacheScope: scope}}
	rt := core.RetrainerFunc(func(t *trim.TRN) (core.TrainResult, error) {
		r, err := sim.Retrain(t)
		return core.TrainResult{Accuracy: r.Accuracy, TrainHours: r.TrainHours}, err
	})
	// The first exploration makes the cuts; the timed one finds them warm.
	if _, err := core.Explore(cands, p.deadline, pe, rt, trim.DefaultHead); err != nil {
		return err
	}
	id = tr.begin("core.explore", "", p.req, -1)
	_, err = core.Explore(cands, p.deadline, pe, rt, trim.DefaultHead)
	tr.end(id)
	return err
}

// decodeGraph converts a wire graph to a graph.Graph and validates it:
// the same conversion the gateway's request decoder makes.
func decodeGraph(w *gateway.GraphWire) (*graph.Graph, error) {
	g := &graph.Graph{Name: w.Name, InputShape: graph.Shape(w.Input), NumClasses: w.NumClasses,
		Nodes: make([]*graph.Node, 0, len(w.Nodes))}
	for i := range w.Nodes {
		nw := &w.Nodes[i]
		kind, ok := graph.ParseOpKind(nw.Kind)
		if !ok {
			return nil, fmt.Errorf("node %d: unknown kind %q", nw.ID, nw.Kind)
		}
		pad := graph.Valid
		if nw.Pad == "same" {
			pad = graph.Same
		}
		block := -1
		if nw.Block != nil {
			block = *nw.Block
		}
		n := &graph.Node{ID: nw.ID, Name: nw.Name, Kind: kind, Inputs: nw.Inputs, Out: graph.Shape(nw.Out),
			KH: nw.KH, KW: nw.KW, Stride: nw.Stride, Pad: pad, MACs: nw.MACs, Params: nw.Params,
			WeightBytes: nw.WeightBytes, IOBytes: nw.IOBytes, Block: block, Head: nw.Head}
		if nw.In != nil {
			n.In = graph.Shape(*nw.In)
		}
		g.Nodes = append(g.Nodes, n)
	}
	for _, b := range w.Blocks {
		g.Blocks = append(g.Blocks, graph.Block{Index: b.Index, Label: b.Label, Nodes: b.Nodes, Output: b.Output})
	}
	return g, graph.Validate(g)
}

// traceLayers runs the replay untraced and traced over the same prefix,
// writes the spans out, and turns them and the timed phase's counter
// deltas into the per-layer metrics. e2eP50 and e2eP99 are the loopback
// latencies of the timed phase.
func traceLayers(cfg config, w *workload, tp *timed, e2eP50, e2eP99 float64, out io.Writer) (map[string]metric, error) {
	n := tp.load.attempted
	if n > replayMax {
		n = replayMax
	}
	// Untraced, traced, untraced: the untraced cost is the mean of the
	// runs either side, so one-time process warm-up (page faults, lazily
	// built zoo graphs) does not read as negative tracing overhead.
	timeReplay := func(tr *tracer) (*replayOut, time.Duration, error) {
		t0 := time.Now()
		ro, err := replay(w, n, tr)
		return ro, time.Since(t0), err
	}
	_, before, err := timeReplay(&tracer{})
	if err != nil {
		return nil, err
	}
	tr := &tracer{on: true}
	ro, traced, err := timeReplay(tr)
	if err != nil {
		return nil, err
	}
	_, after, err := timeReplay(&tracer{})
	if err != nil {
		return nil, err
	}
	untraced := (before + after) / 2
	if err := writeSpans(cfg, tr.spans); err != nil {
		return nil, err
	}
	printSelfTimes(out, tr.spans)

	durs := make(map[string][]float64) // name or name.kind -> ms
	for i := range tr.spans {
		s := &tr.spans[i]
		ms := float64(s.dur()) / float64(time.Millisecond)
		durs[s.Name] = append(durs[s.Name], ms)
		if s.Kind != "" {
			durs[s.Kind+"."+s.Name] = append(durs[s.Kind+"."+s.Name], ms)
		}
	}
	med := func(name string) float64 { return median(durs[name]) }
	sorted := func(name string) []float64 {
		s := append([]float64(nil), durs[name]...)
		sort.Float64s(s)
		return s
	}
	d := tp.delta
	ratio := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}
	handler := sorted("gateway.handler")
	m := map[string]metric{
		"http.overhead_ms":            {e2eP50 - quantile(handler, 0.5), "ms"},
		"http.loopback_p99_ms":        {e2eP99, "ms"},
		"gateway.handler_p50_ms":      {quantile(handler, 0.5), "ms"},
		"gateway.handler_p99_ms":      {quantile(handler, 0.99), "ms"},
		"gateway.bytecache_hit_ratio": {ratio(d[mByteHits], d[mByteHits]+d[mByteMisses]), "ratio"},
		"gateway.exec_per_req":        {ratio(d[mExecutions], d[mRequests]), "ratio"},
		"gateway.coalesced_ratio":     {ratio(d[mCoalesced], d[mRequests]), "ratio"},
		"gateway.encode_us":           {1000 * med("gateway.encode"), "us"},
		"graph.decode_validate_us":    {1000 * med("graph.decode_validate"), "us"},
		"profiler.profile_ms":         {med("profiler.profile"), "ms"},
		"profiler.measure_ms":         {med("profiler.measure"), "ms"},
		"profiler.table_hit_ratio":    {ratio(d[mTableHits], d[mTableHits]+d[mTableMisses]), "ratio"},
		"device.latency_cold_ms":      {med("device.latency_cold"), "ms"},
		"device.latency_warm_us":      {1000 * med("device.latency_warm"), "us"},
		"device.plan_hit_ratio":       {ratio(d[mPlanHits], d[mPlanHits]+d[mPlanMisses]), "ratio"},
		"trim.cut_cold_us":            {1000 * med("trim.cut_cold"), "us"},
		"trim.cut_hit_ratio":          {ratio(d[mCutHits], d[mCutHits]+d[mCutMisses]), "ratio"},
		"core.explore_ms":             {med("core.explore"), "ms"},
		"core.iterations_per_req":     {ratio(float64(ro.iterations), float64(ro.responses)), "count"},
		"estimate.profiler_us":        {1000 * med("estimate.profiler"), "us"},
		"estimate.analytical_us":      {1000 * med("estimate.analytical"), "us"},
		"estimate.train_analytical_s": {med("estimate.train_analytical") / 1000, "s"},
		"transfer.retrain_us":         {1000 * med("transfer.retrain"), "us"},
		"persist.save_ms":             {med("persist.save"), "ms"},
		"persist.restore_ms":          {med("persist.restore"), "ms"},
		"persist.snapshot_bytes":      {float64(ro.snapshotBytes), "bytes"},
		"lru.evictions.plans":         {d[mPlanEvict], "count"},
		"lru.evictions.measurements":  {d[mMeasEvict], "count"},
		"lru.evictions.tables":        {d[mTableEvict], "count"},
		"lru.evictions.cuts":          {d[mCutEvict], "count"},
		"lru.evictions.bytecache":     {d[mByteEvict], "count"},
		"trace.overhead_pct":          {100 * (traced.Seconds() - untraced.Seconds()) / untraced.Seconds(), "%"},
	}
	for _, kind := range []string{"cold", "warm"} {
		for _, phase := range []string{"select", "measure", "estimate", "explore"} {
			m["serve."+kind+"."+phase+"_ms"] = metric{med(kind + ".serve." + phase), "ms"}
		}
	}
	fmt.Fprintf(out, "replay: %d requests, %d spans, untraced %.3fs, traced %.3fs\n",
		n, len(tr.spans), untraced.Seconds(), traced.Seconds())
	return m, nil
}

// writeSpans dumps the spans as JSON lines into the work directory.
func writeSpans(cfg config, spans []span) error {
	path := filepath.Join(cfg.workDir, fmt.Sprintf("spans-%s-%d.jsonl", cfg.workload, cfg.seed))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// printSelfTimes reports, per span name, the total time and the self
// time: a span's duration minus the part its children cover.
func printSelfTimes(out io.Writer, spans []span) {
	child := make([]time.Duration, len(spans))
	for i := range spans {
		if p := spans[i].Parent; p >= 0 {
			child[p] += spans[i].dur()
		}
	}
	type agg struct {
		n           int
		total, self time.Duration
	}
	byName := make(map[string]*agg)
	var names []string
	for i := range spans {
		name := spans[i].Name
		if spans[i].Kind != "" {
			name += "[" + spans[i].Kind + "]"
		}
		a := byName[name]
		if a == nil {
			a = &agg{}
			byName[name] = a
			names = append(names, name)
		}
		a.n++
		a.total += spans[i].dur()
		a.self += spans[i].dur() - child[i]
	}
	sort.Strings(names)
	for _, name := range names {
		a := byName[name]
		fmt.Fprintf(out, "span %-32s n=%-6d total=%10.3fms self=%10.3fms\n", name, a.n,
			float64(a.total)/1e6, float64(a.self)/1e6)
	}
}
