package netcut

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"netcut/internal/exp"
	"netcut/internal/gateway"
	"netcut/internal/graph"
	"netcut/internal/par"
	"netcut/internal/trim"
)

// gatewayGraphJSON renders g in the gateway's wire schema for request
// bodies.
func gatewayGraphJSON(b *testing.B, g *Graph) []byte {
	out, err := json.Marshal(gateway.EncodeGraph(g))
	if err != nil {
		b.Fatal(err)
	}
	return out
}

// The benchmark harness regenerates every figure and table of the
// paper's evaluation under the paper's full 200-warm-up/800-run
// measurement protocol. Each benchmark prints its artefact's rows once,
// so `go test -bench=.` reproduces the series the paper reports.

var (
	benchLabOnce sync.Once
	benchLab     *exp.Lab
	benchLabErr  error
	printedMu    sync.Mutex
	printed      = map[string]bool{}
)

func getBenchLab(b *testing.B) *exp.Lab {
	b.Helper()
	benchLabOnce.Do(func() {
		benchLab, benchLabErr = exp.NewLab(exp.Config{Seed: 1})
	})
	if benchLabErr != nil {
		b.Fatal(benchLabErr)
	}
	return benchLab
}

// runFigure benches a generator and prints its output the first time.
func runFigure(b *testing.B, id string, gen func() (*exp.Figure, error)) {
	b.Helper()
	lab := getBenchLab(b)
	_ = lab
	var fig *exp.Figure
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f, err := gen()
		if err != nil {
			b.Fatal(err)
		}
		fig = f
	}
	b.StopTimer()
	printedMu.Lock()
	defer printedMu.Unlock()
	if !printed[id] {
		printed[id] = true
		if err := fig.Render(os.Stdout); err != nil {
			b.Fatal(err)
		}
	}
	if len(fig.Series) > 0 {
		b.ReportMetric(float64(fig.Series[0].Len()), "points")
	}
}

func BenchmarkFig01OffTheShelfTradeoff(b *testing.B) {
	lab := getBenchLab(b)
	runFigure(b, "fig1", lab.Fig1)
}

func BenchmarkFig04BlockVsExhaustive(b *testing.B) {
	lab := getBenchLab(b)
	runFigure(b, "fig4", lab.Fig4)
}

func BenchmarkFig05AccuracyVsRemoval(b *testing.B) {
	lab := getBenchLab(b)
	runFigure(b, "fig5", lab.Fig5)
}

func BenchmarkFig06TRNTradeoff(b *testing.B) {
	lab := getBenchLab(b)
	runFigure(b, "fig6", lab.Fig6)
}

func BenchmarkFig07ParetoFrontiers(b *testing.B) {
	lab := getBenchLab(b)
	runFigure(b, "fig7", lab.Fig7)
}

func BenchmarkFig08ResNetEstimation(b *testing.B) {
	lab := getBenchLab(b)
	runFigure(b, "fig8", lab.Fig8)
}

func BenchmarkFig09EstimationError(b *testing.B) {
	lab := getBenchLab(b)
	runFigure(b, "fig9", lab.Fig9)
}

func BenchmarkFig10FinalSelection(b *testing.B) {
	lab := getBenchLab(b)
	runFigure(b, "fig10", lab.Fig10)
}

func BenchmarkTab01ExplorationSpeedup(b *testing.B) {
	lab := getBenchLab(b)
	runFigure(b, "tab1", lab.Tab1)
}

func BenchmarkAblEstimatorChoice(b *testing.B) {
	lab := getBenchLab(b)
	runFigure(b, "abl-estimators", lab.AblEstimatorChoice)
}

func BenchmarkAblBlockGranularity(b *testing.B) {
	lab := getBenchLab(b)
	runFigure(b, "abl-block", lab.AblBlockGranularity)
}

func BenchmarkAblDeviceModes(b *testing.B) {
	lab := getBenchLab(b)
	runFigure(b, "abl-device", lab.AblDeviceModes)
}

func BenchmarkAblIterativeCost(b *testing.B) {
	lab := getBenchLab(b)
	runFigure(b, "abl-iterative", lab.AblIterativeCost)
}

func BenchmarkAblExtendedZoo(b *testing.B) {
	lab := getBenchLab(b)
	runFigure(b, "abl-extended", lab.AblExtendedZoo)
}

func BenchmarkAblEarlyExit(b *testing.B) {
	lab := getBenchLab(b)
	runFigure(b, "abl-earlyexit", lab.AblEarlyExit)
}

// BenchmarkSelectEndToEnd measures the full pipeline cost: profile,
// train estimator, run Algorithm 1.
func BenchmarkSelectEndToEnd(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sel, err := Select(Options{DeadlineMs: 0.9, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		printedMu.Lock()
		if !printed["select"] {
			printed["select"] = true
			fmt.Printf("== select: %s acc=%.3f est=%.3f ms measured=%.3f ms\n",
				sel.Network, sel.Accuracy, sel.EstimatedMs, sel.MeasuredMs)
		}
		printedMu.Unlock()
	}
}

// BenchmarkPlannerSelectCold measures a cold planner request: a fresh
// Planner per iteration with the process-wide cut cache purged, so
// every architecture is planned, profiled and cut from scratch — the
// baseline the warm benchmark's cache-hit speedup is read against in
// BENCH_<date>_<shortsha>.json.
func BenchmarkPlannerSelectCold(b *testing.B) {
	g, err := NetworkByName("ResNet-50")
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		trim.PurgeCutCache()
		p, err := NewPlanner(PlannerConfig{Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := p.Select(PlanRequest{Graph: g, DeadlineMs: 0.9}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPlannerSelectColdGraph measures the cold request alone: one
// Planner, built outside the timer, plans a never-seen graph per
// iteration. BenchmarkPlannerSelectCold also times NewPlanner's zoo
// build; here that happens once. Each graph is ResNet-50's architecture
// at its own input side, so its measurement, per-layer table, cuts and
// every cut's device plan are new to the planner. The profiler's
// table-miss counter checks that every iteration ran cold.
func BenchmarkPlannerSelectColdGraph(b *testing.B) {
	graphs := make([]*Graph, b.N)
	for i := range graphs {
		graphs[i] = coldResNet50(i)
	}
	trim.PurgeCutCache()
	p, err := NewPlanner(PlannerConfig{Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	_, tables := p.Profiler().CacheStats()
	b.ResetTimer()
	for _, g := range graphs {
		if _, err := p.Select(PlanRequest{Graph: g, DeadlineMs: 0.9}); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	_, after := p.Profiler().CacheStats()
	// A cold request builds exactly one table, its graph's own.
	if misses := after.Misses - tables.Misses; misses != uint64(b.N) {
		b.Fatalf("%d table misses over %d requests, want one per request", misses, b.N)
	}
}

// coldResNet50 builds ResNet-50's architecture named "cold-ResNet-50-k"
// with a (160+k)-pixel input side: every layer shape, and with it every
// structural fingerprint of the graph and its cuts, is unique to k.
func coldResNet50(k int) *Graph {
	side := 160 + k
	b := graph.NewBuilder(fmt.Sprintf("cold-ResNet-50-%d", k), graph.Shape{H: side, W: side, C: 3}, 1000)
	x := b.Input()
	x = b.ConvBNReLU(x, 7, 64, 2, graph.Same)
	x = b.MaxPool(x, 3, 2, graph.Same)
	// (bottleneck width, output channels, repeats, first stride).
	for stage, c := range []struct{ w, c, n, s int }{{64, 256, 3, 1}, {128, 512, 4, 2}, {256, 1024, 6, 2}, {512, 2048, 3, 2}} {
		for i := 0; i < c.n; i++ {
			b.BeginBlock(fmt.Sprintf("res%d_%d", stage+2, i+1))
			shortcut, stride := x, 1
			if i == 0 {
				stride = c.s
				shortcut = b.ConvBN(x, 1, c.c, stride, graph.Same)
			}
			y := b.ConvBNReLU(x, 1, c.w, stride, graph.Same)
			y = b.ConvBNReLU(y, 3, c.w, 1, graph.Same)
			y = b.ConvBN(y, 1, c.c, 1, graph.Same)
			x = b.ReLU(b.Add(y, shortcut))
			b.EndBlock()
		}
	}
	b.BeginHead()
	x = b.GlobalAvgPool(x)
	x = b.Dense(x, 1000)
	b.Softmax(x)
	return b.MustFinish()
}

// BenchmarkPlannerSelectWarm measures the repeated-config request the
// planning service exists for: one long-lived Planner, the same
// request over and over — every iteration is served from the shared
// bounded caches.
func BenchmarkPlannerSelectWarm(b *testing.B) {
	g, err := NetworkByName("ResNet-50")
	if err != nil {
		b.Fatal(err)
	}
	p, err := NewPlanner(PlannerConfig{Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := p.Select(PlanRequest{Graph: g, DeadlineMs: 0.9}); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.Select(PlanRequest{Graph: g, DeadlineMs: 0.9}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPlannerSelectPhases splits a planner request into the
// phases its Request.Trace callback reports and records each phase's
// mean as a metric (measure_ms, estimate_ms, explore_ms), so the
// cold/warm phase split is a tracked number rather than a one-off
// profile. "cold" is BenchmarkPlannerSelectCold's request (a fresh
// Planner, cut cache purged); "warm" is BenchmarkPlannerSelectWarm's
// (one Planner, the same request again).
func BenchmarkPlannerSelectPhases(b *testing.B) {
	g, err := NetworkByName("ResNet-50")
	if err != nil {
		b.Fatal(err)
	}
	newPlanner := func(b *testing.B) *Planner {
		p, err := NewPlanner(PlannerConfig{Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		return p
	}
	run := func(b *testing.B, next func() *Planner) {
		phases := map[string]time.Duration{}
		req := PlanRequest{Graph: g, DeadlineMs: 0.9, Trace: func(phase string, start, end time.Time) {
			phases[phase] += end.Sub(start)
		}}
		n := 0
		for b.Loop() {
			if _, err := next().Select(req); err != nil {
				b.Fatal(err)
			}
			n++
		}
		for _, phase := range []string{"measure", "estimate", "explore"} {
			b.ReportMetric(float64(phases[phase])/float64(time.Millisecond)/float64(n), phase+"_ms")
		}
	}
	b.Run("cold", func(b *testing.B) {
		run(b, func() *Planner {
			trim.PurgeCutCache()
			return newPlanner(b)
		})
	})
	b.Run("warm", func(b *testing.B) {
		p := newPlanner(b)
		if _, err := p.Select(PlanRequest{Graph: g, DeadlineMs: 0.9}); err != nil {
			b.Fatal(err)
		}
		run(b, func() *Planner { return p })
	})
}

// BenchmarkPlannerSelectRestoredCold measures the restart path the
// warm-state snapshot exists for: a fresh Planner (cold process, cut
// cache purged) restores a snapshot written by a warmed planner, then
// serves its first request. The timed op is that first request — the
// latency a client sees right after a daemon restart, which must land
// within a small factor of BenchmarkPlannerSelectWarm instead of the
// ~23x true-cold gap (BenchmarkPlannerSelectCold re-measures
// everything). The one-time boot cost of LoadState itself is reported
// as restore_ms (it happens once per process, off the request path).
func BenchmarkPlannerSelectRestoredCold(b *testing.B) {
	g, err := NetworkByName("ResNet-50")
	if err != nil {
		b.Fatal(err)
	}
	var snap bytes.Buffer
	if err := benchWarmPlanner(b).SaveState(&snap); err != nil {
		b.Fatal(err)
	}
	var restoreNs int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		trim.PurgeCutCache()
		p, err := NewPlanner(PlannerConfig{Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		t0 := time.Now()
		if err := p.LoadState(bytes.NewReader(snap.Bytes())); err != nil {
			b.Fatal(err)
		}
		restoreNs += int64(time.Since(t0))
		b.StartTimer()
		if _, err := p.Select(PlanRequest{Graph: g, DeadlineMs: 0.9}); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(restoreNs)/float64(b.N)/1e6, "restore_ms")
	b.ReportMetric(float64(snap.Len()), "snapshot_bytes")
}

// benchWarmPlanner warms one planner on a ResNet-50 request (the
// state-codec benchmark workload: two device plans, a measurement, a
// per-layer table and the blockwise cut sweep). It purges the
// process-wide cut cache first, so the planner's snapshot holds this
// workload's cuts alone, whichever benchmarks ran before. The state
// benchmarks below are the codec regression tripwires the bench-drift
// job reads.
func benchWarmPlanner(b *testing.B) *Planner {
	b.Helper()
	trim.PurgeCutCache()
	g, err := NetworkByName("ResNet-50")
	if err != nil {
		b.Fatal(err)
	}
	warm, err := NewPlanner(PlannerConfig{Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := warm.Select(PlanRequest{Graph: g, DeadlineMs: 0.9}); err != nil {
		b.Fatal(err)
	}
	return warm
}

// BenchmarkStateSave measures snapshot encoding: one warm planner's
// state serialized per iteration. Encode cost bounds what autosave adds
// under load, so it must stay cheap enough to be invisible in
// netcut_gateway_stage_ms.
func BenchmarkStateSave(b *testing.B) {
	warm := benchWarmPlanner(b)
	var buf bytes.Buffer
	if err := warm.SaveState(&buf); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(buf.Len()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := warm.SaveState(&buf); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(buf.Len()), "snapshot_bytes")
}

// BenchmarkStateRestore measures snapshot restore in isolation: decode,
// validate, replay cuts, apply — the boot-time cost a restarted replica
// pays before its first request. The fresh planner and cut-cache purge
// run off-timer; the timed op is LoadState alone.
func BenchmarkStateRestore(b *testing.B) {
	var buf bytes.Buffer
	if err := benchWarmPlanner(b).SaveState(&buf); err != nil {
		b.Fatal(err)
	}
	snap := buf.Bytes()
	b.SetBytes(int64(len(snap)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		trim.PurgeCutCache()
		p, err := NewPlanner(PlannerConfig{Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if err := p.LoadState(bytes.NewReader(snap)); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(len(snap)), "snapshot_bytes")
}

// benchGatewayPost drives the gateway handler in-process (no sockets):
// the serving-layer cost without kernel networking noise. It returns
// rather than failing so goroutine callers (RunParallel bodies, burst
// workers) can surface the error on the benchmark goroutine, where
// FailNow is legal.
func benchGatewayPost(gw *Gateway, body string) error {
	req := httptest.NewRequest(http.MethodPost, "/v1/plan", strings.NewReader(body))
	rec := httptest.NewRecorder()
	gw.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		return fmt.Errorf("status %d: %s", rec.Code, rec.Body.String())
	}
	return nil
}

func newBenchGateway(b *testing.B) *Gateway {
	b.Helper()
	gw, err := NewGateway(GatewayConfig{Planner: PlannerConfig{Seed: 1}})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { gw.Shutdown(context.Background()) })
	return gw
}

// BenchmarkGatewayThroughput measures warm serving-layer throughput
// under the default configuration: a zoo-cycling request stream through
// decode, admission and response delivery. Every post-warm-up
// iteration is a resident answer — decode, admission gates, the
// planner's staircase lookup, the step's once-rendered body, deliver,
// all on the handler goroutine — which is the warm path production
// traffic sees.
func BenchmarkGatewayThroughput(b *testing.B) {
	gw := newBenchGateway(b)
	runGatewayThroughput(b, gw)
	// Pin the zero-copy resident path: a resident answer allocates only
	// request-scoped bookkeeping (trace record, header map, recorder
	// internals) — never a render or a copy of the response body. The
	// bound has headroom over the measured count (~27) but sits far
	// below what a body copy or rendering pass would add.
	body := fmt.Sprintf(`{"network":%q,"deadline_ms":0.9}`, NetworkNames()[0])
	allocs := testing.AllocsPerRun(200, func() {
		if err := benchGatewayPost(gw, body); err != nil {
			b.Fatal(err)
		}
	})
	b.ReportMetric(allocs, "hit_allocs")
	if allocs > 48 {
		b.Fatalf("resident answer path allocates %.0f objects/op, want <= 48 (render or body copy crept back in?)", allocs)
	}
}

func runGatewayThroughput(b *testing.B, gw *Gateway) {
	b.Helper()
	names := NetworkNames()
	bodies := make([]string, len(names))
	for i, n := range names {
		bodies[i] = fmt.Sprintf(`{"network":%q,"deadline_ms":0.9}`, n)
		if err := benchGatewayPost(gw, bodies[i]); err != nil { // warm every architecture
			b.Fatal(err)
		}
	}
	var failed atomic.Pointer[error]
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			if err := benchGatewayPost(gw, bodies[i%len(bodies)]); err != nil {
				failed.CompareAndSwap(nil, &err)
				return
			}
			i++
		}
	})
	b.StopTimer()
	if errp := failed.Load(); errp != nil {
		b.Fatal(*errp)
	}
}

// BenchmarkGatewayBoot times a default (four-device) gateway's boot,
// NewGateway plus MarkReady: the exec-to-ready work of a netserve
// start without -state or -prewarm. It builds no zoo network, since
// those are built on first use; a rebuild that creeps back onto the
// boot path shows in allocs/op (internal/gateway's
// TestGatewayBootAllocs gates it).
func BenchmarkGatewayBoot(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		gw, err := NewGateway(GatewayConfig{Planner: PlannerConfig{Seed: 1}})
		if err != nil {
			b.Fatal(err)
		}
		gw.MarkReady()
		b.StopTimer()
		if err := gw.Shutdown(context.Background()); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
}

// BenchmarkGatewayPrewarm times the startup prewarm sweep: every zoo
// network planned cold on every device of a default (four-device)
// gateway, the set-up a daemon started with -prewarm pays before its
// zoo traffic is warm. Each iteration purges the process-wide cut cache
// and builds a fresh gateway outside the timer, so every plan is cold;
// prewarm_ms is the sweep's mean wall time.
func BenchmarkGatewayPrewarm(b *testing.B) {
	b.Cleanup(trim.PurgeCutCache)
	want := uint64(len(DeviceProfiles()) * len(NetworkNames()))
	var swept time.Duration
	b.StopTimer()
	for i := 0; i < b.N; i++ {
		trim.PurgeCutCache()
		gw, err := NewGateway(GatewayConfig{Planner: PlannerConfig{Seed: 1}})
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		t0 := time.Now()
		<-gw.Prewarm()
		swept += time.Since(t0)
		b.StopTimer()
		got := gw.Registry().Counter("netcut_gateway_prewarmed_total", "").Value()
		if err := gw.Shutdown(context.Background()); err != nil {
			b.Fatal(err)
		}
		if got != want {
			b.Fatalf("prewarmed %d plans, want %d (zoo x fleet)", got, want)
		}
	}
	b.ReportMetric(float64(swept.Microseconds())/1e3/float64(b.N), "prewarm_ms")
}

// BenchmarkGatewayCoalescedBurst measures the acceptance-criterion load
// shape: bursts of identical concurrent requests. The exec/burst metric
// is the telemetry-counted planner executions per burst. Each burst
// posts a never-seen graph (coldNet), so its first request is lane
// work, a cold plan, and the rest coalesce onto it or, once it has
// finished, get the step it accepted as a resident answer: exec/burst
// reads about 1.
func BenchmarkGatewayCoalescedBurst(b *testing.B) {
	const burst = 16
	gw := newBenchGateway(b)
	if err := benchGatewayPost(gw, `{"network":"ResNet-50","deadline_ms":0.9}`); err != nil { // warm
		b.Fatal(err)
	}
	execsBefore := gw.Planner().Executions()
	var failed atomic.Pointer[error]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		body := coldBody(b, i)
		start := make(chan struct{})
		var wg sync.WaitGroup
		for j := 0; j < burst; j++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				if err := benchGatewayPost(gw, body); err != nil {
					failed.CompareAndSwap(nil, &err)
				}
			}()
		}
		close(start)
		wg.Wait()
	}
	b.StopTimer()
	if errp := failed.Load(); errp != nil {
		b.Fatal(*errp)
	}
	execs := gw.Planner().Executions() - execsBefore
	b.ReportMetric(float64(execs)/float64(b.N), "exec/burst")
	b.ReportMetric(burst, "reqs/burst")
}

// BenchmarkPlannerPoolWarmAcrossDevices measures the multi-target warm
// path: one PlannerPool over the full device registry, the same
// network planned round-robin across every target — each iteration is
// a warm, device-isolated cache hit on a different planner.
func BenchmarkPlannerPoolWarmAcrossDevices(b *testing.B) {
	pool, err := NewPlannerPool(PoolConfig{Base: PlannerConfig{Seed: 1}})
	if err != nil {
		b.Fatal(err)
	}
	g, err := NetworkByName("ResNet-50")
	if err != nil {
		b.Fatal(err)
	}
	names := pool.DeviceNames()
	for _, name := range names { // warm every target once
		if _, err := pool.Select(name, PlanRequest{Graph: g, DeadlineMs: 0.9}); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pool.Select(names[i%len(names)], PlanRequest{Graph: g, DeadlineMs: 0.9}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(names)), "devices")
}

// BenchmarkGatewayCoalescedBurstStaggered is the burst benchmark under
// socket-staggered arrivals: the 16 requests of each burst start ~50 µs
// apart instead of simultaneously, on the default configuration. Each
// burst posts a never-seen graph (coldNet), so its first request is
// lane work whose cold plan outlasts the 750 µs stagger: the stragglers
// coalesce onto it, and exec/burst reads 1.0.
func BenchmarkGatewayCoalescedBurstStaggered(b *testing.B) {
	const burst = 16
	gw := newBenchGateway(b)
	if err := benchGatewayPost(gw, `{"network":"ResNet-50","deadline_ms":0.9}`); err != nil { // warm
		b.Fatal(err)
	}
	execsBefore := gw.Planner().Executions()
	var failed atomic.Pointer[error]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		body := coldBody(b, i)
		start := make(chan struct{})
		var wg sync.WaitGroup
		for j := 0; j < burst; j++ {
			wg.Add(1)
			go func(j int) {
				defer wg.Done()
				<-start
				time.Sleep(time.Duration(j) * 50 * time.Microsecond)
				if err := benchGatewayPost(gw, body); err != nil {
					failed.CompareAndSwap(nil, &err)
				}
			}(j)
		}
		close(start)
		wg.Wait()
	}
	b.StopTimer()
	if errp := failed.Load(); errp != nil {
		b.Fatal(*errp)
	}
	execs := gw.Planner().Executions() - execsBefore
	b.ReportMetric(float64(execs)/float64(b.N), "exec/burst")
	b.ReportMetric(burst, "reqs/burst")
}

// coldNet builds a never-seen-before blocked network; each distinct
// index is a genuinely cold plan (name and structure both feed the
// cache keys). The nets are deep enough that a cold plan — measure the
// parent, profile its table, enumerate and measure every blockwise
// TRN — costs several milliseconds, the load shape one slow target
// imposes on a shared worker pool.
func coldNet(i int) *Graph {
	b := graph.NewBuilder(fmt.Sprintf("lane-cold-%d", i), graph.Shape{H: 32, W: 32, C: 3}, 8)
	x := b.Input()
	x = b.ConvBNReLU(x, 3, 16+i%4, 2, graph.Same)
	for blk := 0; blk < 5+i%3; blk++ {
		b.BeginBlock(fmt.Sprintf("b%d", blk))
		y := b.ConvBNReLU(x, 3, 16+i%4, 1, graph.Same)
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

// coldBody is a request posting coldNet(i) at the default device.
func coldBody(b *testing.B, i int) string {
	wire, err := json.Marshal(gateway.EncodeGraph(coldNet(i)))
	if err != nil {
		b.Fatal(err)
	}
	return fmt.Sprintf(`{"graph":%s,"deadline_ms":0.35}`, wire)
}

// BenchmarkGatewayLaneIsolation measures head-of-line isolation across
// the per-device lanes: a warm request stream on the default device
// while generators continuously execute cold plans of never-seen
// graphs, one generator per permit of the loaded lane. Three phases
// report the warm stream's p99 with the generators quiet, with them
// loading a *different* device (cross_lane_p99_ms — the case lanes
// isolate: no warm pass waits for a permit, only for CPU), and with
// them loading the *same* device (same_lane_p99_ms — the head-of-line
// case, where every permit holds a multi-millisecond cold plan and a
// warm pass waits for one to free). Both loaded phases also carry raw
// CPU-time contention, which no queueing design can remove: the
// generators alone keep GOMAXPROCS cores busy. So cross_lane falls
// clearly below same_lane only on a host with cores to spare beyond
// one lane's permits; on a 2-vCPU host the two overlap (nine runs at
// -benchtime 900x: cross_lane 0.5–6.7 ms, same_lane 2.6–8.3 ms). The
// head-of-line *correctness* property is pinned by the gateway's
// TestGatewayLaneIsolation.
//
// Every timed warm request is lane work, never a resident answer: the
// stream walks answer staircases down, each request just under the last
// answer's estimated_ms, so it lands on a step no request has accepted
// yet. An infeasible answer moves the walk to a fresh graph, whose
// first (cold) request runs untimed.
func BenchmarkGatewayLaneIsolation(b *testing.B) {
	gw := newBenchGateway(b)
	names := gw.Pool().DeviceNames()
	warmDev, coldDev := names[0], names[2]

	var walkBody func(d float64) string
	walkD, walkGraphs := 0.0, 0 // walkD == 0: start the next graph
	walkPost := func(d float64) time.Duration {
		req := httptest.NewRequest(http.MethodPost, "/v1/plan", strings.NewReader(walkBody(d)))
		rec := httptest.NewRecorder()
		t0 := time.Now()
		gw.Handler().ServeHTTP(rec, req)
		el := time.Since(t0)
		if rec.Code != http.StatusOK {
			b.Fatalf("warm walk at %g ms: status %d: %s", d, rec.Code, rec.Body.String())
		}
		var r gateway.PlanResponseWire
		if err := json.Unmarshal(rec.Body.Bytes(), &r); err != nil {
			b.Fatal(err)
		}
		walkD = 0
		if r.Feasible {
			walkD = r.EstimatedMs * (1 - 1e-9)
		}
		return el
	}
	measure := func(n int) []float64 {
		lat := make([]float64, 0, n)
		for len(lat) < n {
			if walkD == 0 {
				wire := gatewayGraphJSON(b, coldNet(1<<30+walkGraphs))
				walkGraphs++
				walkBody = func(d float64) string {
					return fmt.Sprintf(`{"graph":%s,"deadline_ms":%g,"target":%q}`, wire, d, warmDev)
				}
				walkPost(1e6) // above the whole staircase: the graph's cold first request
				continue
			}
			lat = append(lat, float64(walkPost(walkD))/float64(time.Millisecond))
		}
		return lat
	}
	p99 := func(lat []float64) float64 {
		if len(lat) == 0 {
			return 0
		}
		sort.Float64s(lat)
		return lat[(len(lat)*99)/100]
	}
	// underColdLoad runs measure(n) while generators keep cold plans of
	// fresh graphs executing against dev, one generator per permit of
	// dev's lane (par.Workers(), the default lane width), so in the
	// same-lane phase every permit is busy with a cold pass and a warm
	// pass must wait for one to free. seq offsets graph names so no
	// phase or generator ever sees a graph another one warmed. Generator
	// failures surface on the benchmark goroutine (FailNow is illegal
	// off it) — a phase measured against a silently dead generator
	// would report an unloaded p99 as a loaded one.
	seq := 0
	underColdLoad := func(dev string, n int) []float64 {
		stop := make(chan struct{})
		var genErr atomic.Pointer[error]
		var wg sync.WaitGroup
		for range par.Workers() {
			wg.Add(1)
			go func(base int) {
				defer wg.Done()
				for i := base; ; i++ {
					select {
					case <-stop:
						return
					default:
					}
					wire, err := json.Marshal(gateway.EncodeGraph(coldNet(i)))
					if err != nil {
						genErr.CompareAndSwap(nil, &err)
						return
					}
					body := fmt.Sprintf(`{"graph":%s,"deadline_ms":0.35,"target":%q}`, wire, dev)
					if err := benchGatewayPost(gw, body); err != nil {
						genErr.CompareAndSwap(nil, &err)
						return
					}
				}
			}(seq)
			seq += 1 << 20
		}
		lat := measure(n)
		close(stop)
		wg.Wait()
		if errp := genErr.Load(); errp != nil {
			b.Fatalf("cold generator on %s died: %v", dev, *errp)
		}
		return lat
	}

	third := b.N / 3
	b.ResetTimer()
	quietLat := measure(third)
	crossLat := underColdLoad(coldDev, third)
	sameLat := underColdLoad(warmDev, b.N-2*third)
	b.StopTimer()

	// The walk never repeats a step, so nothing was answered resident.
	rec := httptest.NewRecorder()
	gw.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if strings.Contains(rec.Body.String(), "netcut_gateway_resident_total") {
		b.Fatal("a timed warm request was a resident answer, not lane work")
	}
	b.ReportMetric(p99(quietLat), "quiet_p99_ms")
	b.ReportMetric(p99(crossLat), "cross_lane_p99_ms")
	b.ReportMetric(p99(sameLat), "same_lane_p99_ms")
}

// BenchmarkPlannerConcurrentThroughput measures service throughput: a
// shared warm Planner serving a zoo-cycling request stream from
// RunParallel workers.
func BenchmarkPlannerConcurrentThroughput(b *testing.B) {
	nets := Networks()
	p, err := NewPlanner(PlannerConfig{Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	for _, g := range nets { // warm every architecture once
		if _, err := p.Select(PlanRequest{Graph: g, DeadlineMs: 0.9}); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			g := nets[i%len(nets)]
			i++
			if _, err := p.Select(PlanRequest{Graph: g, DeadlineMs: 0.9}); err != nil {
				b.Fatal(err)
			}
		}
	})
}
