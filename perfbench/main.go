// Command perfbench is netcut's end-to-end benchmark: it starts
// cmd/netserve on loopback, drives one seeded workload through it over
// real HTTP with a closed loop of two clients, checks every answer
// against an in-process reference, and prints each metric by name and
// unit. With --trace 1 it also replays the same request stream in
// process, with spans around the calls into each layer, and prints the
// per-layer metrics instead. See README.md for the workloads, the load
// model and which layer metric should move which end-to-end metric.
//
// Run it from the repository root through the wrapper, which builds
// netserve and this command from the checked-out source first:
//
//	bash perfbench/run.sh --workload hit-heavy --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"time"
)

// clients is the closed loop's client count, one keep-alive connection
// each.
const clients = 2

// setups is how many times a run sets the server up; setup_s is the
// median, which one slow exec cannot move.
const setups = 5

type config struct {
	workload string
	seed     int64
	duration time.Duration
	trace    bool
	netserve string // netserve binary
	workDir  string // scratch files: state snapshots, span dumps
	setups   int    // set-ups per run; setup_s is their median
	commit   string
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var cfg config
	var seconds, trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload: "+strings.Join(workloadNames, ", "))
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed: the same seed sends the same requests")
	flag.IntVar(&seconds, "seconds", 15, "length of the timed phase in seconds")
	flag.IntVar(&trace, "trace", 0, "1 = also run the traced in-process replay and print per-layer metrics")
	flag.StringVar(&cfg.netserve, "netserve", ".bench_build/netserve", "netserve binary to benchmark")
	flag.StringVar(&cfg.workDir, "work", ".bench_build/perfbench", "directory for scratch files")
	flag.StringVar(&cfg.commit, "commit", "unknown", "commit SHA of the checkout, for the run metadata")
	flag.Parse()
	cfg.setups = setups
	cfg.duration = time.Duration(seconds) * time.Second
	cfg.trace = trace == 1
	if flag.NArg() > 0 || seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: bad arguments")
		flag.Usage()
		os.Exit(2)
	}
	res, err := run(cfg, os.Stdout)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// run executes one benchmark run and writes its report lines to out;
// the caller prints the result object as the last line.
func run(cfg config, out io.Writer) (*result, error) {
	// The generator runs on at most nproc threads, and never more than
	// the two its clients can use.
	if runtime.NumCPU() < clients {
		runtime.GOMAXPROCS(runtime.NumCPU())
	} else {
		runtime.GOMAXPROCS(clients)
	}
	if err := os.MkdirAll(cfg.workDir, 0o755); err != nil {
		return nil, err
	}
	st, err := newStream(cfg.workload, cfg.seed)
	if err != nil {
		return nil, err
	}
	hash, err := st.hash()
	if err != nil {
		return nil, err
	}
	w, err := prepare(st)
	if err != nil {
		return nil, fmt.Errorf("preparing %s: %w", cfg.workload, err)
	}

	// Set up several times and keep the last server for the timed phase.
	var setupS []float64
	var srv *server
	for n := 0; n < cfg.setups; n++ {
		s, d, err := w.setUp(cfg.netserve, cfg.workDir, n)
		if err != nil {
			return nil, fmt.Errorf("set-up %d: %w", n, err)
		}
		setupS = append(setupS, d.Seconds())
		if n < cfg.setups-1 {
			if err := s.stop(); err != nil {
				return nil, err
			}
			continue
		}
		srv = s
	}
	tp, err := timedPhase(srv, st, cfg.duration)
	if stopErr := srv.stop(); err == nil {
		err = stopErr
	}
	if err != nil {
		return nil, err
	}

	check, err := checkSamples(w.pool, st, tp.load.samples, clients)
	if err != nil {
		return nil, err
	}
	failed := tp.load.transport + check.non200 + check.mismatches
	p50, p99, windows := latencySummary(tp.load.samples, tp.load.elapsed)
	completed := len(tp.load.samples) - tp.load.transport

	distinct := 0
	if st.name == coldGraphs {
		distinct = (tp.load.attempted + 1) / 2
	}
	var violations []string
	fmt.Fprintf(out, "hygiene (counter deltas over the timed phase):")
	for _, c := range hygieneCounters {
		fmt.Fprintf(out, " %s=%g", strings.TrimPrefix(c, "netcut_"), tp.delta[c])
	}
	fmt.Fprintln(out)
	for _, e := range w.expectations(distinct) {
		got := 0.0
		for _, c := range e.counters {
			got += tp.delta[c]
		}
		verdict := "ok"
		if got != e.want {
			verdict = "VIOLATED"
			violations = append(violations, e.why)
		}
		fmt.Fprintf(out, "hygiene %s: %s = %g, want %g (%s)\n", verdict, strings.Join(e.counters, "+"), got, e.want, e.why)
	}

	meta := map[string]any{
		"workload": cfg.workload, "seed": cfg.seed, "commit": cfg.commit, "go": runtime.Version(),
		"nproc": runtime.NumCPU(), "gomaxprocs_generator": runtime.GOMAXPROCS(0),
		"gomaxprocs_server": runtime.NumCPU(), "load": "closed loop (no server-side queue can form)",
		"clients": clients, "connections": clients, "timed_s": tp.load.elapsed.Seconds(),
		"requests_attempted": tp.load.attempted, "requests_completed": completed,
		"transport_errors": tp.load.transport, "non_200": check.non200, "body_mismatches": check.mismatches,
		"fail_ratio":  float64(failed) / float64(tp.load.attempted),
		"p50_samples": len(tp.load.samples), "p99_ms": p99, "p99_samples": len(tp.load.samples), "p99_windows": windows,
		"setups": len(setupS), "stream_sha256_prefix": hash, "stream_hash_requests": hashPrefix,
	}
	if err := printJSONLine(out, "meta", meta); err != nil {
		return nil, err
	}
	if check.first != "" {
		fmt.Fprintf(out, "first failure: %s\n", check.first)
	}
	for _, v := range violations {
		fmt.Fprintf(out, "hygiene violated: %s\n", v)
	}

	res := &result{
		Correct:   failed == 0 && len(violations) == 0,
		Attempted: tp.load.attempted,
		Failed:    failed,
		Metrics: map[string]metric{
			"setup_s":               {median(setupS), "s"},
			"p50_ms":                {p50, "ms"},
			"server_cpu_ms_per_req": {tp.cpuS * 1000 / float64(completed), "ms"},
			"peak_rss_mb":           {tp.rssMB, "MB"},
			"success_ratio":         {1 - float64(failed)/float64(tp.load.attempted), "ratio"},
		},
	}
	if !cfg.trace {
		return res, nil
	}
	layers, err := traceLayers(cfg, w, tp, p50, p99, out)
	if err != nil {
		return nil, fmt.Errorf("traced replay: %w", err)
	}
	res.Metrics = layers
	return res, nil
}

// timed is what one timed phase measured.
type timed struct {
	load  *loadResult
	delta map[string]float64 // /metrics counter deltas
	cpuS  float64            // server CPU seconds
	rssMB float64
}

func timedPhase(s *server, st *stream, d time.Duration) (*timed, error) {
	before, err := s.metrics()
	if err != nil {
		return nil, err
	}
	cpu0, err := s.cpuSeconds()
	if err != nil {
		return nil, err
	}
	load, err := runClosedLoop(s.addr, st, clients, d)
	if err != nil {
		return nil, err
	}
	cpu1, err := s.cpuSeconds()
	if err != nil {
		return nil, err
	}
	after, err := s.metrics()
	if err != nil {
		return nil, err
	}
	rss, err := s.peakRSSMB()
	if err != nil {
		return nil, err
	}
	delta := make(map[string]float64, len(after))
	for k, v := range after {
		delta[k] = v - before[k]
	}
	return &timed{load: load, delta: delta, cpuS: cpu1 - cpu0, rssMB: rss}, nil
}

// printJSONLine writes "<tag> <json>"; encoding/json sorts map keys.
func printJSONLine(out io.Writer, tag string, v map[string]any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(out, "%s %s\n", tag, b)
	return err
}
