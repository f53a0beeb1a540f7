// netprof profiles networks on the simulated embedded GPU using the
// paper's measurement protocol (200 warm-up + 800 timed runs) and dumps
// per-layer latency tables, the input to the Eq. (1) estimator.
//
// Usage:
//
//	netprof                          # measure all seven networks
//	netprof -net ResNet-50 -layers   # per-layer table for one network
//	netprof -warmup 50 -runs 200     # custom protocol
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"text/tabwriter"

	"netcut/internal/device"
	"netcut/internal/profiler"
	"netcut/internal/zoo"
)

func main() {
	netName := flag.String("net", "", "profile a single network")
	layers := flag.Bool("layers", false, "dump the per-layer table (requires -net)")
	csvOut := flag.Bool("csv", false, "emit the per-layer table as CSV (requires -net)")
	top := flag.Int("top", 0, "show only the top-N slowest layers (0 = all)")
	warmup := flag.Int("warmup", 200, "warm-up runs")
	runs := flag.Int("runs", 800, "timed runs")
	seed := flag.Int64("seed", 1, "measurement noise seed")
	flag.Parse()

	prof, err := profiler.New(device.New(device.Xavier()),
		profiler.Protocol{WarmupRuns: *warmup, TimedRuns: *runs}, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	if *csvOut {
		if *netName == "" {
			fmt.Fprintln(os.Stderr, "-csv requires -net")
			os.Exit(1)
		}
		g, err := zoo.ByName(*netName)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := prof.Profile(g).WriteCSV(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}

	names := zoo.Names
	if *netName != "" {
		names = []string{*netName}
	}
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "network\tmean(ms)\tstd(ms)\truns\ttable-sum(ms)\tevent-overhead")
	for _, n := range names {
		g, err := zoo.ByName(n)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		m, tbl := prof.MeasureProfile(g)
		fmt.Fprintf(w, "%s\t%.4f\t%.4f\t%d\t%.4f\t%+.1f%%\n",
			n, m.MeanMs, m.StdMs, m.Runs, tbl.SumMs(),
			100*(tbl.SumMs()-tbl.EndToEndMs)/tbl.EndToEndMs)
		if *layers && *netName != "" {
			w.Flush()
			dumpLayers(tbl, *top)
		}
	}
	w.Flush()
}

func dumpLayers(tbl *profiler.Table, top int) {
	rows := append([]profiler.LayerStat(nil), tbl.Layers...)
	if top > 0 {
		sort.Slice(rows, func(i, j int) bool { return rows[i].MeanMs > rows[j].MeanMs })
		if top < len(rows) {
			rows = rows[:top]
		}
	}
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "  node\tname\tkind\tmean(ms)")
	for _, r := range rows {
		fmt.Fprintf(w, "  %d\t%s\t%s\t%.5f\n", r.NodeID, r.Name, r.Kind, r.MeanMs)
	}
	w.Flush()
}
