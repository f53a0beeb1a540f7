// The digest is pinned on amd64 for the same reason as the profiler's:
// the tables and measurements it explores over come from math.Exp and
// math.Log, whose last bits are per-architecture assembly.

//go:build amd64

package core

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"

	"netcut/internal/device"
	"netcut/internal/estimate"
	"netcut/internal/profiler"
	"netcut/internal/svr"
	"netcut/internal/transfer"
	"netcut/internal/trim"
	"netcut/internal/zoo"
)

// exploreDigest is the FNV-64a fold of every bit Explore emits for the
// seven paper networks on every registered device under the profiler,
// analytical and linear estimators, at every deadline of each network's
// answer staircase: one deadline per distinct answer, from the
// unmodified network down to an infeasible one. Each answer folds its
// feasibility and every Proposal field (cutpoint, layers removed,
// EstimateMs, Accuracy, TrainHours, iterations). The golden figures
// round these values and sample few deadlines, so only this digest
// catches a last-bit change in the estimators, the retraining noise or
// the exploration loop. Computed before the warm-path caching of the
// Eq. 1 denominator and the retraining noise, which must not move it;
// the same value holds with GOAMD64=v3.
const exploreDigest uint64 = 0x09d6ab340bcd4373

func TestExploreOutputBitsPinned(t *testing.T) {
	h := fnv.New64a()
	var buf [8]byte
	fold := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	answers := 0
	for _, cfg := range device.Profiles() {
		prof, err := profiler.New(device.New(cfg), profiler.Protocol{WarmupRuns: 20, TimedRuns: 40}, 7)
		if err != nil {
			t.Fatal(err)
		}
		sim := transfer.NewSimulator(3)
		rt := RetrainerFunc(func(tr *trim.TRN) (TrainResult, error) {
			r, err := sim.Retrain(tr)
			return TrainResult{Accuracy: r.Accuracy, TrainHours: r.TrainHours}, err
		})
		tables := map[string]*profiler.Table{}
		var cands []Candidate
		var samples []estimate.Sample
		for _, g := range zoo.Paper7() {
			tables[g.Name] = prof.Profile(g)
			lat := prof.Measure(g).MeanMs
			acc, err := sim.OffTheShelfAccuracy(g.Name)
			if err != nil {
				t.Fatal(err)
			}
			cands = append(cands, Candidate{Graph: g, MeasuredMs: lat, Accuracy: acc})
			trns, err := trim.EnumerateBlockwise(g, trim.DefaultHead, false)
			if err != nil {
				t.Fatal(err)
			}
			for _, tr := range trns {
				samples = append(samples, estimate.Sample{
					TRN: tr, ParentLatencyMs: lat, MeasuredMs: prof.Measure(tr.Graph).MeanMs,
				})
			}
		}
		analytical, err := estimate.TrainAnalytical(samples, estimate.AnalyticalConfig{
			Grid: []svr.GridPoint{{Gamma: 0.1, C: 1e6}}, Folds: 2, Seed: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		linear, err := estimate.TrainLinear(samples)
		if err != nil {
			t.Fatal(err)
		}
		for _, est := range []estimate.Estimator{estimate.NewProfilerEstimator(tables), analytical, linear} {
			for _, c := range cands {
				for _, d := range staircase(t, c, est) {
					res, err := Explore([]Candidate{c}, d, est, rt, trim.DefaultHead)
					if err != nil {
						t.Fatal(err)
					}
					answers++
					if res.Best == nil {
						fold(0)
						continue
					}
					p := res.Best
					fold(1)
					fold(uint64(p.Cutpoint))
					fold(uint64(p.TRN.LayersRemoved))
					fold(math.Float64bits(p.EstimateMs))
					fold(math.Float64bits(p.Accuracy))
					fold(math.Float64bits(p.TrainHours))
					fold(uint64(p.Iterations))
				}
			}
		}
	}
	if got := h.Sum64(); got != exploreDigest {
		t.Fatalf("explore output digest %#016x over %d answers, want %#016x: a Proposal changed bits", got, answers, exploreDigest)
	}
}

// staircase returns one deadline per answer Explore can give for c
// under est: the unmodified network's latency, each cut's positive
// estimate (a deadline equal to an estimate accepts that cut), and half
// the smallest of them, which no cut meets.
func staircase(t *testing.T, c Candidate, est estimate.Estimator) []float64 {
	t.Helper()
	steps := []float64{c.MeasuredMs}
	lowest := c.MeasuredMs
	for cut := 1; cut <= c.Graph.BlockCount(); cut++ {
		tr, err := trim.Cut(c.Graph, cut, trim.DefaultHead)
		if err != nil {
			t.Fatal(err)
		}
		ms, err := est.EstimateMs(tr)
		if err != nil {
			t.Fatal(err)
		}
		if ms > 0 {
			steps = append(steps, ms)
			lowest = min(lowest, ms)
		}
	}
	return append(steps, lowest/2)
}
