package exp

import (
	"fmt"

	"netcut/internal/core"
	"netcut/internal/device"
	"netcut/internal/estimate"
	"netcut/internal/graph"
	"netcut/internal/par"
	"netcut/internal/profiler"
	"netcut/internal/transfer"
	"netcut/internal/trim"
	"netcut/internal/zoo"
)

// Config parameterizes the experimental setup.
type Config struct {
	Seed       int64
	DeadlineMs float64           // 0 = the prosthetic hand's 0.9 ms
	Device     *device.Config    // nil = calibrated Xavier simulation
	Protocol   profiler.Protocol // zero = paper's 200/800
	Head       trim.HeadSpec     // zero = trim.DefaultHead
	// TrainFraction is the analytical model's train split; 0 = the
	// paper's 20%.
	TrainFraction float64
	// BandMinMs bounds the deployable band for error statistics; 0 =
	// 0.15 ms (see estimate.DeployableBand).
	BandMinMs float64
}

func (c *Config) fill() {
	if c.DeadlineMs == 0 {
		c.DeadlineMs = 0.9
	}
	if c.Device == nil {
		cfg := device.Xavier()
		c.Device = &cfg
	}
	if c.Protocol == (profiler.Protocol{}) {
		c.Protocol = profiler.PaperProtocol()
	}
	if c.Head == (trim.HeadSpec{}) {
		c.Head = trim.DefaultHead
	}
	if c.TrainFraction == 0 {
		c.TrainFraction = 0.2
	}
	if c.BandMinMs == 0 {
		c.BandMinMs = 0.15
	}
}

// Lab owns the shared experimental state: the simulated device, the
// profiled tables, the 148-TRN blockwise families with measured
// latencies and retrained accuracies, and the trained estimators. All
// figure generators draw from the same measurements, as the paper's do.
//
// Every shared artefact is built at most once behind a singleflight
// cell, is immutable after its build, and fans its measurement work out
// over a worker pool. Determinism contract: all per-task randomness is
// derived from Config.Seed plus the task's own identity (network name,
// TRN), never from execution order, so any interleaving of generators
// at any GOMAXPROCS produces bit-identical figures for a fixed seed.
type Lab struct {
	cfg Config

	dev  *device.Device
	prof *profiler.Profiler
	sim  *transfer.Simulator
	rt   core.Retrainer

	nets       par.Lazy[[]*graph.Graph]
	candidates par.Lazy[[]core.Candidate]
	tables     par.Lazy[map[string]*profiler.Table]
	samples    par.Lazy[[]estimate.Sample]
	sweep      par.Lazy[*core.Sweep]
	analytical par.Lazy[*estimate.AnalyticalEstimator]
	linear     par.Lazy[*estimate.LinearEstimator]
}

// NewLab builds a Lab for the given configuration.
func NewLab(cfg Config) (*Lab, error) {
	cfg.fill()
	dev := device.New(*cfg.Device)
	prof, err := profiler.New(dev, cfg.Protocol, cfg.Seed)
	if err != nil {
		return nil, err
	}
	sim := transfer.NewSimulator(cfg.Seed)
	l := &Lab{
		cfg:  cfg,
		dev:  dev,
		prof: prof,
		sim:  sim,
	}
	l.rt = core.RetrainerFunc(func(t *trim.TRN) (core.TrainResult, error) {
		r, err := sim.Retrain(t)
		return core.TrainResult{Accuracy: r.Accuracy, TrainHours: r.TrainHours}, err
	})
	return l, nil
}

// Deadline returns the configured deadline in milliseconds.
func (l *Lab) Deadline() float64 { return l.cfg.DeadlineMs }

// Device returns the simulated device.
func (l *Lab) Device() *device.Device { return l.dev }

// networks returns the shared network slice; callers must not mutate it.
func (l *Lab) networks() []*graph.Graph {
	nets, _ := l.nets.Get(func() ([]*graph.Graph, error) { return zoo.Paper7(), nil })
	return nets
}

// Networks returns the seven paper networks (built once). The returned
// slice is the caller's to mutate.
func (l *Lab) Networks() []*graph.Graph {
	return append([]*graph.Graph(nil), l.networks()...)
}

// buildCandidates measures and accuracy-scores the zoo, one worker per
// network.
func (l *Lab) buildCandidates() ([]core.Candidate, error) {
	nets := l.networks()
	out := make([]core.Candidate, len(nets))
	err := par.ForEach(len(nets), func(i int) error {
		g := nets[i]
		acc, err := l.sim.OffTheShelfAccuracy(g.Name)
		if err != nil {
			return err
		}
		out[i] = core.Candidate{
			Graph:      g,
			MeasuredMs: l.prof.Measure(g).MeanMs,
			Accuracy:   acc,
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Candidates returns the Algorithm-1 inputs: each network with measured
// latency and transfer-learned accuracy. The returned slice is a copy.
func (l *Lab) Candidates() ([]core.Candidate, error) {
	c, err := l.candidates.Get(l.buildCandidates)
	if err != nil {
		return nil, err
	}
	return append([]core.Candidate(nil), c...), nil
}

func (l *Lab) buildTables() (map[string]*profiler.Table, error) {
	nets := l.networks()
	tbls := make([]*profiler.Table, len(nets))
	err := par.ForEach(len(nets), func(i int) error {
		tbls[i] = l.prof.Profile(nets[i])
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := make(map[string]*profiler.Table, len(nets))
	for i, g := range nets {
		out[g.Name] = tbls[i]
	}
	return out, nil
}

// Tables returns the per-layer profile tables, one per network. The map
// is a copy (the *Table values are shared and immutable), so callers may
// add or remove entries freely.
func (l *Lab) Tables() map[string]*profiler.Table {
	t, _ := l.tables.Get(l.buildTables)
	out := make(map[string]*profiler.Table, len(t))
	for k, v := range t {
		out[k] = v
	}
	return out
}

// buildSamples enumerates the blockwise TRN family of every candidate
// (cheap, serial) and fans the 148 ground-truth measurements out over
// the pool; each measurement's noise stream is derived from the TRN's
// own name, so the sample list is identical in any schedule.
func (l *Lab) buildSamples() ([]estimate.Sample, error) {
	cands, err := l.candidates.Get(l.buildCandidates)
	if err != nil {
		return nil, err
	}
	var out []estimate.Sample
	for _, c := range cands {
		trns, err := trim.EnumerateBlockwise(c.Graph, l.cfg.Head, false)
		if err != nil {
			return nil, err
		}
		for _, tr := range trns {
			out = append(out, estimate.Sample{TRN: tr, ParentLatencyMs: c.MeasuredMs})
		}
	}
	err = par.ForEach(len(out), func(i int) error {
		out[i].MeasuredMs = l.prof.Measure(out[i].TRN.Graph).MeanMs
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Samples returns the 148 blockwise TRNs with measured ground-truth
// latencies — the regression dataset of Sec. V-B2. The returned slice
// is a copy.
func (l *Lab) Samples() ([]estimate.Sample, error) {
	s, err := l.samples.Get(l.buildSamples)
	if err != nil {
		return nil, err
	}
	return append([]estimate.Sample(nil), s...), nil
}

// Sweep returns the blockwise exploration baseline: all 148 TRNs
// retrained and measured.
func (l *Lab) Sweep() (*core.Sweep, error) {
	return l.sweep.Get(func() (*core.Sweep, error) {
		cands, err := l.candidates.Get(l.buildCandidates)
		if err != nil {
			return nil, err
		}
		measure := core.Measurer(func(g *graph.Graph) float64 { return l.prof.Measure(g).MeanMs })
		return core.BlockwiseSweep(cands, l.rt, measure, l.cfg.Head)
	})
}

// ProfilerEstimator returns the Eq. (1) estimator over the lab's tables.
func (l *Lab) ProfilerEstimator() *estimate.ProfilerEstimator {
	return estimate.NewProfilerEstimator(l.Tables())
}

// AnalyticalEstimator returns the SVR estimator trained on the
// stratified 20% split of the measured TRN samples.
func (l *Lab) AnalyticalEstimator() (*estimate.AnalyticalEstimator, error) {
	return l.analytical.Get(func() (*estimate.AnalyticalEstimator, error) {
		samples, err := l.samples.Get(l.buildSamples)
		if err != nil {
			return nil, err
		}
		train, _ := estimate.StratifiedSplit(samples, l.cfg.TrainFraction, l.cfg.Seed)
		return estimate.TrainAnalytical(train, estimate.AnalyticalConfig{Seed: l.cfg.Seed})
	})
}

// LinearEstimator returns the OLS baseline trained on the same split.
func (l *Lab) LinearEstimator() (*estimate.LinearEstimator, error) {
	return l.linear.Get(func() (*estimate.LinearEstimator, error) {
		samples, err := l.samples.Get(l.buildSamples)
		if err != nil {
			return nil, err
		}
		train, _ := estimate.StratifiedSplit(samples, l.cfg.TrainFraction, l.cfg.Seed)
		return estimate.TrainLinear(train)
	})
}

// TestSamples returns the held-out 80% of the measured TRN samples.
func (l *Lab) TestSamples() ([]estimate.Sample, error) {
	samples, err := l.samples.Get(l.buildSamples)
	if err != nil {
		return nil, err
	}
	_, test := estimate.StratifiedSplit(samples, l.cfg.TrainFraction, l.cfg.Seed)
	return test, nil
}

// Explore runs NetCut with the given estimator at the lab deadline.
func (l *Lab) Explore(est estimate.Estimator) (*core.Result, error) {
	cands, err := l.Candidates()
	if err != nil {
		return nil, err
	}
	return core.Explore(cands, l.cfg.DeadlineMs, est, l.rt, l.cfg.Head)
}

// OffTheShelfAccuracy returns the transfer-learned accuracy of a
// network. The simulator derives it deterministically from (seed,
// network), so no caching layer is needed here.
func (l *Lab) OffTheShelfAccuracy(name string) (float64, error) {
	return l.sim.OffTheShelfAccuracy(name)
}

// Retrainer exposes the lab's retraining backend.
func (l *Lab) Retrainer() core.Retrainer { return l.rt }

// Simulator exposes the retraining simulator.
func (l *Lab) Simulator() *transfer.Simulator { return l.sim }

// All runs every figure and table generator in paper order. The
// generators execute concurrently — shared state they contend on is
// built once by whichever worker gets there first and reused by the
// rest — and the output order is fixed, so the rendered artefact stream
// is the same as a serial run's.
func (l *Lab) All() ([]*Figure, error) {
	type gen struct {
		name string
		fn   func() (*Figure, error)
	}
	gens := []gen{
		{"fig1", l.Fig1},
		{"fig4", l.Fig4},
		{"fig5", l.Fig5},
		{"fig6", l.Fig6},
		{"fig7", l.Fig7},
		{"fig8", l.Fig8},
		{"fig9", l.Fig9},
		{"fig10", l.Fig10},
		{"tab1", l.Tab1},
		{"abl-estimators", l.AblEstimatorChoice},
		{"abl-block", l.AblBlockGranularity},
		{"abl-device", l.AblDeviceModes},
		{"abl-iterative", l.AblIterativeCost},
		{"abl-extended", l.AblExtendedZoo},
		{"abl-earlyexit", l.AblEarlyExit},
	}
	out := make([]*Figure, len(gens))
	err := par.ForEach(len(gens), func(i int) error {
		f, err := gens[i].fn()
		if err != nil {
			return fmt.Errorf("exp: generating %s: %w", gens[i].name, err)
		}
		out[i] = f
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
