package exp

import (
	"fmt"

	"netcut/internal/core"
	"netcut/internal/device"
	"netcut/internal/estimate"
	"netcut/internal/graph"
	"netcut/internal/par"
	"netcut/internal/profiler"
	"netcut/internal/serve"
	"netcut/internal/transfer"
	"netcut/internal/trim"
	"netcut/internal/zoo"
)

// Config parameterizes the experimental setup. A zero Device, Protocol,
// Head or TrainFraction takes serve.Config's default.
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
	if c.BandMinMs == 0 {
		c.BandMinMs = 0.15
	}
}

// Lab runs the figure and table generators on the serving pipeline: it
// builds one serve.Planner and takes the simulated device, profiler,
// retraining simulator, zoo samples and trained estimators from it, so
// the figures and the service share one NetCut pipeline. On top it
// keeps the paper zoo's candidates, profiled tables and blockwise
// sweep. All figure generators draw from the same measurements, as the
// paper's do.
//
// Every shared artefact is built at most once behind a singleflight
// cell, is immutable after its build, and fans its measurement work out
// over a worker pool. Determinism contract: all per-task randomness is
// derived from Config.Seed plus the task's own identity (network name,
// TRN), never from execution order, so any interleaving of generators
// at any GOMAXPROCS produces bit-identical figures for a fixed seed.
type Lab struct {
	cfg Config

	p    *serve.Planner
	prof *profiler.Profiler
	sim  *transfer.Simulator
	rt   core.Retrainer

	candidates par.Lazy[[]core.Candidate]
	tables     par.Lazy[map[string]*profiler.Table]
	sweep      par.Lazy[*core.Sweep]
}

// NewLab builds a Lab for the given configuration. An invalid device
// profile is an error, as it is for serve.New.
func NewLab(cfg Config) (*Lab, error) {
	cfg.fill()
	p, err := serve.New(serve.Config{
		Seed:          cfg.Seed,
		Device:        cfg.Device,
		Protocol:      cfg.Protocol,
		Head:          cfg.Head,
		TrainFraction: cfg.TrainFraction,
	})
	if err != nil {
		return nil, err
	}
	// The figures read the filled defaults from l.cfg.
	pc := p.Config()
	cfg.Device, cfg.Protocol, cfg.Head, cfg.TrainFraction = pc.Device, pc.Protocol, pc.Head, pc.TrainFraction
	return &Lab{
		cfg:  cfg,
		p:    p,
		prof: p.Profiler(),
		sim:  p.Simulator(),
		rt:   p.Retrainer(),
	}, nil
}

// Deadline returns the configured deadline in milliseconds.
func (l *Lab) Deadline() float64 { return l.cfg.DeadlineMs }

// Device returns the simulated device.
func (l *Lab) Device() *device.Device { return l.p.Device() }

// Networks returns the seven paper networks: the process's shared
// instances, in a slice that is the caller's to mutate.
func (l *Lab) Networks() []*graph.Graph { return zoo.Paper7() }

// buildCandidates measures and accuracy-scores the zoo, one worker per
// network.
func (l *Lab) buildCandidates() ([]core.Candidate, error) {
	nets := zoo.Paper7()
	out := make([]core.Candidate, len(nets))
	err := par.ForEach(len(nets), func(i int) (err error) {
		out[i], err = l.p.Candidate(nets[i])
		return err
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
	nets := zoo.Paper7()
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

// Samples returns the 148 blockwise TRNs with measured ground-truth
// latencies — the regression dataset of Sec. V-B2. The returned slice
// is a copy.
func (l *Lab) Samples() ([]estimate.Sample, error) {
	s, err := l.p.ZooSamples()
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
	return l.p.AnalyticalEstimator()
}

// LinearEstimator returns the OLS baseline trained on the same split.
func (l *Lab) LinearEstimator() (*estimate.LinearEstimator, error) {
	return l.p.LinearEstimator()
}

// TestSamples returns the held-out 80% of the measured TRN samples.
func (l *Lab) TestSamples() ([]estimate.Sample, error) {
	samples, err := l.p.ZooSamples()
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
