package exp

import (
	"fmt"

	"netcut/internal/core"
	"netcut/internal/device"
	"netcut/internal/estimate"
	"netcut/internal/metric"
	"netcut/internal/trim"
	"netcut/internal/zoo"
)

// AblEstimatorChoice sweeps the deadline and compares the quality of
// NetCut's final selection under the three estimators: does a worse
// latency model pick worse networks or violate the deadline?
func (l *Lab) AblEstimatorChoice() (*Figure, error) {
	ana, err := l.AnalyticalEstimator()
	if err != nil {
		return nil, err
	}
	lin, err := l.LinearEstimator()
	if err != nil {
		return nil, err
	}
	ests := []estimate.Estimator{l.ProfilerEstimator(), ana, lin}

	f := &Figure{
		ID:     "abl-estimators",
		Title:  "Ablation: estimator choice vs selection quality across deadlines",
		XLabel: "deadline (ms)",
		YLabel: "accuracy of the selected network",
	}
	deadlines := []float64{0.3, 0.5, 0.7, 0.9, 1.2, 1.6, 2.2, 3.0}
	violations := map[string]int{}
	for _, est := range ests {
		s := Series{Name: est.Name()}
		for _, d := range deadlines {
			cands, err := l.Candidates()
			if err != nil {
				return nil, err
			}
			res, err := core.Explore(cands, d, est, l.rt, l.cfg.Head)
			if err != nil {
				return nil, err
			}
			if res.Best == nil {
				s.add(d, 0, "infeasible")
				continue
			}
			truth := l.prof.Measure(res.Best.TRN.Graph).MeanMs
			label := res.Best.TRN.Name()
			if truth > d {
				violations[est.Name()]++
				label += " (misses deadline!)"
			}
			s.add(d, res.Best.Accuracy, label)
		}
		f.Series = append(f.Series, s)
	}
	for _, est := range ests {
		f.Note("%s: %d ground-truth deadline violations across %d deadlines",
			est.Name(), violations[est.Name()], len(deadlines))
	}
	f.Note("a 4x worse latency model (linear) turns into missed deadlines or overly conservative cuts — why Sec. V-B invests in estimation accuracy")
	return f, nil
}

// AblBlockGranularity compares blockwise and exhaustive (per-layer)
// NetCut proposals on InceptionV3 and ResNet-50: accuracy gained vs
// cutpoints examined (the Sec. IV-A design choice).
func (l *Lab) AblBlockGranularity() (*Figure, error) {
	prof := l.ProfilerEstimator()
	f := &Figure{
		ID:     "abl-block",
		Title:  "Ablation: blockwise vs per-layer cut granularity",
		XLabel: "cutpoints examined",
		YLabel: "accuracy of first feasible TRN",
	}
	for _, name := range []string{"InceptionV3", "ResNet-50"} {
		g, err := zoo.ByName(name)
		if err != nil {
			return nil, err
		}
		s := Series{Name: name}

		// Blockwise: Algorithm 1 as published.
		c, err := l.p.Candidate(g)
		if err != nil {
			return nil, err
		}
		stairs := core.NewStaircase(c)
		k, err := stairs.Climb(g, l.cfg.DeadlineMs, prof, l.cfg.Head)
		if err != nil {
			return nil, err
		}
		blockIters := stairs.Explored() - 1 // cutpoints examined past the unmodified network
		var blockAcc float64
		var blockLabel string
		if k < stairs.Explored() {
			prop, err := stairs.Propose(c, k, l.rt, l.cfg.Head)
			if err != nil {
				return nil, err
			}
			blockAcc, blockLabel = prop.Accuracy, prop.TRN.Name()
		}
		s.add(float64(blockIters), blockAcc, "blockwise "+blockLabel)

		// Exhaustive: cut one layer deeper at a time from the top.
		exhaustive, err := trim.EnumerateExhaustive(g, l.cfg.Head)
		if err != nil {
			return nil, err
		}
		exIters := 0
		var exAcc float64
		var exLabel string
		for i := len(exhaustive) - 1; i >= 0; i-- { // deepest-last ordering: walk from the top
			tr := exhaustive[i]
			exIters++
			est, err := prof.EstimateMs(tr)
			if err != nil {
				return nil, err
			}
			if est <= l.cfg.DeadlineMs {
				acc, err := l.sim.Accuracy(tr)
				if err != nil {
					return nil, err
				}
				exAcc, exLabel = acc, tr.Name()
				break
			}
		}
		s.add(float64(exIters), exAcc, "per-layer "+exLabel)
		f.Series = append(f.Series, s)
		f.Note("%s: per-layer search examined %dx more cutpoints for %+.4f accuracy (paper: within-block gains < 0.03)",
			name, exIters/max(blockIters, 1), exAcc-blockAcc)
	}
	return f, nil
}

// AblDeviceModes quantifies what the deployment optimizations of
// Sec. III-B4 (layer fusion, quantization) contribute on the simulated
// device.
func (l *Lab) AblDeviceModes() (*Figure, error) {
	f := &Figure{
		ID:     "abl-device",
		Title:  "Ablation: deployment optimizations on the simulated device",
		XLabel: "network index (order of zoo.Names)",
		YLabel: "latency (ms)",
	}
	modes := []struct {
		name      string
		fusion    bool
		precision device.Precision
	}{
		{"int8+fusion (deployed)", true, device.INT8},
		{"int8, no fusion", false, device.INT8},
		{"fp16+fusion", true, device.FP16},
		{"fp32+fusion", true, device.FP32},
	}
	base := map[string]float64{}
	for _, m := range modes {
		cfg := *l.cfg.Device
		cfg.Fusion = m.fusion
		cfg.Precision = m.precision
		d, err := device.NewChecked(cfg)
		if err != nil {
			return nil, fmt.Errorf("exp: device mode %q: %w", m.name, err)
		}
		s := Series{Name: m.name}
		for i, g := range l.Networks() {
			lat := d.LatencyMs(g)
			s.add(float64(i), lat, g.Name)
			if m.name == modes[0].name {
				base[g.Name] = lat
			}
		}
		f.Series = append(f.Series, s)
	}
	var fusionWin, fp32Cost []float64
	for i, g := range l.Networks() {
		fusionWin = append(fusionWin, f.Series[1].Y[i]/base[g.Name])
		fp32Cost = append(fp32Cost, f.Series[3].Y[i]/base[g.Name])
	}
	f.Note("disabling fusion costs %.2fx on average (worst: DenseNet-121's unfused activations)", metric.Mean(fusionWin))
	f.Note("fp32 costs %.2fx vs deployed int8 on average", metric.Mean(fp32Cost))
	return f, nil
}
