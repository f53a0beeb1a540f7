// Package device simulates an embedded GPU in the spirit of the NVIDIA
// Jetson Xavier the paper deploys on (substitution S1 in DESIGN.md).
//
// The model is an analytical per-kernel roofline: after a fusion pass
// groups layers into kernels, each kernel costs a launch overhead plus
// the maximum of its compute time (MACs over an efficiency-scaled peak
// throughput) and its memory time (weight + activation traffic over the
// memory bandwidth). The model reproduces the qualitative behaviours the
// paper's measurements exhibit and that its estimators must cope with:
//
//   - many-layer, memory-bound networks (DenseNet-121) are far slower
//     than their MAC count suggests;
//   - depthwise convolutions run at a fraction of dense-conv efficiency;
//   - per-layer event profiling adds overhead, so the sum of profiled
//     layer latencies exceeds the end-to-end latency (the observation
//     that motivates Eq. (1)'s ratio form);
//   - measurements are noisy and cold starts are slow, motivating the
//     200-warm-up/800-run protocol (Sec. IV-B2).
//
// All latencies are float64 milliseconds, the unit of every figure in
// the paper.
package device

import (
	"fmt"
	"math"

	"netcut/internal/graph"
)

// Precision selects the deployed arithmetic mode. The paper deploys with
// post-training INT8 quantization (Sec. III-B4).
type Precision int

const (
	FP32 Precision = iota
	FP16
	INT8
)

func (p Precision) String() string {
	switch p {
	case FP32:
		return "fp32"
	case FP16:
		return "fp16"
	default:
		return "int8"
	}
}

// bytesPerElem returns the storage size of one tensor element.
func (p Precision) bytesPerElem() float64 {
	switch p {
	case FP32:
		return 4
	case FP16:
		return 2
	default:
		return 1
	}
}

// Config describes the simulated device. The zero value is unusable; use
// Xavier() or fill every field.
type Config struct {
	Name string

	// PeakMACs is the peak sustained multiply-accumulate throughput at
	// FP16, in MAC/s, for a fully efficient dense convolution.
	PeakMACs float64
	// MemBandwidth is the effective DRAM bandwidth in bytes/s.
	MemBandwidth float64
	// LaunchOverheadMs is the fixed per-kernel dispatch cost.
	LaunchOverheadMs float64

	// Efficiency factors by kernel class, in (0, 1]: the fraction of
	// PeakMACs the class sustains at large channel counts.
	ConvEff  float64
	DWEff    float64 // depthwise convolutions are memory-starved
	DenseEff float64
	PoolEff  float64
	EltwEff  float64 // elementwise adds / activations

	// ChannelKnee is the output-channel count at which a kernel reaches
	// half of its class efficiency; narrow layers under-utilize the SIMD
	// lanes. This is the dominant source of the non-linearity that makes
	// the linear latency model fail (Fig. 9).
	ChannelKnee float64

	// INT8Speedup multiplies throughput when Precision is INT8.
	INT8Speedup float64
	// FP32Slowdown divides throughput when Precision is FP32.
	FP32Slowdown float64

	// Fusion enables the conv+BN+activation (and pool/add+activation)
	// fusion pass, as deployed inference engines do (Sec. III-B4).
	Fusion bool
	// Precision is the deployed arithmetic mode.
	Precision Precision

	// NoiseSigma is the relative standard deviation of per-run
	// measurement noise.
	NoiseSigma float64
	// ColdPenalty and ColdRuns shape the warm-up transient: run k is
	// slowed by 1 + ColdPenalty*exp(-k/ColdRuns).
	ColdPenalty float64
	ColdRuns    float64
	// EventOverheadMs is the extra cost recorded per layer when
	// profiling with per-layer events (CUDA-event style, Sec. V-B1).
	EventOverheadMs float64
}

// Validate checks that a configuration is physically meaningful; New
// panics on an invalid config because device configurations are static
// calibration tables, not runtime inputs.
func (c *Config) Validate() error {
	switch {
	case c.PeakMACs <= 0:
		return fmt.Errorf("device: non-positive peak throughput %v", c.PeakMACs)
	case c.MemBandwidth <= 0:
		return fmt.Errorf("device: non-positive memory bandwidth %v", c.MemBandwidth)
	case c.LaunchOverheadMs < 0:
		return fmt.Errorf("device: negative launch overhead %v", c.LaunchOverheadMs)
	case c.ConvEff <= 0 || c.ConvEff > 1,
		c.DWEff <= 0 || c.DWEff > 1,
		c.DenseEff <= 0 || c.DenseEff > 1,
		c.PoolEff <= 0 || c.PoolEff > 1,
		c.EltwEff <= 0 || c.EltwEff > 1:
		return fmt.Errorf("device: efficiency factors must be in (0,1]")
	case c.ChannelKnee < 0:
		return fmt.Errorf("device: negative channel knee %v", c.ChannelKnee)
	case c.Precision == INT8 && c.INT8Speedup <= 0:
		return fmt.Errorf("device: int8 mode needs a positive speedup")
	case c.Precision == FP32 && c.FP32Slowdown <= 0:
		return fmt.Errorf("device: fp32 mode needs a positive slowdown")
	case c.NoiseSigma < 0 || c.NoiseSigma > 0.5:
		return fmt.Errorf("device: noise sigma %v out of [0, 0.5]", c.NoiseSigma)
	case c.ColdPenalty < 0 || (c.ColdPenalty > 0 && c.ColdRuns <= 0):
		return fmt.Errorf("device: invalid warm-up transient (%v over %v runs)", c.ColdPenalty, c.ColdRuns)
	case c.EventOverheadMs < 0:
		return fmt.Errorf("device: negative event overhead %v", c.EventOverheadMs)
	}
	return nil
}

// Fingerprint returns a calibration identity hash covering every Config
// field. It is the device half of every structure-keyed cache key in
// the measurement stack: the device folds it into its plan keys (which
// the profiler's measurement and table memos inherit), so two targets
// with different calibrations can never share plans, measurements or
// tables — even if a future refactor points them at one shared cache.
// Cuts are not keyed by it: a TRN depends on the parent and the cut
// alone, so every device shares one cut namespace. Two configs with
// equal fingerprints simulate identically.
// fingerprintedFields must equal the number of fields in Config: a
// reflection test fails when a new field is added without folding it
// into Fingerprint below, because an omitted field would let two
// differently calibrated devices share cache keys — the exact
// poisoning the fingerprint exists to prevent.
const fingerprintedFields = 18

func (c *Config) Fingerprint() uint64 {
	h := graph.NewHash().MixString(c.Name)
	f := func(v float64) { h = h.Mix(math.Float64bits(v)) }
	f(c.PeakMACs)
	f(c.MemBandwidth)
	f(c.LaunchOverheadMs)
	f(c.ConvEff)
	f(c.DWEff)
	f(c.DenseEff)
	f(c.PoolEff)
	f(c.EltwEff)
	f(c.ChannelKnee)
	f(c.INT8Speedup)
	f(c.FP32Slowdown)
	if c.Fusion {
		h = h.Mix(1)
	} else {
		h = h.Mix(0)
	}
	h = h.Mix(uint64(c.Precision))
	f(c.NoiseSigma)
	f(c.ColdPenalty)
	f(c.ColdRuns)
	f(c.EventOverheadMs)
	return h.Sum()
}

// Xavier returns the calibrated default configuration. Constants are
// chosen so that the paper's seven networks land in the 0.1-4 ms band of
// Fig. 1 with the published ordering, and so that MobileNetV1 (0.5) is
// the fastest network meeting the 0.9 ms prosthetic-hand deadline.
func Xavier() Config {
	return Config{
		Name:             "sim-xavier",
		PeakMACs:         5.5e12,
		MemBandwidth:     60e9,
		LaunchOverheadMs: 0.010,
		ConvEff:          0.90,
		DWEff:            0.12,
		DenseEff:         0.40,
		PoolEff:          0.30,
		EltwEff:          0.45,
		ChannelKnee:      40,
		INT8Speedup:      1.8,
		FP32Slowdown:     2.0,
		Fusion:           true,
		Precision:        INT8,
		NoiseSigma:       0.012,
		ColdPenalty:      0.6,
		ColdRuns:         25,
		EventOverheadMs:  0.0009,
	}
}
