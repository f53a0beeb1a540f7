package device

import (
	"math"
	"testing"

	"netcut/internal/graph"
	"netcut/internal/zoo"
)

func testNet() *graph.Graph {
	b := graph.NewBuilder("t", graph.Shape{H: 16, W: 16, C: 3}, 4)
	x := b.Input()
	x = b.ConvBNReLU(x, 3, 16, 1, graph.Same)
	y := b.ConvBNReLU(x, 3, 16, 1, graph.Same)
	y = b.Add(y, x)
	y = b.ReLU(y)
	b.BeginHead()
	y = b.GlobalAvgPool(y)
	y = b.Dense(y, 4)
	y = b.Softmax(y)
	return b.MustFinish()
}

func TestPlanFusesConvBNReLU(t *testing.T) {
	cfg := Xavier()
	plan := cfg.Plan(testNet())
	// Conv+BN+ReLU, Conv+BN+ReLU, Add+ReLU, GAP, Dense+Softmax = 5 kernels.
	if len(plan) != 5 {
		for _, k := range plan {
			t.Logf("kernel %v nodes=%v", k.Kind, k.Nodes)
		}
		t.Fatalf("plan has %d kernels, want 5", len(plan))
	}
	if len(plan[0].Nodes) != 3 {
		t.Fatalf("first kernel fused %d nodes, want 3", len(plan[0].Nodes))
	}
}

func TestPlanNoFusion(t *testing.T) {
	cfg := Xavier()
	cfg.Fusion = false
	g := testNet()
	plan := cfg.Plan(g)
	if len(plan) != g.LayerCount() {
		t.Fatalf("unfused plan has %d kernels, want %d", len(plan), g.LayerCount())
	}
}

func TestPlanCoversEveryNode(t *testing.T) {
	cfg := Xavier()
	for _, g := range zoo.Paper7() {
		plan := cfg.Plan(g)
		seen := map[int]bool{}
		for _, k := range plan {
			for _, id := range k.Nodes {
				if seen[id] {
					t.Fatalf("%s: node %d in two kernels", g.Name, id)
				}
				seen[id] = true
			}
		}
		want := g.LayerCount() // every node except input
		if len(seen) != want {
			t.Fatalf("%s: plan covers %d nodes, want %d", g.Name, len(seen), want)
		}
	}
}

func TestConcatDoesNotAbsorbBN(t *testing.T) {
	b := graph.NewBuilder("c", graph.Shape{H: 8, W: 8, C: 4}, 2)
	x := b.Input()
	a := b.Conv(x, 1, 4, 1, graph.Same)
	c := b.Conv(x, 1, 4, 1, graph.Same)
	m := b.Concat(a, c)
	m = b.BN(m)
	b.ReLU(m)
	g := b.MustFinish()
	cfg := Xavier()
	plan := cfg.Plan(g)
	// conv, conv, concat, BN+ReLU: the BN must not fold into the concat.
	if len(plan) != 4 {
		t.Fatalf("plan has %d kernels, want 4", len(plan))
	}
	if plan[2].Kind != graph.OpConcat || len(plan[2].Nodes) != 1 {
		t.Fatalf("concat kernel absorbed other nodes: %+v", plan[2])
	}
}

func TestFigure1LatencyOrdering(t *testing.T) {
	// The calibration invariant behind Fig. 1: published latency order,
	// and MobileNetV1 (0.5) the fastest network under the 0.9 ms deadline
	// with MobileNetV2 (1.0) above it.
	d := New(Xavier())
	var prev float64
	lat := map[string]float64{}
	for _, g := range zoo.Paper7() {
		l := d.LatencyMs(g)
		lat[g.Name] = l
		if l <= prev {
			t.Errorf("%s latency %.3f not greater than previous %.3f", g.Name, l, prev)
		}
		prev = l
	}
	const deadline = 0.9
	if lat["MobileNetV1 (0.5)"] >= deadline {
		t.Errorf("MobileNetV1 (0.5) = %.3f ms, must be under the %.1f ms deadline", lat["MobileNetV1 (0.5)"], deadline)
	}
	if lat["MobileNetV2 (1.0)"] <= deadline {
		t.Errorf("MobileNetV2 (1.0) = %.3f ms, must be over the %.1f ms deadline", lat["MobileNetV2 (1.0)"], deadline)
	}
	if lat["DenseNet-121"] < 2.5 || lat["DenseNet-121"] > 4.5 {
		t.Errorf("DenseNet-121 = %.3f ms, want in the paper's 2.5-4.5 band", lat["DenseNet-121"])
	}
	if lat["MobileNetV1 (0.25)"] > 0.6 {
		t.Errorf("MobileNetV1 (0.25) = %.3f ms, want < 0.6", lat["MobileNetV1 (0.25)"])
	}
}

func TestWarmupTransient(t *testing.T) {
	d := New(Xavier())
	g, err := zoo.ByName("MobileNetV1 (0.5)")
	if err != nil {
		t.Fatal(err)
	}
	s := d.Open(g, 1)
	first := s.InferMs()
	for i := 0; i < 199; i++ {
		s.InferMs()
	}
	var warm float64
	for i := 0; i < 200; i++ {
		warm += s.InferMs()
	}
	warm /= 200
	if first < warm*1.3 {
		t.Errorf("cold run %.3f not noticeably slower than warm mean %.3f", first, warm)
	}
	if math.Abs(warm-d.LatencyMs(g))/d.LatencyMs(g) > 0.02 {
		t.Errorf("warm mean %.3f deviates from steady state %.3f", warm, d.LatencyMs(g))
	}
}

func TestMeasurementNoiseIsBounded(t *testing.T) {
	d := New(Xavier())
	g, _ := zoo.ByName("MobileNetV1 (0.25)")
	s := d.Open(g, 7)
	for i := 0; i < 300; i++ {
		s.InferMs()
	}
	base := d.LatencyMs(g)
	minV, maxV := math.Inf(1), math.Inf(-1)
	for i := 0; i < 500; i++ {
		v := s.InferMs()
		minV = math.Min(minV, v)
		maxV = math.Max(maxV, v)
	}
	if minV < base*0.9 || maxV > base*1.1 {
		t.Errorf("warm measurements [%.4f, %.4f] stray >10%% from base %.4f", minV, maxV, base)
	}
	if maxV-minV < base*0.005 {
		t.Errorf("measurements suspiciously noiseless: spread %.5f", maxV-minV)
	}
}

func TestProfiledSumExceedsEndToEnd(t *testing.T) {
	// The observation motivating Eq. (1): per-layer event overhead makes
	// the layer-table sum exceed the plain end-to-end latency.
	d := New(Xavier())
	g, _ := zoo.ByName("ResNet-50")
	s := d.Open(g, 3)
	for i := 0; i < 200; i++ {
		s.InferMs()
	}
	layers := s.ProfiledLayers()
	sums := make([]float64, len(layers))
	total := s.InferProfiledAdd(sums)
	var sum float64
	for _, ms := range sums {
		sum += ms
	}
	if sum <= total {
		t.Fatalf("layer-table sum %.4f not greater than end-to-end %.4f", sum, total)
	}
	if sum > total*1.25 {
		t.Fatalf("event overhead implausibly large: sum %.4f vs total %.4f", sum, total)
	}
	if len(layers) != g.LayerCount() {
		t.Fatalf("profiled %d layers, want %d", len(layers), g.LayerCount())
	}
}

func TestInt8FasterThanFP16FasterThanFP32(t *testing.T) {
	g, _ := zoo.ByName("ResNet-50")
	lat := func(p Precision) float64 {
		cfg := Xavier()
		cfg.Precision = p
		return New(cfg).LatencyMs(g)
	}
	i8, f16, f32 := lat(INT8), lat(FP16), lat(FP32)
	if !(i8 < f16 && f16 < f32) {
		t.Fatalf("precision ordering broken: int8=%.3f fp16=%.3f fp32=%.3f", i8, f16, f32)
	}
}

func TestFusionReducesLatency(t *testing.T) {
	g, _ := zoo.ByName("DenseNet-121")
	on := Xavier()
	off := Xavier()
	off.Fusion = false
	lOn, lOff := New(on).LatencyMs(g), New(off).LatencyMs(g)
	if lOn >= lOff {
		t.Fatalf("fusion did not help: on=%.3f off=%.3f", lOn, lOff)
	}
	// DenseNet has hundreds of fusable activations; expect a big win.
	if lOff/lOn < 1.3 {
		t.Errorf("fusion win %.2fx suspiciously small for DenseNet", lOff/lOn)
	}
}

func TestDeterministicLatency(t *testing.T) {
	d := New(Xavier())
	g, _ := zoo.ByName("InceptionV3")
	if d.LatencyMs(g) != d.LatencyMs(g) {
		t.Fatal("LatencyMs not deterministic")
	}
	s1 := d.Open(g, 42)
	s2 := d.Open(g, 42)
	for i := 0; i < 10; i++ {
		if s1.InferMs() != s2.InferMs() {
			t.Fatal("same seed produced different measurement streams")
		}
	}
}

func TestDepthwisePenalty(t *testing.T) {
	// A depthwise conv with the same MACs as a dense conv must be slower.
	mk := func(dw bool) *graph.Graph {
		b := graph.NewBuilder("k", graph.Shape{H: 32, W: 32, C: 64}, 2)
		x := b.Input()
		if dw {
			x = b.DWConv(x, 3, 1, graph.Same)
		} else {
			// 1x1 conv sized to have comparable MACs: 32*32*64*9 vs
			// 32*32*outC*64 => outC=9.
			x = b.Conv(x, 1, 9, 1, graph.Same)
		}
		b.BeginHead()
		x = b.GlobalAvgPool(x)
		x = b.Dense(x, 2)
		b.Softmax(x)
		return b.MustFinish()
	}
	d := New(Xavier())
	if dwl, cl := d.LatencyMs(mk(true)), d.LatencyMs(mk(false)); dwl <= cl {
		t.Fatalf("depthwise %.4f not slower than dense %.4f", dwl, cl)
	}
}

func TestConfigValidation(t *testing.T) {
	mutations := []struct {
		name   string
		mutate func(c *Config)
	}{
		{"zero peak", func(c *Config) { c.PeakMACs = 0 }},
		{"zero bandwidth", func(c *Config) { c.MemBandwidth = 0 }},
		{"negative launch", func(c *Config) { c.LaunchOverheadMs = -1 }},
		{"bad conv eff", func(c *Config) { c.ConvEff = 1.5 }},
		{"zero dw eff", func(c *Config) { c.DWEff = 0 }},
		{"negative knee", func(c *Config) { c.ChannelKnee = -1 }},
		{"int8 no speedup", func(c *Config) { c.INT8Speedup = 0 }},
		{"huge noise", func(c *Config) { c.NoiseSigma = 0.9 }},
		{"cold no runs", func(c *Config) { c.ColdPenalty = 0.5; c.ColdRuns = 0 }},
		{"negative event", func(c *Config) { c.EventOverheadMs = -1 }},
	}
	for _, m := range mutations {
		cfg := Xavier()
		m.mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("%s: accepted", m.name)
		}
	}
	good := Xavier()
	if err := good.Validate(); err != nil {
		t.Fatalf("calibrated config invalid: %v", err)
	}
	// fp32 slowdown is only required in fp32 mode.
	fp32 := Xavier()
	fp32.Precision = FP32
	fp32.FP32Slowdown = 0
	if err := fp32.Validate(); err == nil {
		t.Error("fp32 without slowdown accepted")
	}
}

func TestNewPanicsOnInvalidConfig(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New accepted an invalid config")
		}
	}()
	cfg := Xavier()
	cfg.PeakMACs = -1
	New(cfg)
}

// TestColdFactorTableMatchesFormula checks the device's tabulated
// warm-up factors against the formula at both ends of the table and
// past it, where sessions compute the factor instead.
func TestColdFactorTableMatchesFormula(t *testing.T) {
	d := New(Xavier())
	cfg := d.Config()
	for _, k := range []int{0, 1, 199, coldTableRuns - 1, coldTableRuns, 5000} {
		if got, want := d.coldFactor(k), cfg.coldFactor(k); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("run %d: factor %v, formula %v", k, got, want)
		}
	}
}
