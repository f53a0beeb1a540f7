// Package zoo defines the seven ImageNet architectures the paper evaluates
// (Sec. III-B1) as layer graphs: MobileNetV1 (width 0.25 and 0.5),
// MobileNetV2 (width 1.0 and 1.4), ResNet-50, InceptionV3 and
// DenseNet-121.
//
// Each builder reproduces the reference topology at the layer granularity
// of common framework model summaries, including the block structure that
// blockwise layer removal cuts at: 13 separable blocks for MobileNetV1,
// 17 inverted-residual blocks for MobileNetV2, 16 residual blocks for
// ResNet-50, 11 inception modules for InceptionV3, and 58 dense units +
// 3 transitions for DenseNet-121 — 148 blockwise TRN candidates in total,
// matching the paper's count.
package zoo

import (
	"fmt"
	"sort"

	"netcut/internal/graph"
)

// ImageNetClasses is the class count of the pretraining task.
const ImageNetClasses = 1000

// Names lists the canonical names of the paper's seven networks, in the
// latency order of Fig. 1 (fastest first).
var Names = []string{
	"MobileNetV1 (0.25)",
	"MobileNetV1 (0.5)",
	"MobileNetV2 (1.0)",
	"MobileNetV2 (1.4)",
	"ResNet-50",
	"InceptionV3",
	"DenseNet-121",
}

var builders = map[string]func() *graph.Graph{
	"MobileNetV1 (0.25)": func() *graph.Graph { return MobileNetV1(0.25) },
	"MobileNetV1 (0.5)":  func() *graph.Graph { return MobileNetV1(0.5) },
	"MobileNetV2 (1.0)":  func() *graph.Graph { return MobileNetV2(1.0) },
	"MobileNetV2 (1.4)":  func() *graph.Graph { return MobileNetV2(1.4) },
	"ResNet-50":          ResNet50,
	"InceptionV3":        InceptionV3,
	"DenseNet-121":       DenseNet121,
}

// ByName builds the named network. The name must be one of Names.
func ByName(name string) (*graph.Graph, error) {
	b, ok := builders[name]
	if !ok {
		known := make([]string, 0, len(builders))
		for k := range builders {
			known = append(known, k)
		}
		sort.Strings(known)
		return nil, fmt.Errorf("zoo: unknown network %q (known: %v)", name, known)
	}
	return b(), nil
}

// Paper7 builds all seven networks in the order of Names.
func Paper7() []*graph.Graph {
	gs := make([]*graph.Graph, len(Names))
	for i, n := range Names {
		g, err := ByName(n)
		if err != nil {
			panic(err) // unreachable: Names and builders are in sync
		}
		gs[i] = g
	}
	return gs
}

// alphaString formats a width multiplier the way the paper labels it:
// always with a decimal point ("1.0", "1.4", "0.25").
func alphaString(alpha float64) string {
	if alpha == float64(int(alpha)) {
		return fmt.Sprintf("%.1f", alpha)
	}
	return fmt.Sprintf("%g", alpha)
}

// makeDivisible rounds v*alpha to the nearest multiple of divisor, never
// going below 90% of the unrounded value — the channel-rounding rule the
// MobileNet family uses for width multipliers.
func makeDivisible(v float64, divisor int) int {
	// float64(v) rounds a caller's inlined c*alpha before the add, so
	// no build fuses it into a multiply-add and shifts a channel count.
	n := int(float64(v)+float64(divisor)/2) / divisor * divisor
	if n < divisor {
		n = divisor
	}
	if float64(n) < 0.9*v {
		n += divisor
	}
	return n
}

// imageNetHead appends the standard pretraining head: global average
// pooling, a 1000-way dense layer and softmax, all marked as
// classification-head layers (excluded from Eq. (1) layer accounting).
func imageNetHead(b *graph.Builder, x int) {
	b.BeginHead()
	x = b.GlobalAvgPool(x)
	x = b.Dense(x, ImageNetClasses)
	b.Softmax(x)
}
