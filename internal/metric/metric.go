// Package metric implements the angular similarity accuracy measure the
// robotic-hand application uses (Sec. III-B3). The visual classifier and
// the EMG classifier both emit probability distributions over grasp
// types; prediction quality against a probabilistic label is the angular
// similarity between the two distributions, not a one-hot accuracy.
package metric

import (
	"fmt"
	"math"
)

// CosineSimilarity returns the cosine of the angle between two
// non-negative vectors. Panics if lengths differ; returns 0 if either
// vector is all-zero.
func CosineSimilarity(p, q []float64) float64 {
	if len(p) != len(q) {
		panic(fmt.Sprintf("metric: length mismatch %d vs %d", len(p), len(q)))
	}
	var dot, np, nq float64
	for i := range p {
		dot += p[i] * q[i]
		np += p[i] * p[i]
		nq += q[i] * q[i]
	}
	if np == 0 || nq == 0 {
		return 0
	}
	c := dot / math.Sqrt(np*nq)
	// Clamp accumulated floating-point error out of acos' domain.
	return math.Max(-1, math.Min(1, c))
}

// AngularDistance returns the normalized angle between two non-negative
// vectors: (2/pi) * acos(cosine similarity), in [0, 1]. 0 means
// identical direction, 1 means orthogonal.
func AngularDistance(p, q []float64) float64 {
	return 2 / math.Pi * math.Acos(CosineSimilarity(p, q))
}

// AngularSimilarity returns 1 - AngularDistance: the "accuracy (angular
// distance)" axis of the paper's figures, where 1 is a perfect match.
func AngularSimilarity(p, q []float64) float64 {
	return 1 - AngularDistance(p, q)
}

// MeanAngularSimilarity averages AngularSimilarity over prediction/label
// pairs; it is the dataset-level accuracy the paper reports.
func MeanAngularSimilarity(preds, labels [][]float64) float64 {
	if len(preds) != len(labels) {
		panic(fmt.Sprintf("metric: %d predictions vs %d labels", len(preds), len(labels)))
	}
	if len(preds) == 0 {
		return 0
	}
	var s float64
	for i := range preds {
		s += AngularSimilarity(preds[i], labels[i])
	}
	return s / float64(len(preds))
}

// RelativeError returns |estimate-actual| / actual. Used for the latency
// prediction errors of Fig. 9.
func RelativeError(estimate, actual float64) float64 {
	if actual == 0 {
		if estimate == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return math.Abs(estimate-actual) / math.Abs(actual)
}

// RelativeImprovement returns (a-b)/b: how much larger a is than b,
// e.g. the paper's "+10.43% relative accuracy improvement".
func RelativeImprovement(a, b float64) float64 {
	if b == 0 {
		return math.Inf(1)
	}
	return (a - b) / b
}

// Mean returns the arithmetic mean of xs (0 for an empty slice).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Std returns the population standard deviation of xs.
func Std(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	var s float64
	for _, x := range xs {
		d := x - m
		s += float64(d * d) // rounded before the add: never fused into a multiply-add
	}
	return math.Sqrt(s / float64(len(xs)))
}

// Normalize scales a non-negative vector to sum to 1 in place and
// returns it. An all-zero vector becomes uniform.
func Normalize(p []float64) []float64 {
	var s float64
	for _, v := range p {
		s += v
	}
	if s == 0 {
		for i := range p {
			p[i] = 1 / float64(len(p))
		}
		return p
	}
	for i := range p {
		p[i] /= s
	}
	return p
}
