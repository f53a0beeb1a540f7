package noise

import (
	"math"
	"math/rand"
	"testing"
)

// consumed returns how many raw outputs a draw took, given the read
// index before and after it (fewer than rngLen per draw).
func consumed(before, after int) int {
	return (after - before%rngLen + rngLen) % rngLen
}

// TestLockstepWithMathRand draws 5M normals per seed from a Source and
// from math/rand's seeded generator, with a uniform Float64 draw after
// every third normal, and requires identical bits, over seeds that
// exercise every branch of Seed's reduction (zero, negative, past
// int32, near the int64 minimum). It also requires the ziggurat's slow
// path (wedge and tail tests, redraws) to have run, since the fast path
// alone would leave most of normSlow unchecked.
func TestLockstepWithMathRand(t *testing.T) {
	const draws = 5_000_000
	for _, seed := range []int64{0, 1, 42, -7, 1 << 40, -1 << 62} {
		var s Source
		s.Seed(seed)
		r := rand.New(rand.NewSource(seed))
		var slow, multi int
		for n := 0; n < draws; n++ {
			before := s.next
			got := s.NormFloat64()
			if want := r.NormFloat64(); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("seed %d draw %d: got %v (%#x), math/rand %v (%#x)",
					seed, n, got, math.Float64bits(got), want, math.Float64bits(want))
			}
			// A fast-path draw reads one output; a wedge accept reads
			// two; the tail strip and a rejected candidate read more.
			switch k := consumed(before, s.next); {
			case k > 2:
				multi++
				slow++
			case k == 2:
				slow++
			}
			if n%3 == 2 {
				if got, want := s.Float64(), r.Float64(); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("seed %d uniform after draw %d: got %v, math/rand %v", seed, n, got, want)
				}
			}
		}
		if slow == 0 || multi == 0 {
			t.Fatalf("seed %d: %d slow-path draws, %d reading more than two outputs; the test no longer covers normSlow",
				seed, slow, multi)
		}
	}
}

// TestCopyForksStream checks that a copied Source continues with the
// draws the original would have made, independently of it.
func TestCopyForksStream(t *testing.T) {
	var s Source
	s.Seed(3)
	for i := 0; i < 1000; i++ {
		s.NormFloat64()
	}
	fork := s
	want := make([]float64, 2000)
	for i := range want {
		want[i] = s.NormFloat64()
	}
	for i, w := range want {
		if got := fork.NormFloat64(); math.Float64bits(got) != math.Float64bits(w) {
			t.Fatalf("draw %d after the fork: %v, original drew %v", i, got, w)
		}
	}
}

func BenchmarkNormFloat64(b *testing.B) {
	b.Run("noise", func(b *testing.B) {
		var s Source
		s.Seed(1)
		var sum float64
		for b.Loop() {
			sum += s.NormFloat64()
		}
		_ = sum
	})
	b.Run("math_rand", func(b *testing.B) {
		r := rand.New(rand.NewSource(1))
		var sum float64
		for b.Loop() {
			sum += r.NormFloat64()
		}
		_ = sum
	})
}
