// Copyright 2009 The Go Authors. All rights reserved.
// Use of this source code is governed by a BSD-style
// license that can be found in the LICENSE file.

// Package noise draws math/rand's seeded standard-normal and uniform
// streams from a concrete value type. A Source seeded with s returns,
// draw for draw, the bits rand.New(rand.NewSource(s)).NormFloat64() and
// Float64() return: the same
// additive lagged-Fibonacci generator (Mitchell and Reeds) with the
// same seeding, and the same ziggurat (Marsaglia and Tsang, 2000). The
// seeding, rngCooked and the ziggurat are copied from the Go standard
// library's src/math/rand/{rng,normal}.go; see LICENSE.
//
// What differs is the cost of a draw. math/rand reaches its generator
// through the rand.Source interface and advances two ring indices per
// output. A Source keeps its last 607 outputs in output order and
// refills all of them at once, so a draw is one load plus the
// ziggurat's fast test, with the rare slow path out of line.
//
// Seeded math/rand streams are frozen by the Go 1 compatibility
// promise. The package's lockstep test runs a Source beside math/rand
// and catches a toolchain that breaks it.
package noise

import "math"

const (
	rngLen   = 607
	rngTap   = 273
	rngMask  = 1<<63 - 1
	int32max = 1<<31 - 1
	rn       = 3.442619855899
)

// Source is a seeded normal stream. The zero value is unseeded and
// draws only zeros; call Seed first. A Source is not safe for
// concurrent use. Copying a Source forks its stream: the copy draws
// exactly what the original would have drawn next.
type Source struct {
	// v holds the generator's last rngLen outputs, x[n-607] through
	// x[n-1], in output order; next is the index of the next one to
	// return. x[n] = x[n-607] + x[n-273], so once all of v has been
	// returned, refill overwrites it in place with the next block.
	next int
	v    [rngLen]int64
}

// seedrand is x[n+1] = 48271 * x[n] mod (2**31 - 1).
func seedrand(x int32) int32 {
	const (
		A = 48271
		Q = 44488
		R = 3399
	)

	hi := x / Q
	lo := x % Q
	x = A*lo - R*hi
	if x < 0 {
		x += int32max
	}
	return x
}

// Seed initializes the stream to the state rand.NewSource(seed) starts
// from.
func (s *Source) Seed(seed int64) {
	seed = seed % int32max
	if seed < 0 {
		seed += int32max
	}
	if seed == 0 {
		seed = 89482311
	}

	x := int32(seed)
	for i := -20; i < rngLen; i++ {
		x = seedrand(x)
		if i >= 0 {
			var u int64
			u = int64(x) << 40
			x = seedrand(x)
			u ^= int64(x) << 20
			x = seedrand(x)
			u ^= int64(x)
			u ^= rngCooked[i]
			// math/rand stores this as vec[i] of a ring whose feed
			// index starts at rngLen-rngTap and walks down, so vec[i]
			// is the output rngLen-rngTap-1-i (mod rngLen) of v.
			s.v[(2*rngLen-rngTap-1-i)%rngLen] = u
		}
	}
	s.next = rngLen
}

// refill replaces the block v with the next rngLen outputs. Output
// i < rngTap reads x[n-273] from the old block (v[i+334], not yet
// overwritten); the rest read it from the new one (v[i-273]). It runs
// once per rngLen draws, so it stays out of line to keep uint64 small.
//
//go:noinline
func (s *Source) refill() {
	v := &s.v
	lo, hi := v[:rngTap], v[rngLen-rngTap:]
	for i := range lo {
		lo[i] += hi[i]
	}
	tail, lag := v[rngTap:], v[:rngLen-rngTap]
	for i := range tail {
		tail[i] += lag[i]
	}
	s.next = 0
}

// uint64 returns the next raw generator output. It is small enough to
// inline into NormFloat64.
func (s *Source) uint64() uint64 {
	if s.next == rngLen {
		s.refill()
	}
	u := s.v[s.next]
	s.next++
	return uint64(u)
}

// Float64 returns the next uniform draw in [0, 1), the value
// rand.(*Rand).Float64 returns at the same point of the stream: a
// 63-bit output scaled down.
func (s *Source) Float64() float64 {
again:
	f := float64(int64(s.uint64()&rngMask)) / (1 << 63)
	if f == 1 {
		goto again // resample; this branch is taken O(never)
	}
	return f
}

func absInt32(i int32) uint32 {
	if i < 0 {
		return uint32(-i)
	}
	return uint32(i)
}

// NormFloat64 returns the next standard normal draw, the value
// rand.(*Rand).NormFloat64 returns at the same point of the stream.
func (s *Source) NormFloat64() float64 {
	j := int32(s.uint64() >> 31) // int32(rand.Uint32()): bits 31 to 62
	i := j & 0x7F
	x := float64(j) * float64(wn[i])
	if absInt32(j) < kn[i] {
		// This case should be hit better than 99% of the time.
		return x
	}
	return s.normSlow(j)
}

// normSlow finishes a draw whose candidate j failed the fast test: it
// is math/rand's ziggurat loop, entered at that candidate. Its
// floating-point expressions are math/rand's, unchanged, so a build
// that fuses multiply-adds fuses them here exactly where it does there.
//
//go:noinline
func (s *Source) normSlow(j int32) float64 {
	for {
		i := j & 0x7F
		x := float64(j) * float64(wn[i])
		if absInt32(j) < kn[i] {
			return x
		}

		if i == 0 {
			// This extra work is only required for the base strip.
			for {
				x = -math.Log(s.Float64()) * (1.0 / rn)
				y := -math.Log(s.Float64())
				if y+y >= x*x {
					break
				}
			}
			if j > 0 {
				return rn + x
			}
			return -rn - x
		}
		if fn[i]+float32(s.Float64())*(fn[i-1]-fn[i]) < float32(math.Exp(-.5*x*x)) {
			return x
		}
		j = int32(s.uint64() >> 31)
	}
}
