// The digest is pinned on amd64. math.Exp (the warm-up factor of every
// run) and math.Log (inside NormFloat64) are per-architecture assembly
// on several ports, so their last bits, and this digest, are not
// portable across architectures.

//go:build amd64

package profiler

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"

	"netcut/internal/device"
	"netcut/internal/zoo"
)

// outputDigest is the FNV-64a fold of every bit the paper-protocol
// profiler emits for the seven paper networks on every registered
// device: each Measure's mean and std, and each Profile row's node ID,
// kind and mean plus the table's end-to-end mean. The golden figures round
// these values, and the restore-equals-recompute tests compare the code
// with itself, so only a pinned digest catches a last-bit change in the
// noise stream or in how a run is accumulated. Computed with the default
// GOAMD64=v1; the same value holds with GOAMD64=v3.
const outputDigest uint64 = 0xef4e7c9eee3f7f3d

func TestProfilerOutputBitsPinned(t *testing.T) {
	h := fnv.New64a()
	var buf [8]byte
	fold := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	for _, cfg := range device.Profiles() {
		p, err := New(device.New(cfg), PaperProtocol(), 11)
		if err != nil {
			t.Fatal(err)
		}
		for _, g := range zoo.Paper7() {
			m := p.Measure(g)
			fold(math.Float64bits(m.MeanMs))
			fold(math.Float64bits(m.StdMs))
			tbl := p.Profile(g)
			for _, l := range tbl.Layers {
				fold(uint64(l.NodeID))
				fold(uint64(l.Kind))
				fold(math.Float64bits(l.MeanMs))
			}
			fold(math.Float64bits(tbl.EndToEndMs))
		}
	}
	if got := h.Sum64(); got != outputDigest {
		t.Fatalf("profiler output digest %#016x, want %#016x: a Measure or Profile result changed bits", got, outputDigest)
	}
}
