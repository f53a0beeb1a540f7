package graph

// Hash64 is the FNV-1a accumulator every structure- and calibration-
// keyed cache in this repository builds its keys with: graph
// fingerprints here, device-calibration fingerprints and plan keys in
// internal/device. Sharing one implementation keeps the "fold X into
// the key" pattern a one-liner and stops the constants from drifting
// across hand-rolled copies. The zero value is NOT a valid start
// state; begin with NewHash.
type Hash64 uint64

// NewHash returns the FNV-1a offset basis.
func NewHash() Hash64 { return 14695981039346656037 }

const fnvPrime = 1099511628211

// Mix folds one 64-bit value into the hash.
func (h Hash64) Mix(v uint64) Hash64 { return (h ^ Hash64(v)) * fnvPrime }

// MixString folds a length-delimited string into the hash.
func (h Hash64) MixString(s string) Hash64 {
	for i := 0; i < len(s); i++ {
		h = (h ^ Hash64(s[i])) * fnvPrime
	}
	return h.Mix(uint64(len(s)))
}

// Sum returns the accumulated hash.
func (h Hash64) Sum() uint64 { return uint64(h) }

// Fingerprint returns a structural identity hash of g covering every
// field the caching layers downstream depend on: node identity, name,
// op kind, accounting (MACs, weight/IO bytes), output channels, wiring
// and block/head membership, the block table (which layer removal cuts
// along), and the graph name. Two graphs with equal fingerprints
// execute identically, profile identically (per-layer row names
// included) and cut identically, which is what lets the device,
// profiler and trim layers memoize per structure instead of per
// object. A sealed graph (see the Graph doc) returns the fingerprint
// its constructor recorded; an unsealed one is hashed on every call.
// Graphs are immutable once built: mutating a graph after it has been
// fingerprinted would poison those caches.
func Fingerprint(g *Graph) uint64 {
	if g.sealed {
		return g.print
	}
	return fingerprint(g)
}

func fingerprint(g *Graph) uint64 {
	h := NewHash()
	mix := func(v uint64) { h = h.Mix(v) }
	str := func(s string) { h = h.MixString(s) }
	str(g.Name)
	mix(uint64(len(g.Nodes)))
	for _, n := range g.Nodes {
		mix(uint64(n.ID))
		str(n.Name)
		mix(uint64(n.Kind))
		mix(uint64(n.MACs))
		mix(uint64(n.WeightBytes))
		mix(uint64(n.IOBytes))
		mix(uint64(n.Out.C))
		mix(uint64(n.Block))
		if n.Head {
			mix(1)
		} else {
			mix(0)
		}
		mix(uint64(len(n.Inputs)))
		for _, in := range n.Inputs {
			mix(uint64(in))
		}
	}
	mix(uint64(len(g.Blocks)))
	for _, b := range g.Blocks {
		mix(uint64(b.Index))
		mix(uint64(b.Output))
		mix(uint64(len(b.Nodes)))
		for _, id := range b.Nodes {
			mix(uint64(id))
		}
	}
	return h.Sum()
}
