package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"math/rand/v2"
	"sort"
	"strconv"

	"netcut/internal/device"
	"netcut/internal/estimate"
	"netcut/internal/gateway"
	"netcut/internal/graph"
	"netcut/internal/profiler"
	"netcut/internal/trim"
	"netcut/internal/zoo"
)

// serverSeed is the planning seed netserve and every in-process
// reference run with. It is fixed: the workload seed only changes the
// request stream, never the program's own configuration.
const serverSeed = 1

// Workload names, as BENCHMARK.json lists them.
const (
	hitHeavy    = "hit-heavy"
	plannerWarm = "planner-warm"
	coldGraphs  = "cold-graphs"
)

var workloadNames = []string{hitHeavy, plannerWarm, coldGraphs}

// hitDeadlines are the fixed deadlines of the hit-heavy key space; the
// tight ones are infeasible on the slow devices, which is a valid
// (feasible:false) answer.
var hitDeadlines = []float64{0.25, 0.5, 0.9, 1.5, 3, 6, 12, 40}

// hitZipfS is the Zipf exponent of hit-heavy key popularity.
const hitZipfS = 1.1

// analyticalShare is the fraction of planner-warm requests that use the
// analytical estimator; the rest use the profiler estimator.
const analyticalShare = 0.2

// hashPrefix is how many leading requests the stream hash covers: a
// fixed prefix, so two runs of one seed print the same hash however
// many requests each managed to send.
const hashPrefix = 1024

// planReq is one request of a stream, in the form both the wire body
// and the in-process reference are built from. Exactly one of Network
// and GraphIndex (>= 0) names the graph.
type planReq struct {
	Network    string
	GraphIndex int
	Device     string
	DeadlineMs float64
	Estimator  string
}

// pair is one (zoo network, device) combination with the range of
// deadlines over which its answer changes.
type pair struct {
	Network string
	Device  string
	LoMs    float64 // below the deepest cut's estimate: infeasible
	HiMs    float64 // above the parent's measured latency: uncut
}

// stream is a workload's request sequence: request i is a pure function
// of (workload, seed, i), so any prefix replays byte for byte.
type stream struct {
	name    string
	seed    int64
	devices []string

	// hit-heavy: the key space and its popularity CDF over ranks.
	keys []planReq
	cdf  []float64
	rank []int // rank -> key index, a seeded permutation

	// planner-warm: the zoo x fleet pairs and their deadline ranges.
	pairs []pair
}

// rngFor returns the generator of item i of a stream: independent of
// every other item, so items can be drawn in any order.
func rngFor(seed int64, salt uint64, i int) *rand.Rand {
	return rand.New(rand.NewPCG(uint64(seed)^salt, uint64(i)*0x9e3779b97f4a7c15+salt))
}

// newStream builds the request sequence of one workload.
func newStream(name string, seed int64) (*stream, error) {
	s := &stream{name: name, seed: seed, devices: device.ProfileNames()}
	switch name {
	case hitHeavy:
		for _, n := range zoo.Names {
			for _, d := range s.devices {
				for _, dl := range hitDeadlines {
					s.keys = append(s.keys, planReq{Network: n, GraphIndex: -1, Device: d, DeadlineMs: dl, Estimator: "profiler"})
				}
			}
		}
		s.cdf = make([]float64, len(s.keys))
		sum := 0.0
		for r := range s.cdf {
			sum += 1 / math.Pow(float64(r+1), hitZipfS)
			s.cdf[r] = sum
		}
		for r := range s.cdf {
			s.cdf[r] /= sum
		}
		s.rank = rngFor(seed, 0x51, 0).Perm(len(s.keys))
	case plannerWarm:
		pairs, err := deadlineRanges(s.devices)
		if err != nil {
			return nil, err
		}
		s.pairs = pairs
	case coldGraphs:
	default:
		return nil, fmt.Errorf("unknown workload %q (known: %v)", name, workloadNames)
	}
	return s, nil
}

// at returns request i of the stream.
func (s *stream) at(i int) planReq {
	switch s.name {
	case hitHeavy:
		u := rngFor(s.seed, 0x52, i).Float64()
		r := sort.SearchFloat64s(s.cdf, u)
		if r >= len(s.cdf) {
			r = len(s.cdf) - 1
		}
		return s.keys[s.rank[r]]
	case plannerWarm:
		rng := rngFor(s.seed, 0x53, i)
		p := s.pairs[rng.IntN(len(s.pairs))]
		est := "profiler"
		if rng.Float64() < analyticalShare {
			est = "analytical"
		}
		return planReq{Network: p.Network, GraphIndex: -1, Device: p.Device,
			DeadlineMs: p.LoMs + rng.Float64()*(p.HiMs-p.LoMs), Estimator: est}
	default: // coldGraphs: graph k is sent twice back to back
		k := i / 2
		rng := rngFor(s.seed, 0x54, k)
		return planReq{GraphIndex: k, Device: s.devices[rng.IntN(len(s.devices))],
			DeadlineMs: math.Exp(math.Log(0.2) + rng.Float64()*math.Log(5/0.2)), Estimator: "profiler"}
	}
}

// graphOf returns the graph a request plans: the calibrated zoo network
// by name, or the stream's generated graph.
func (s *stream) graphOf(r planReq) (*graph.Graph, error) {
	if r.GraphIndex >= 0 {
		return coldGraph(s.seed, r.GraphIndex)
	}
	return zoo.ByName(r.Network)
}

// body renders a request as the JSON body of POST /v1/plan.
func (s *stream) body(r planReq) ([]byte, error) {
	w := gateway.PlanRequestWire{Network: r.Network, Target: r.Device, DeadlineMs: r.DeadlineMs, Estimator: r.Estimator}
	if r.GraphIndex >= 0 {
		g, err := coldGraph(s.seed, r.GraphIndex)
		if err != nil {
			return nil, err
		}
		w.Graph = gateway.EncodeGraph(g)
	}
	return json.Marshal(&w)
}

// hash is the SHA-256 of the bodies of the first hashPrefix requests.
func (s *stream) hash() (string, error) {
	h := sha256.New()
	for i := 0; i < hashPrefix; i++ {
		b, err := s.body(s.at(i))
		if err != nil {
			return "", err
		}
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))[:16], nil
}

// deadlineRanges computes, for every zoo network on every device, the
// deadline range over which the profiler estimator's answer changes:
// from 10% under the deepest cut's estimate (infeasible) to 10% over
// the parent's measured latency (no cut).
func deadlineRanges(devices []string) ([]pair, error) {
	var out []pair
	nets := zoo.Paper7()
	for _, name := range devices {
		cfg, err := device.ProfileByName(name)
		if err != nil {
			return nil, err
		}
		dev, err := device.NewChecked(cfg)
		if err != nil {
			return nil, err
		}
		prof, err := profiler.New(dev, profiler.PaperProtocol(), serverSeed)
		if err != nil {
			return nil, err
		}
		for _, g := range nets {
			est := estimate.NewProfilerEstimator(map[string]*profiler.Table{g.Name: prof.Profile(g)})
			deepest, err := trim.Cut(g, g.BlockCount(), trim.DefaultHead)
			if err != nil {
				return nil, err
			}
			lo, err := est.EstimateMs(deepest)
			if err != nil {
				return nil, err
			}
			out = append(out, pair{Network: g.Name, Device: name, LoMs: 0.9 * lo, HiMs: 1.1 * prof.Measure(g).MeanMs})
		}
	}
	return out, nil
}

// coldGraph builds graph k of a cold-graphs stream: a seeded network of
// varied depth, width and input size, unique by name and by structure
// (its class count is 10+k), that passes graph.Validate.
func coldGraph(seed int64, k int) (*graph.Graph, error) {
	rng := rngFor(seed, 0x55, k)
	side := 32 + 16*rng.IntN(13) // 32..224
	width := []int{16, 24, 32, 48, 64}[rng.IntN(5)]
	blocks := 4 + rng.IntN(13) // 4..16
	name := "pb-" + strconv.FormatInt(seed, 10) + "-" + strconv.Itoa(k)
	b := graph.NewBuilder(name, graph.Shape{H: side, W: side, C: 3}, 10+k)
	x := b.Input()
	x = b.ConvBNReLU(x, 3, width, 2, graph.Same)
	h := (side + 1) / 2
	for i := 0; i < blocks; i++ {
		stride := 1
		if i > 0 && i%3 == 0 && h > 4 {
			stride, h = 2, (h+1)/2
			if width < 512 {
				width *= 2
			}
		}
		b.BeginBlock("blk" + strconv.Itoa(i+1))
		switch kind := rng.IntN(3); {
		case kind == 0 && stride == 1: // residual: shapes match by construction
			y := b.ConvBNReLU(x, 3, width, 1, graph.Same)
			y = b.ConvBN(y, 3, width, 1, graph.Same)
			x = b.ReLU(b.Add(x, y))
		case kind == 1: // depthwise separable
			x = b.ReLU(b.BN(b.DWConv(x, 3, stride, graph.Same)))
			x = b.ConvBNReLU(x, 1, width, 1, graph.Same)
		default: // plain
			x = b.ConvBNReLU(x, 3, width, stride, graph.Same)
		}
		b.EndBlock()
	}
	b.BeginHead()
	x = b.GlobalAvgPool(x)
	x = b.Dense(x, 10+k)
	b.Softmax(x)
	return b.Finish()
}
