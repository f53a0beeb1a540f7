package serve

import (
	"math"
	"sync"
	"sync/atomic"

	"netcut/internal/core"
	"netcut/internal/estimate"
	"netcut/internal/graph"
	"netcut/internal/trim"
)

// The answer staircase. In Algorithm 1 a cutpoint's latency estimate
// does not depend on the deadline: the deadline only picks the first
// cutpoint whose estimate meets it. So for one (graph, estimator) a
// planner's answer is a step function of the deadline, and the planner
// keeps that function instead of re-running the loop per request.
//
// est[0] is the measured parent and est[k] the estimate of cut k, for
// the cutpoints explored so far, in order. min is their running
// minimum; the first k with min[k] <= d is exactly where the loop
// "for est > d { cut++ }" stops, since est[k] <= d first holds there.
// A NaN estimate ends that loop for any deadline (NaN > d is false), so
// from a NaN on min is -Inf. A deadline past the explored prefix
// extends it with the loop's own trim.Cut / EstimateMs calls, in the
// loop's order and never further than the loop would go; only the
// accepted step is retrained and measured, and then keeps its finished
// answer. A staircase holds floats and answers, never a graph or a TRN,
// so it cannot pin cuts the cut cache evicted.

// stairKey identifies one staircase: the name (measurement noise and
// transfer profiles derive from it), the structure and the estimator
// kind, with "" already folded into "profiler".
type stairKey struct {
	name      string
	print     uint64
	estimator string
}

// stairs is one cache entry. Readers load the current snapshot without
// locking; writers serialise on mu and publish a new snapshot
// (copy-on-write), so a resident lookup never waits on an extension.
type stairs struct {
	mu  sync.Mutex
	cur atomic.Pointer[staircase]
}

// staircase is one immutable snapshot of a staircase.
type staircase struct {
	est   []float64
	min   []float64
	steps []*Answer // steps[k] is cut k's answer, nil until a request accepts it
	// blocks is the graph's cutpoint count: the staircase is fully
	// explored once len(est) == blocks+1.
	blocks int
	// infeasible answers every deadline below the whole staircase, once
	// a request has asked for one.
	infeasible *Answer
}

// Answer is a materialised staircase step: the response every deadline
// on the step receives, and its rendered body.
type Answer struct {
	resp Response // TRN is always nil: Select resolves it through the cut cache
	body atomic.Pointer[[]byte]
}

// Body returns the step's body as rendered by render, rendering it on
// first use. render must be a pure function of the response, so that a
// concurrent first use renders the same bytes; the returned slice is
// shared and must not be modified.
func (a *Answer) Body(render func(*Response) []byte) []byte {
	if b := a.body.Load(); b != nil {
		return *b
	}
	b := render(&a.resp)
	if a.body.CompareAndSwap(nil, &b) {
		return b
	}
	return *a.body.Load()
}

// search returns the first explored k whose running minimum meets d,
// or len(s.est) when none does. min is non-increasing, so the
// predicate is monotone.
func (s *staircase) search(d float64) int {
	lo, hi := 0, len(s.min)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if s.min[mid] <= d {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// complete reports whether every cutpoint has been explored.
func (s *staircase) complete() bool { return len(s.est) == s.blocks+1 }

// short reports whether answering d needs cutpoints past the explored
// prefix.
func (s *staircase) short(d float64) bool { return s.search(d) == len(s.est) && !s.complete() }

// answer returns d's materialised answer, or nil when d falls past the
// explored prefix or on a step no request has accepted yet.
func (s *staircase) answer(d float64) *Answer {
	k := s.search(d)
	if k < len(s.est) {
		return s.steps[k]
	}
	if s.complete() {
		return s.infeasible
	}
	return nil
}

// clone copies s for a writer.
func (s *staircase) clone() *staircase {
	c := *s
	c.est = append([]float64(nil), s.est...)
	c.min = append([]float64(nil), s.min...)
	c.steps = append([]*Answer(nil), s.steps...)
	return &c
}

// push appends cut len(est)'s estimate.
func (s *staircase) push(e float64) {
	m := e
	if math.IsNaN(e) {
		m = math.Inf(-1)
	}
	if n := len(s.min); n > 0 {
		m = math.Min(s.min[n-1], m)
	}
	s.est = append(s.est, e)
	s.min = append(s.min, m)
	s.steps = append(s.steps, nil)
}

// estimatorKind folds the estimator spelling into a staircase key
// component, reporting false for an unknown kind.
func estimatorKind(s string) (string, bool) {
	switch s {
	case "", "profiler":
		return "profiler", true
	case "analytical", "linear":
		return s, true
	}
	return "", false
}

// Resident returns the materialised answer for req when the planner
// already holds one: a staircase for req's graph and estimator whose
// step for req's deadline some earlier request accepted. It does no
// planner work, counts no request or execution, and returns false for
// anything Select would reject or would have to compute.
func (p *Planner) Resident(req Request) (*Answer, bool) {
	g := req.Graph
	d := req.DeadlineMs
	if d == 0 {
		d = 0.9
	}
	kind, ok := estimatorKind(req.Estimator)
	if g == nil || !ok || !(d >= 0) {
		return nil, false
	}
	st, ok := p.stairs.Get(stairKey{name: g.Name, print: graph.Fingerprint(g), estimator: kind})
	if !ok {
		return nil, false
	}
	a := st.cur.Load().answer(d)
	return a, a != nil
}

// staircase returns the planner's staircase for key, creating one
// rooted at the measured parent.
func (p *Planner) staircase(key stairKey, parentMs float64, blocks int) *stairs {
	if st, ok := p.stairs.Get(key); ok {
		return st
	}
	st := &stairs{}
	s := &staircase{blocks: blocks}
	s.push(parentMs)
	st.cur.Store(s)
	return p.stairs.Add(key, st)
}

// climb answers deadline d from st: it extends the explored prefix
// with est until a cut meets d or every cut is explored, then
// materialises the accepted step, retraining and measuring only that
// cut. est may be nil when st did not need extending for d.
func (p *Planner) climb(st *stairs, cand core.Candidate, d float64, est estimate.Estimator) (*Answer, error) {
	if a := st.cur.Load().answer(d); a != nil {
		return a, nil
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	if a := st.cur.Load().answer(d); a != nil {
		return a, nil // another request got here first
	}
	s := st.cur.Load().clone()
	// Publish whatever was explored, even when a later call fails: every
	// estimate in it is final.
	defer st.cur.Store(s)
	g := cand.Graph
	k := s.search(d)
	for k == len(s.est) && !s.complete() {
		trn, err := trim.Cut(g, len(s.est), p.cfg.Head)
		if err != nil {
			return nil, err
		}
		e, err := est.EstimateMs(trn)
		if err != nil {
			return nil, err
		}
		s.push(e)
		if e > d { // NaN > d is false: a NaN estimate accepts
			k = len(s.est)
		}
	}
	if k == len(s.est) {
		s.infeasible = &Answer{resp: Response{Device: p.cfg.Device.Name, Parent: g.Name}}
		return s.infeasible, nil
	}
	trn, err := trim.Cut(g, k, p.cfg.Head)
	if err != nil {
		return nil, err
	}
	a := &Answer{resp: Response{
		Device:        p.cfg.Device.Name,
		Feasible:      true,
		Network:       trn.Name(),
		Parent:        g.Name,
		BlocksRemoved: k,
		LayersRemoved: trn.LayersRemoved,
		EstimatedMs:   s.est[k],
		MeasuredMs:    p.dev.LatencyMs(trn.Graph),
		Accuracy:      cand.Accuracy,
		Iterations:    k + 1,
	}}
	if k > 0 {
		// Only first-feasible cuts are retrained (Algorithm 1); the
		// unmodified network's accuracy is an input.
		tr, err := p.rt.Retrain(trn)
		if err != nil {
			return nil, err
		}
		a.resp.Accuracy, a.resp.TrainHours = tr.Accuracy, tr.TrainHours
	}
	s.steps[k] = a
	return a, nil
}
