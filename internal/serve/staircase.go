package serve

import (
	"sync"
	"sync/atomic"

	"netcut/internal/core"
	"netcut/internal/estimate"
	"netcut/internal/graph"
)

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

// staircase is one immutable snapshot of a staircase: the
// core.Staircase of one (graph, estimator), which answers every
// deadline as Algorithm 1's loop would, and the finished answers of the
// steps requests accepted.
type staircase struct {
	core.Staircase
	// steps[k] is cut k's answer, nil (or past the end) until a request
	// accepts it.
	steps []*Answer
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

// answer returns d's materialised answer, or nil when d falls past the
// explored prefix or on a step no request has accepted yet.
func (s *staircase) answer(d float64) *Answer {
	k := s.Search(d)
	if k < len(s.steps) {
		return s.steps[k]
	}
	if k == s.Explored() && s.Complete() {
		return s.infeasible
	}
	return nil
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
// rooted at cand's measured latency.
func (p *Planner) staircase(key stairKey, cand core.Candidate) *stairs {
	if st, ok := p.stairs.Get(key); ok {
		return st
	}
	st := &stairs{}
	st.cur.Store(&staircase{Staircase: core.NewStaircase(cand)})
	return p.stairs.Add(key, st)
}

// climb answers deadline d from st: core.Staircase.Climb extends the
// explored prefix with est as far as d needs, and only the accepted
// step is retrained and measured. est may be nil when st did not need
// extending for d.
func (p *Planner) climb(st *stairs, cand core.Candidate, d float64, est estimate.Estimator) (*Answer, error) {
	if a := st.cur.Load().answer(d); a != nil {
		return a, nil
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	cur := st.cur.Load()
	if a := cur.answer(d); a != nil {
		return a, nil // another request got here first
	}
	s := &staircase{Staircase: cur.Clone(), steps: cur.steps, infeasible: cur.infeasible}
	// Publish whatever was explored, even when a later call fails: every
	// estimate in it is final.
	defer st.cur.Store(s)
	k, err := s.Climb(cand.Graph, d, est, p.cfg.Head)
	if err != nil {
		return nil, err
	}
	if k == s.Explored() {
		s.infeasible = &Answer{resp: Response{Device: p.cfg.Device.Name, Parent: cand.Graph.Name}}
		return s.infeasible, nil
	}
	prop, err := s.Propose(cand, k, p.rt, p.cfg.Head)
	if err != nil {
		return nil, err
	}
	a := &Answer{resp: Response{
		Device:        p.cfg.Device.Name,
		Feasible:      true,
		Network:       prop.TRN.Name(),
		Parent:        cand.Graph.Name,
		BlocksRemoved: k,
		LayersRemoved: prop.TRN.LayersRemoved,
		EstimatedMs:   prop.EstimateMs,
		MeasuredMs:    p.dev.LatencyMs(prop.TRN.Graph),
		Accuracy:      prop.Accuracy,
		TrainHours:    prop.TrainHours,
		Iterations:    prop.Iterations,
	}}
	s.steps = make([]*Answer, max(len(cur.steps), k+1))
	copy(s.steps, cur.steps)
	s.steps[k] = a
	return a, nil
}
