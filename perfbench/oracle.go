package main

import (
	"bytes"
	"fmt"
	"net/http"
	"sync"

	"netcut/internal/gateway"
	"netcut/internal/serve"
)

// The correctness oracle: every 200 body, with its per-request trace_id
// stripped, must equal gateway.EncodeResponse of an in-process
// serve.PlannerPool built with the server's seed and device fleet. The
// determinism contract makes that a byte-for-byte comparison; a
// "feasible":false 200 is a correct answer like any other.

// newRefPool builds the in-process reference planner pool.
func newRefPool() (*serve.PlannerPool, error) {
	return serve.NewPool(serve.PoolConfig{Base: serve.Config{Seed: serverSeed}})
}

// reference plans one request in process and renders the body the
// server must have sent.
func reference(pool *serve.PlannerPool, st *stream, r planReq) ([]byte, error) {
	g, err := st.graphOf(r)
	if err != nil {
		return nil, err
	}
	resp, err := pool.Select(r.Device, serve.Request{Graph: g, DeadlineMs: r.DeadlineMs, Estimator: r.Estimator})
	if err != nil {
		return nil, err
	}
	return gateway.EncodeResponse(resp), nil
}

// checkResult counts what the oracle found.
type checkResult struct {
	non200     int
	mismatches int
	first      string // the first failure, for the report
}

// checkSamples compares every sample against its reference. References
// are built once per distinct request, off the timed path, on workers
// goroutines.
func checkSamples(pool *serve.PlannerPool, st *stream, samples []sample, workers int) (checkResult, error) {
	var res checkResult
	note := func(format string, args ...any) {
		if res.first == "" {
			res.first = fmt.Sprintf(format, args...)
		}
	}
	// Group samples by request identity: one reference per distinct
	// request, however often the stream repeated it.
	groups := make(map[planReq][]int)
	var order []planReq
	for i, s := range samples {
		if s.status != http.StatusOK {
			if s.status != 0 {
				res.non200++
				note("request %d: status %d: %s", s.idx, s.status, bytes.TrimSpace(s.body))
			}
			continue
		}
		r := st.at(s.idx)
		if _, ok := groups[r]; !ok {
			order = append(order, r)
		}
		groups[r] = append(groups[r], i)
	}
	refs := make([][]byte, len(order))
	errs := make([]error, len(order))
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for j := w; j < len(order); j += workers {
				refs[j], errs[j] = reference(pool, st, order[j])
			}
		}(w)
	}
	wg.Wait()
	for j, r := range order {
		if errs[j] != nil {
			return res, fmt.Errorf("reference for %+v: %w", r, errs[j])
		}
		for _, i := range groups[r] {
			if got := gateway.StripTraceID(samples[i].body); !bytes.Equal(got, refs[j]) {
				res.mismatches++
				note("request %d: body mismatch:\n got  %s want %s", samples[i].idx, got, refs[j])
			}
		}
	}
	return res, nil
}
