package main

import (
	"bytes"
	"io"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// The load model is a closed loop: each client sends its next request
// only after the previous response's last byte arrived. An open loop is
// not used because on a small shared host time.Sleep of 50-200 µs
// overshoots by about 1 ms at p50 and 3-7 ms at p99, more than a byte-
// cache hit's whole loopback latency (~0.12 ms), so an open-loop
// schedule would measure the generator's timer instead of the server.
// With one keep-alive connection per client and two clients, at most
// two requests are ever in flight, so no server-side queue can build:
// the latencies are service times, not queueing delays.

// sample is one timed request.
type sample struct {
	idx    int           // position in the stream
	start  time.Duration // send time, from the start of the timed phase
	lat    time.Duration // send to last body byte
	status int           // 0 on a transport error
	body   []byte
}

// loadResult is what the timed phase saw.
type loadResult struct {
	samples   []sample // ordered by stream index
	attempted int
	transport int // transport errors
	elapsed   time.Duration
}

// runClosedLoop drives clients closed-loop clients, each on its own
// keep-alive connection, through the stream for d. Requests are claimed
// in stream order from a shared counter, so the sent sequence is always
// a prefix of the stream.
func runClosedLoop(addr string, st *stream, clients int, d time.Duration) (*loadResult, error) {
	var next atomic.Int64
	url := "http://" + addr + "/v1/plan"
	per := make([][]sample, clients)
	errs := make([]error, clients)
	var wg sync.WaitGroup
	begin := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			tr := &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true}
			defer tr.CloseIdleConnections()
			cl := &http.Client{Transport: tr, Timeout: 30 * time.Second}
			for time.Since(begin) < d {
				i := int(next.Add(1) - 1)
				body, err := st.body(st.at(i))
				if err != nil {
					errs[c] = err
					return
				}
				s := sample{idx: i}
				t0 := time.Now()
				resp, err := cl.Post(url, "application/json", bytes.NewReader(body))
				if err == nil {
					s.body, err = io.ReadAll(resp.Body)
					resp.Body.Close()
					if err == nil {
						s.status = resp.StatusCode
					}
				}
				t1 := time.Now()
				s.start, s.lat = t0.Sub(begin), t1.Sub(t0)
				per[c] = append(per[c], s)
			}
		}(c)
	}
	wg.Wait()
	res := &loadResult{elapsed: time.Since(begin), attempted: int(next.Load())}
	for c := range per {
		if errs[c] != nil {
			return nil, errs[c]
		}
		res.samples = append(res.samples, per[c]...)
	}
	sort.Slice(res.samples, func(i, j int) bool { return res.samples[i].idx < res.samples[j].idx })
	for _, s := range res.samples {
		if s.status == 0 {
			res.transport++
		}
	}
	return res, nil
}

// quantile is the q-quantile of sorted xs by the nearest-rank rule.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

// latencySummary reports the p50 over every sample and the p99 as the
// median of per-window p99s: the timed phase is cut into windows of at
// least 1000 requests each (so every window's p99 has ten samples past
// it), which keeps one scheduler hiccup on a shared host from owning
// the tail figure of a whole run.
func latencySummary(samples []sample, elapsed time.Duration) (p50, p99 float64, windows int) {
	all := make([]float64, len(samples))
	for i, s := range samples {
		all[i] = float64(s.lat) / float64(time.Millisecond)
	}
	sort.Float64s(all)
	p50 = quantile(all, 0.5)
	windows = len(samples) / 1000
	if windows > 10 {
		windows = 10
	}
	if windows < 1 {
		return p50, quantile(all, 0.99), 1
	}
	buckets := make([][]float64, windows)
	for _, s := range samples {
		w := int(int64(s.start) * int64(windows) / int64(elapsed))
		if w >= windows {
			w = windows - 1
		}
		buckets[w] = append(buckets[w], float64(s.lat)/float64(time.Millisecond))
	}
	var p99s []float64
	for _, b := range buckets {
		if len(b) == 0 {
			continue
		}
		sort.Float64s(b)
		p99s = append(p99s, quantile(b, 0.99))
	}
	return p50, median(p99s), windows
}
