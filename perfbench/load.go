package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"utcq/internal/mmapio"
	"utcq/pkg/client"
)

// request is one client call: a single where/when/range query, or a batch.
type request struct {
	q     client.BatchQuery
	batch []client.BatchQuery
}

func (r request) kind() string {
	if r.batch != nil {
		return "batch"
	}
	return r.q.Kind
}

func (r request) queries() int {
	if r.batch != nil {
		return len(r.batch)
	}
	return 1
}

// fire issues r through c and returns how many of its queries failed.
// A transport error or a non-2xx answer fails all of them; a batch also
// counts its in-band per-query errors.
func fire(ctx context.Context, c *client.Client, r request) (failed int, err error) {
	switch r.kind() {
	case "where":
		_, err = c.Where(ctx, *r.q.Where)
	case "when":
		_, err = c.When(ctx, *r.q.When)
	case "range":
		var res client.RangeResult
		res, err = c.Range(ctx, *r.q.Range)
		if err == nil && res.Degraded {
			return 1, nil
		}
	case "batch":
		var rs []client.BatchResult
		rs, err = c.Batch(ctx, client.BatchRequest{Queries: r.batch})
		for _, br := range rs {
			if br.Error != "" || br.Degraded {
				failed++
			}
		}
	default:
		err = fmt.Errorf("unknown request kind %q", r.kind())
	}
	if err != nil {
		return r.queries(), err
	}
	return failed, nil
}

// newClient builds the load client: no retries, so a refused request
// (429/503/504) counts as failed instead of turning into latency, and at
// most two connections to the target.
func newClient(url string, tr *tracer, retries *atomic.Int64) *client.Client {
	var rt http.RoundTripper = &http.Transport{
		DialContext:         (&net.Dialer{Timeout: 5 * time.Second, KeepAlive: 30 * time.Second}).DialContext,
		MaxIdleConns:        2,
		MaxIdleConnsPerHost: 2,
		MaxConnsPerHost:     2,
		IdleConnTimeout:     90 * time.Second,
	}
	if tr != nil {
		rt = &transport{t: tr, base: rt}
	}
	return client.New(url, client.Options{
		HTTPClient:    &http.Client{Transport: rt, Timeout: 30 * time.Second},
		RetryAttempts: 1,
		OnRetry:       func(int, error, time.Duration) { retries.Add(1) },
	})
}

// loadResult aggregates one closed-loop window.
type loadResult struct {
	byKind   map[string]lat
	all      lat
	queries  int64 // queries completed without error
	failed   int64 // queries failed or refused
	requests int64
	elapsed  time.Duration
	// sent holds the requests of a traced window, per client in order,
	// for replaying the same sequence directly against the stores.
	sent     [][]request
	firstErr error
}

func (l *loadResult) qps() float64 { return float64(l.queries) / l.elapsed.Seconds() }

// maxSent bounds the requests a traced window keeps for replay per client.
const maxSent = 1 << 15

// closedLoop runs clients workers for dur, each sending its next request
// (next(w)) only after the previous one completed.
func closedLoop(ctx context.Context, c *client.Client, tr *tracer, clients int, dur time.Duration, next func(w int) request) *loadResult {
	res := &loadResult{byKind: map[string]lat{}, sent: make([][]request, clients)}
	keep := tr != nil && tr.on.Load()
	var mu sync.Mutex
	var wg sync.WaitGroup
	deadline := time.Now().Add(dur)
	t0 := time.Now()
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			byKind := map[string]lat{}
			var all lat
			var sent []request
			var ok, failed, reqs int64
			var firstErr error
			for time.Now().Before(deadline) && ctx.Err() == nil {
				r := next(w)
				if keep && len(sent) < maxSent {
					sent = append(sent, r)
				}
				cctx, done := tr.begin(ctx, "client."+r.kind())
				s := time.Now()
				nf, err := fire(cctx, c, r)
				d := time.Since(s)
				done()
				reqs++
				failed += int64(nf)
				ok += int64(r.queries() - nf)
				if err != nil {
					if firstErr == nil {
						firstErr = err
					}
					continue
				}
				byKind[r.kind()] = append(byKind[r.kind()], d)
				all = append(all, d)
			}
			mu.Lock()
			defer mu.Unlock()
			for k, v := range byKind {
				res.byKind[k] = append(res.byKind[k], v...)
			}
			res.all = append(res.all, all...)
			res.queries += ok
			res.failed += failed
			res.requests += reqs
			res.sent[w] = sent
			if res.firstErr == nil {
				res.firstErr = firstErr
			}
		}(w)
	}
	wg.Wait()
	res.elapsed = time.Since(t0)
	for k, v := range res.byKind {
		res.byKind[k] = v.sorted()
	}
	res.all = res.all.sorted()
	return res
}

// poolWalker hands out pool requests: client w walks the pool from offset
// w*len(pool)/clients, wrapping, so the sequence is a pure function of the
// pool and carries on across windows.
func poolWalker(pool []request, clients int) func(w int) request {
	pos := make([]int, clients) // pos[w] is touched only by client w
	for w := range pos {
		pos[w] = w * len(pool) / clients
	}
	return func(w int) request {
		r := pool[pos[w]%len(pool)]
		pos[w]++
		return r
	}
}

// subWindow is the length of one measured sub-window.  A window is cut
// into sub-windows and each rate or percentile is reported as the median
// over them, so a burst of interference from outside the process moves
// one sub-window, not the figure.
const subWindow = time.Second

// windows runs the closed loop for total, as consecutive sub-windows.
func windows(ctx context.Context, c *client.Client, tr *tracer, clients int, total time.Duration, next func(w int) request) []*loadResult {
	k := max(1, int(total/subWindow))
	out := make([]*loadResult, k)
	for i := range out {
		out[i] = closedLoop(ctx, c, tr, clients, total/time.Duration(k), next)
	}
	return out
}

// merge pools sub-window results into one.
func merge(ws []*loadResult) *loadResult {
	m := &loadResult{byKind: map[string]lat{}}
	for _, w := range ws {
		for k, v := range w.byKind {
			m.byKind[k] = append(m.byKind[k], v...)
		}
		m.all = append(m.all, w.all...)
		m.queries += w.queries
		m.failed += w.failed
		m.requests += w.requests
		m.elapsed += w.elapsed
		m.sent = append(m.sent, w.sent...)
		if m.firstErr == nil {
			m.firstErr = w.firstErr
		}
	}
	for k, v := range m.byKind {
		m.byKind[k] = v.sorted()
	}
	m.all = m.all.sorted()
	return m
}

// medianOver returns the median of f over the sub-windows.
func medianOver(ws []*loadResult, f func(*loadResult) float64) float64 {
	xs := make([]float64, len(ws))
	for i, w := range ws {
		xs[i] = f(w)
	}
	return median(xs)
}

// sampler tracks the peak resident set and mapped bytes during a window.
type sampler struct {
	peakRSS, peakMapped atomic.Int64
	stop                chan struct{}
	done                chan struct{}
}

func startSampler() *sampler {
	s := &sampler{stop: make(chan struct{}), done: make(chan struct{})}
	s.observe()
	go func() {
		defer close(s.done)
		tick := time.NewTicker(50 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-s.stop:
				s.observe()
				return
			case <-tick.C:
				s.observe()
			}
		}
	}()
	return s
}

func (s *sampler) observe() {
	if v := rssBytes(); v > s.peakRSS.Load() {
		s.peakRSS.Store(v)
	}
	if v := mmapio.MappedBytes(); v > s.peakMapped.Load() {
		s.peakMapped.Store(v)
	}
}

// finish stops sampling and waits for the sampler to exit.
func (s *sampler) finish() {
	close(s.stop)
	<-s.done
}
