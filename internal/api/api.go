// Package api is the HTTP front end of the v1 API, shared by the
// store-backed node (internal/server, utcqd) and the cluster router
// (internal/cluster, utcqr).  It owns everything HTTP: the route table,
// the bounded JSON decode, the reply writer, the v1 error envelope and
// its one error classifier, ?gen=N parsing, the /v1/batch fan-out,
// per-request query deadlines, the requests/failures/timeouts counters
// and the http.Server.  What a query means is the Backend's business:
// the front end serves the paper's where (Definition 10), when
// (Definition 11) and range (Definition 12) queries from whichever
// Backend it wraps, with the same outside behaviour.
package api

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"utcq/internal/par"
	"utcq/pkg/client"
)

// Reader answers the three probabilistic queries against one view of the
// data.  Implementations stop at the evaluation steps they can stop at
// once ctx is done and return its error, which answers 504 timeout.
type Reader interface {
	Where(ctx context.Context, req client.WhereRequest) ([]client.WhereResult, error)
	When(ctx context.Context, req client.WhenRequest) ([]client.WhenResult, error)
	Range(ctx context.Context, req client.RangeRequest) (client.RangeResult, error)
}

// Backend is the data behind the front end.
type Backend interface {
	// View resolves the Reader one query request reads: the current
	// data, or with pinned the retained generation gen (?gen=N).  Every
	// query of a batch reads the one view.
	View(gen uint64, pinned bool) (Reader, error)
	// Ingest acknowledges raw trajectories.  A response with FlushError
	// set is answered 202: acknowledged, but the synchronous flush failed.
	Ingest(ctx context.Context, req client.IngestRequest) (client.IngestResponse, error)
	Compact(ctx context.Context) (client.CompactResponse, error)
	Health(ctx context.Context) client.Health
	// Stats reports the backend's counters; the front end fills in its
	// own requests, failures, timeouts and uptime.
	Stats(ctx context.Context) client.StatsResponse
}

const (
	// Defaults of Options.
	defaultMaxBatch     = 256
	defaultQueryTimeout = 30 * time.Second
	// readTimeout and writeTimeout guard the server against slow
	// clients.  Endpoints that legitimately run long (ingest, compact,
	// watch and replication long-polls) lift the write deadline.
	readTimeout  = 10 * time.Second
	writeTimeout = 30 * time.Second
	// maxBody bounds a JSON request body.
	maxBody = 4 << 20
)

// Options configure a FrontEnd.
type Options struct {
	// MaxBatch bounds the queries of one /v1/batch request (<1: 256).
	MaxBatch int
	// BatchParallelism bounds the workers evaluating one batch (<1: one
	// per CPU).
	BatchParallelism int
	// QueryTimeout is the deadline of one query request (where, when,
	// range, batch): its context expires then, evaluation stops at the
	// next check and the request answers 504 timeout (0: 30s; <0
	// disables).
	QueryTimeout time.Duration
}

// FrontEnd serves the v1 API over a Backend.
type FrontEnd struct {
	b       Backend
	opts    Options
	mux     *http.ServeMux
	handler http.Handler
	hs      *http.Server
	started time.Time

	requests atomic.Int64
	failures atomic.Int64
	timeouts atomic.Int64
}

// New builds the front end and its route table over b.  Backend-specific
// routes are added with HandleFunc before serving.
func New(b Backend, opts Options) *FrontEnd {
	if opts.MaxBatch < 1 {
		opts.MaxBatch = defaultMaxBatch
	}
	if opts.QueryTimeout == 0 {
		opts.QueryTimeout = defaultQueryTimeout
	}
	f := &FrontEnd{b: b, opts: opts, mux: http.NewServeMux(), started: time.Now()}
	f.mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		f.Reply(w, b.Health(r.Context()))
	})
	f.mux.HandleFunc("GET /v1/stats", f.handleStats)
	// Deprecated alias: /stats predates the versioned prefix.
	f.mux.HandleFunc("GET /stats", func(w http.ResponseWriter, r *http.Request) {
		http.Redirect(w, r, "/v1/stats", http.StatusMovedPermanently)
	})
	f.mux.HandleFunc("POST /v1/where", f.handleWhere)
	f.mux.HandleFunc("POST /v1/when", f.handleWhen)
	f.mux.HandleFunc("POST /v1/range", f.handleRange)
	f.mux.HandleFunc("POST /v1/batch", f.handleBatch)
	f.mux.HandleFunc("POST /v1/ingest", f.handleIngest)
	f.mux.HandleFunc("POST /v1/compact", f.handleCompact)
	// Anything unrouted — unknown path or wrong method — still answers
	// with the v1 envelope.
	f.mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		f.Fail(w, fmt.Errorf("%w: no route for %s %s", ErrNotFound, r.Method, r.URL.Path))
	})
	f.handler = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		f.requests.Add(1)
		f.mux.ServeHTTP(w, r)
	})
	// The http.Server exists from construction so Shutdown is effective
	// even if it races Serve (a Serve after Shutdown returns at once
	// instead of leaking a live listener).
	f.hs = &http.Server{Handler: f.handler, ReadTimeout: readTimeout, WriteTimeout: writeTimeout}
	return f
}

// HandleFunc registers a backend-specific route (pattern syntax of
// http.ServeMux).
func (f *FrontEnd) HandleFunc(pattern string, h http.HandlerFunc) { f.mux.HandleFunc(pattern, h) }

// Handler returns the route table; every request through it counts in
// the requests counter.
func (f *FrontEnd) Handler() http.Handler { return f.handler }

// Serve accepts connections on l until Shutdown.
func (f *FrontEnd) Serve(l net.Listener) error {
	err := f.hs.Serve(l)
	if err == http.ErrServerClosed {
		return nil
	}
	return err
}

// ListenAndServe binds addr and serves until Shutdown.
func (f *FrontEnd) ListenAndServe(addr string) error {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return f.Serve(l)
}

// Shutdown drains in-flight requests and stops the listener; pass a
// context with a deadline to bound the drain.  Safe to call before,
// during or after Serve.
func (f *FrontEnd) Shutdown(ctx context.Context) error { return f.hs.Shutdown(ctx) }

// decode parses a bounded JSON body, rejecting unknown fields so client
// typos surface as 400s instead of silently defaulted queries.
func (f *FrontEnd) decode(w http.ResponseWriter, r *http.Request, dst any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBody))
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		f.Fail(w, fmt.Errorf("%w: decode request: %v", ErrBadRequest, err))
		return false
	}
	return true
}

// view resolves the request's Reader, honouring ?gen=N.
func (f *FrontEnd) view(r *http.Request) (Reader, error) {
	q := r.URL.Query().Get("gen")
	if q == "" {
		return f.b.View(0, false)
	}
	gen, err := strconv.ParseUint(q, 10, 64)
	if err != nil {
		return nil, fmt.Errorf("%w: gen %q is not an unsigned integer", ErrBadRequest, q)
	}
	return f.b.View(gen, true)
}

// deadline derives a query request's context: the request's own,
// bounded by QueryTimeout.
func (f *FrontEnd) deadline(r *http.Request) (context.Context, context.CancelFunc) {
	if f.opts.QueryTimeout < 0 {
		return r.Context(), func() {}
	}
	return context.WithTimeout(r.Context(), f.opts.QueryTimeout)
}

// results is the {"results": [...]} payload of where, when and batch.
type results[T any] struct {
	Results []T `json:"results"`
}

func (f *FrontEnd) handleWhere(w http.ResponseWriter, r *http.Request) {
	serveQuery(f, w, r, func(ctx context.Context, rd Reader, q client.WhereRequest) (any, error) {
		rs, err := rd.Where(ctx, q)
		return results[client.WhereResult]{rs}, err
	})
}

func (f *FrontEnd) handleWhen(w http.ResponseWriter, r *http.Request) {
	serveQuery(f, w, r, func(ctx context.Context, rd Reader, q client.WhenRequest) (any, error) {
		rs, err := rd.When(ctx, q)
		return results[client.WhenResult]{rs}, err
	})
}

func (f *FrontEnd) handleRange(w http.ResponseWriter, r *http.Request) {
	serveQuery(f, w, r, func(ctx context.Context, rd Reader, q client.RangeRequest) (any, error) {
		return rd.Range(ctx, q)
	})
}

// serveQuery serves one single-query request: decode, resolve the view,
// evaluate under the deadline, reply.
func serveQuery[Q any](f *FrontEnd, w http.ResponseWriter, r *http.Request, eval func(context.Context, Reader, Q) (any, error)) {
	var req Q
	if !f.decode(w, r, &req) {
		return
	}
	rd, err := f.view(r)
	if err != nil {
		f.Fail(w, err)
		return
	}
	ctx, cancel := f.deadline(r)
	defer cancel()
	out, err := eval(ctx, rd, req)
	if err != nil {
		f.Fail(w, err)
		return
	}
	f.Reply(w, out)
}

// handleBatch evaluates the request's queries on a bounded worker pool,
// all against one view, and returns per-query results in request order.
// A failed query is reported in-band so it does not void the batch; a
// batch still running at its deadline answers 504 as a whole.
func (f *FrontEnd) handleBatch(w http.ResponseWriter, r *http.Request) {
	var req client.BatchRequest
	if !f.decode(w, r, &req) {
		return
	}
	if len(req.Queries) > f.opts.MaxBatch {
		f.Fail(w, fmt.Errorf("%w: batch of %d exceeds limit %d", ErrTooLarge, len(req.Queries), f.opts.MaxBatch))
		return
	}
	rd, err := f.view(r)
	if err != nil {
		f.Fail(w, err)
		return
	}
	ctx, cancel := f.deadline(r)
	defer cancel()
	out := make([]client.BatchResult, len(req.Queries))
	// The only error a worker returns is the expired deadline, checked
	// again below.
	_ = par.Do(par.Workers(f.opts.BatchParallelism), len(req.Queries), func(i int) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		out[i] = batchOne(ctx, rd, i, req.Queries[i])
		return nil
	})
	if err := ctx.Err(); err != nil {
		f.Fail(w, err)
		return
	}
	f.Reply(w, results[client.BatchResult]{out})
}

// batchOne evaluates query i of a batch.
func batchOne(ctx context.Context, rd Reader, i int, q client.BatchQuery) client.BatchResult {
	var res client.BatchResult
	var err error
	switch {
	case q.Kind == "where" && q.Where != nil:
		res.Where, err = rd.Where(ctx, *q.Where)
	case q.Kind == "when" && q.When != nil:
		res.When, err = rd.When(ctx, *q.When)
	case q.Kind == "range" && q.Range != nil:
		var rr client.RangeResult
		rr, err = rd.Range(ctx, *q.Range)
		res.Trajs, res.Degraded = rr.Trajs, rr.Degraded
	default:
		err = fmt.Errorf("%w: query %d: kind %q without a matching body", ErrBadRequest, i, q.Kind)
	}
	if err != nil {
		_, env := Classify(err)
		return client.BatchResult{Error: env.Error, Code: env.Code}
	}
	return res
}

// handleIngest acknowledges raw trajectories through the backend.
func (f *FrontEnd) handleIngest(w http.ResponseWriter, r *http.Request) {
	var req client.IngestRequest
	if !f.decode(w, r, &req) {
		return
	}
	// A flush map-matches and compresses the batch before replying (and
	// routed ingest always flushes): lift the write deadline so a large
	// batch is not cut off mid-mutation.
	_ = http.NewResponseController(w).SetWriteDeadline(time.Time{})
	resp, err := f.b.Ingest(r.Context(), req)
	if err != nil {
		f.Fail(w, err)
		return
	}
	if resp.FlushError != "" {
		// The batch IS durably acknowledged; only the synchronous
		// application failed and it drains later.  A 5xx would invite a
		// resubmit that duplicates the records, so answer 202 with the
		// failure in-band — and count it.
		f.failures.Add(1)
		f.reply(w, http.StatusAccepted, resp)
		return
	}
	f.Reply(w, resp)
}

// handleCompact folds delta shards; its duration scales with the delta
// population, so the write deadline is lifted like ingest's.
func (f *FrontEnd) handleCompact(w http.ResponseWriter, r *http.Request) {
	_ = http.NewResponseController(w).SetWriteDeadline(time.Time{})
	resp, err := f.b.Compact(r.Context())
	if err != nil {
		f.Fail(w, err)
		return
	}
	f.Reply(w, resp)
}

func (f *FrontEnd) handleStats(w http.ResponseWriter, r *http.Request) {
	resp := f.b.Stats(r.Context())
	resp.Requests = f.requests.Load()
	resp.Failures = f.failures.Load()
	resp.Timeouts = f.timeouts.Load()
	resp.UptimeSeconds = time.Since(f.started).Seconds()
	f.Reply(w, resp)
}

// Reply writes payload as a 200 JSON response.
func (f *FrontEnd) Reply(w http.ResponseWriter, payload any) { f.reply(w, http.StatusOK, payload) }

// reply writes a JSON payload under status.  An encode failure (the
// client went away mid-body, typically) counts as a failure: nothing
// else can be done at that point, but it must not vanish.
func (f *FrontEnd) reply(w http.ResponseWriter, status int, payload any) {
	w.Header().Set("Content-Type", "application/json")
	if status != http.StatusOK {
		w.WriteHeader(status)
	}
	if err := json.NewEncoder(w).Encode(payload); err != nil {
		f.failures.Add(1)
	}
}

// ReplyBytes writes an opaque binary body (replication streams); headers
// set before the call are kept.
func (f *FrontEnd) ReplyBytes(w http.ResponseWriter, body []byte) {
	w.Header().Set("Content-Type", "application/octet-stream")
	if _, err := w.Write(body); err != nil {
		f.failures.Add(1)
	}
}

// Fail answers err with the v1 error envelope {code, error, retryAfter?}
// under the status Classify gives it.  Transient conditions carry a
// Retry-After header (mirrored in the envelope for clients that cannot
// reach headers).  A query stopped at its deadline also counts in
// timeouts.
func (f *FrontEnd) Fail(w http.ResponseWriter, err error) {
	f.failures.Add(1)
	if errors.Is(err, context.DeadlineExceeded) {
		f.timeouts.Add(1)
	}
	status, env := Classify(err)
	w.Header().Set("Content-Type", "application/json")
	if env.RetryAfter > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(env.RetryAfter))
	}
	w.WriteHeader(status)
	if json.NewEncoder(w).Encode(env) != nil {
		f.failures.Add(1)
	}
}
