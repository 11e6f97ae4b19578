package main

import (
	"bufio"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// spanHeader carries the id of the span that caused a request from the
// harness's client side to its handler wrapper.  The program ignores it.
const spanHeader = "X-Perfbench-Span"

// span is one timed call into a layer.  Spans of one request share Req
// (the id of its root client span); Parent is the span that caused it.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Req    uint64 `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start"` // ns since the tracer started
	End    int64  `json:"end"`
	Bytes  int64  `json:"bytes,omitempty"` // response bytes (handler spans)
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory while enabled.  When disabled every hook is
// one atomic load, so the same wiring serves the untraced comparison phase
// of a traced run.
type tracer struct {
	on    atomic.Bool
	next  atomic.Uint64
	epoch time.Time

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// take returns the spans recorded so far and clears the buffer.
func (t *tracer) take() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := t.spans
	t.spans = nil
	return out
}

type spanKey struct{}

type spanRef struct{ id, req uint64 }

func withSpan(ctx context.Context, ref spanRef) context.Context {
	return context.WithValue(ctx, spanKey{}, ref)
}

func spanFrom(ctx context.Context) (spanRef, bool) {
	ref, ok := ctx.Value(spanKey{}).(spanRef)
	return ref, ok
}

// begin opens a client-side span for one harness call into pkg/client;
// finish closes it.  With tracing off both are no-ops.
func (t *tracer) begin(ctx context.Context, name string) (context.Context, func()) {
	if t == nil || !t.on.Load() {
		return ctx, func() {}
	}
	id := t.next.Add(1)
	ref := spanRef{id: id, req: id}
	start := t.now()
	return withSpan(ctx, ref), func() {
		t.add(span{ID: id, Req: id, Name: name, Start: start, End: t.now()})
	}
}

// transport propagates the context's span to the handler wrapper through
// spanHeader.  With record set it also records the outbound call itself
// (from RoundTrip to the response body's Close) as a child span: the
// router's calls to its members.
type transport struct {
	t      *tracer
	base   http.RoundTripper
	record string
}

func (tp *transport) RoundTrip(req *http.Request) (*http.Response, error) {
	if !tp.t.on.Load() {
		return tp.base.RoundTrip(req)
	}
	parent, ok := spanFrom(req.Context())
	if !ok {
		return tp.base.RoundTrip(req)
	}
	req = req.Clone(req.Context())
	ref := parent
	var s span
	if tp.record != "" {
		ref = spanRef{id: tp.t.next.Add(1), req: parent.req}
		s = span{ID: ref.id, Parent: parent.id, Req: parent.req, Name: tp.record, Start: tp.t.now()}
	}
	req.Header.Set(spanHeader, strconv.FormatUint(ref.id, 10)+"/"+strconv.FormatUint(ref.req, 10))
	resp, err := tp.base.RoundTrip(req)
	if tp.record != "" {
		if err != nil {
			s.End = tp.t.now()
			tp.t.add(s)
		} else {
			resp.Body = &spanBody{ReadCloser: resp.Body, done: func() { s.End = tp.t.now(); tp.t.add(s) }}
		}
	}
	return resp, err
}

type spanBody struct {
	io.ReadCloser
	once sync.Once
	done func()
}

func (b *spanBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(b.done)
	return err
}

// wrap records one span per request served by h, named layer + "." + the
// endpoint, parented to the span in spanHeader, and exposes its own span
// to h through the request context (so the router's outbound calls name
// it as their parent).
func (t *tracer) wrap(layer string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !t.on.Load() {
			h.ServeHTTP(w, r)
			return
		}
		var parent, req uint64
		if v := r.Header.Get(spanHeader); v != "" {
			p, q, _ := strings.Cut(v, "/")
			parent, _ = strconv.ParseUint(p, 10, 64)
			req, _ = strconv.ParseUint(q, 10, 64)
		}
		id := t.next.Add(1)
		if req == 0 {
			req = id
		}
		cw := &countingWriter{ResponseWriter: w}
		start := t.now()
		h.ServeHTTP(cw, r.WithContext(withSpan(r.Context(), spanRef{id: id, req: req})))
		t.add(span{ID: id, Parent: parent, Req: req, Name: layer + "." + endpointName(r.URL.Path),
			Start: start, End: t.now(), Bytes: cw.n})
	})
}

func endpointName(path string) string {
	if i := strings.LastIndexByte(path, '/'); i >= 0 {
		return path[i+1:]
	}
	return path
}

type countingWriter struct {
	http.ResponseWriter
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.ResponseWriter.Write(p)
	c.n += int64(n)
	return n, err
}

// selfTimes returns, for every span that match selects, its duration minus
// the part of its interval covered by the spans childOf relates to it.
func selfTimes(spans []span, match func(span) bool, childOf func(s span, byID map[uint64]span) uint64) lat {
	byID := make(map[uint64]span, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
	}
	kids := map[uint64][]span{}
	for _, s := range spans {
		if p := childOf(s, byID); p != 0 {
			kids[p] = append(kids[p], s)
		}
	}
	var out lat
	for _, s := range spans {
		if !match(s) {
			continue
		}
		out = append(out, s.dur()-covered(s, kids[s.ID]))
	}
	return out.sorted()
}

// covered returns how much of s's interval the union of cs covers.
func covered(s span, cs []span) time.Duration {
	if len(cs) == 0 {
		return 0
	}
	sort.Slice(cs, func(i, j int) bool { return cs[i].Start < cs[j].Start })
	var total, curS, curE int64
	curS, curE = -1, -1
	for _, c := range cs {
		a, b := max(c.Start, s.Start), min(c.End, s.End)
		if b <= a {
			continue
		}
		if a > curE {
			if curE > curS {
				total += curE - curS
			}
			curS, curE = a, b
		} else if b > curE {
			curE = b
		}
	}
	if curE > curS {
		total += curE - curS
	}
	return time.Duration(total)
}

// grandparentIs is the child relation "child of a child": a member handler
// span under the router's outbound call under the router span.
func grandparentIs(s span, byID map[uint64]span) uint64 {
	if p, ok := byID[s.Parent]; ok {
		return p.Parent
	}
	return 0
}

func durations(spans []span, match func(span) bool) lat {
	var out lat
	for _, s := range spans {
		if match(s) {
			out = append(out, s.dur())
		}
	}
	return out.sorted()
}

// writeSpans writes spans as JSON lines.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
