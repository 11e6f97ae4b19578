package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"utcq/internal/faultfs"
	"utcq/internal/gen"
	"utcq/internal/ingest"
	"utcq/internal/mapmatch"
	"utcq/internal/stiu"
	"utcq/internal/store"
	"utcq/internal/traj"
	"utcq/pkg/client"
)

// postRaw round-trips a JSON body against a test server and returns the
// response with its body decoded into out (which may be nil).
func postRaw(t *testing.T, ts *httptest.Server, path string, body any, out any) *http.Response {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatal(err)
		}
	}
	return resp
}

func getJSON(t *testing.T, ts *httptest.Server, path string, out any) {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", path, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatal(err)
	}
}

// TestShardQuarantineServesDegraded breaks every shard archive on disk
// and asserts the contract from the issue: point queries answer 503 (not
// a 500 per request retrying the broken open), scatter queries keep
// answering with a degraded flag, and /healthz + /v1/stats surface the
// quarantine.
func TestShardQuarantineServesDegraded(t *testing.T) {
	p := gen.CD()
	p.Network.Cols, p.Network.Rows = 24, 24
	ds, err := gen.Build(p, 20, 7)
	if err != nil {
		t.Fatal(err)
	}
	sopts := store.DefaultOptions(p.Ts)
	sopts.NumShards = 2
	sopts.Index = stiu.Options{GridNX: 16, GridNY: 16, IntervalDur: 1800}
	built, err := store.Build(ds.Graph, ds.Trajectories, sopts)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := built.Save(dir); err != nil {
		t.Fatal(err)
	}
	// Corrupt the world: every shard archive disappears (FORMAT.md §2
	// names them shard-NNNN.utcq).  The manifest is intact, so the store
	// opens lazily and only discovers the damage when a query touches a
	// shard.
	archives, err := filepath.Glob(filepath.Join(dir, "shard-*.utcq"))
	if err != nil || len(archives) == 0 {
		t.Fatalf("no shard archives found: %v, %v", archives, err)
	}
	for _, a := range archives {
		if err := os.Remove(a); err != nil {
			t.Fatal(err)
		}
	}
	st, err := store.Open(dir, ds.Graph, store.OpenOptions{})
	if err != nil {
		t.Fatalf("lazy open should not touch shards: %v", err)
	}
	srv := New(st, Options{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	whereReq := WhereRequest{Traj: 0, T: ds.Trajectories[0].T[0], Alpha: 0.3}
	// The query that discovers the failure reports it as a server error…
	if resp := postRaw(t, ts, "/v1/where", whereReq, nil); resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("first query on a broken shard: status %d, want 500", resp.StatusCode)
	}
	// …and quarantines the shard: retries fail fast with 503 and a
	// Retry-After instead of re-attempting the open on every request.
	resp := postRaw(t, ts, "/v1/where", whereReq, nil)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("quarantined shard: status %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("503 should carry Retry-After")
	}

	// Range keeps answering, flagged degraded, even though every shard
	// holding data is now quarantined or freshly failing.
	b := built.Bounds()
	var rangeResp struct {
		Trajs         []int `json:"trajs"`
		Degraded      bool  `json:"degraded"`
		ShardsSkipped int   `json:"shardsSkipped"`
	}
	rr := RangeRequest{Rect: RectJSON{MinX: b.MinX, MinY: b.MinY, MaxX: b.MaxX, MaxY: b.MaxY}, T: ds.Trajectories[0].T[0], Alpha: 0.3}
	if resp := postRaw(t, ts, "/v1/range", rr, &rangeResp); resp.StatusCode != http.StatusOK {
		t.Fatalf("degraded range: status %d, want 200", resp.StatusCode)
	}
	if !rangeResp.Degraded || rangeResp.ShardsSkipped == 0 {
		t.Fatalf("range should be flagged degraded with skipped shards, got %+v", rangeResp)
	}
	if len(rangeResp.Trajs) != 0 {
		t.Fatalf("every shard is broken; degraded result should be empty, got %v", rangeResp.Trajs)
	}

	var health struct {
		Status            string `json:"status"`
		QuarantinedShards int    `json:"quarantinedShards"`
	}
	getJSON(t, ts, "/healthz", &health)
	if health.Status != "degraded" || health.QuarantinedShards == 0 {
		t.Fatalf("healthz should report the quarantine: %+v", health)
	}
	var stats StatsResponse
	getJSON(t, ts, "/v1/stats", &stats)
	if stats.QuarantinedShards == 0 || stats.ShardOpenFailures == 0 {
		t.Fatalf("stats should count quarantined shards and open failures: %+v", stats)
	}
	if stats.DegradedQueries == 0 {
		t.Fatalf("stats should count degraded range answers: %+v", stats)
	}
}

// degradeIngestFixture is an ingest-enabled server with a tight admission
// limit and a fault injector wrapped around the WAL's filesystem, so the
// tests below can fill the queue and break the log deterministically.
func degradeIngestFixture(t *testing.T, opts Options) (*httptest.Server, *faultfs.Injector, []RawTrajectoryJSON) {
	t.Helper()
	p := gen.CD()
	p.Network.Cols, p.Network.Rows = 24, 24
	g, eix, raws, err := gen.Raws(p, 12, 17)
	if err != nil {
		t.Fatal(err)
	}
	sopts := store.DefaultOptions(p.Ts)
	sopts.NumShards = 2
	sopts.Index = stiu.Options{GridNX: 16, GridNY: 16, IntervalDur: 1800}
	mem := faultfs.NewMemFS()
	sopts.FS = mem
	m := mapmatch.New(g, eix, p.Match)
	var base []*traj.Uncertain
	for _, raw := range raws[:6] {
		if u, err := m.Match(raw); err == nil {
			base = append(base, u)
		}
	}
	st, err := store.Build(g, base, sopts)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Save("store"); err != nil {
		t.Fatal(err)
	}
	inj := faultfs.NewInjector(mem)
	// The ingester is never Start()ed: nothing drains the queue, so
	// acknowledged records stay pending and the admission limit is
	// reachable with a couple of submissions.
	ing, err := ingest.New(st, eix, "store/ingest.wal", ingest.Options{
		FS:           inj,
		Match:        p.Match,
		Parallelism:  1,
		CompactEvery: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ing.Close() })
	opts.Ingester = ing
	srv := New(st, opts)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return ts, inj, toJSON(raws[6:])
}

// TestIngestAdmissionBoundedQueue pins the 429 path: with the admission
// limit reached, further ingestion is shed with Retry-After and counted,
// and nothing new is acknowledged into the WAL.
func TestIngestAdmissionBoundedQueue(t *testing.T) {
	ts, _, raws := degradeIngestFixture(t, Options{MaxPending: 1})

	var ok IngestResponse
	if resp := postRaw(t, ts, "/v1/ingest", IngestRequest{Trajectories: raws[:1]}, &ok); resp.StatusCode != http.StatusOK {
		t.Fatalf("first ingest under the limit: status %d, want 200", resp.StatusCode)
	}
	// The queue now holds >= MaxPending acknowledged records and nothing
	// drains them: the next request must be shed, not acknowledged.
	resp := postRaw(t, ts, "/v1/ingest", IngestRequest{Trajectories: raws[1:2]}, nil)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-limit ingest: status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 should carry Retry-After")
	}
	var stats StatsResponse
	getJSON(t, ts, "/v1/stats", &stats)
	if stats.Rejected != 1 {
		t.Fatalf("rejected counter = %d, want 1", stats.Rejected)
	}
	if stats.Ingest == nil || stats.Ingest.Acked != 1 || stats.Ingest.PendingLimit != 1 {
		t.Fatalf("ingest stats after shedding: %+v", stats.Ingest)
	}
}

// TestWALFaultTripsReadOnlyOverHTTP drives the read-only latch end to
// end: an injected WAL sync failure turns later ingestion into 503s with
// Retry-After while queries keep answering, and /healthz + /v1/stats report
// the degraded write path.
func TestWALFaultTripsReadOnlyOverHTTP(t *testing.T) {
	ts, inj, raws := degradeIngestFixture(t, Options{})

	var ok IngestResponse
	if resp := postRaw(t, ts, "/v1/ingest", IngestRequest{Trajectories: raws[:1]}, &ok); resp.StatusCode != http.StatusOK {
		t.Fatalf("healthy ingest: status %d, want 200", resp.StatusCode)
	}

	// Fail the next WAL fsync: that submission is a server error (it was
	// not acknowledged) and the write path latches read-only.  FailAt
	// resets the op counter, so the next append is write(0), sync(1).
	inj.FailAt(1, faultfs.EIO)
	if resp := postRaw(t, ts, "/v1/ingest", IngestRequest{Trajectories: raws[1:2]}, nil); resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("ingest over a failed sync: status %d, want 500", resp.StatusCode)
	}
	inj.Disarm()

	resp := postRaw(t, ts, "/v1/ingest", IngestRequest{Trajectories: raws[2:3]}, nil)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("read-only ingest: status %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("read-only 503 should carry Retry-After")
	}

	var health struct {
		Status   string `json:"status"`
		ReadOnly bool   `json:"readOnly"`
	}
	getJSON(t, ts, "/healthz", &health)
	if health.Status != "degraded" || !health.ReadOnly {
		t.Fatalf("healthz should report read-only mode: %+v", health)
	}
	var stats StatsResponse
	getJSON(t, ts, "/v1/stats", &stats)
	if stats.Ingest == nil || !stats.Ingest.ReadOnly {
		t.Fatalf("stats should report read-only mode: %+v", stats.Ingest)
	}

	// Reads survive the broken write path.
	var whereResp struct {
		Results []WhereResultJSON `json:"results"`
	}
	if resp := postRaw(t, ts, "/v1/where", WhereRequest{Traj: 0, T: stats.TimeMin, Alpha: 0.0}, &whereResp); resp.StatusCode != http.StatusOK {
		t.Fatalf("query while read-only: status %d, want 200", resp.StatusCode)
	}
}

// blockFS is the real filesystem, except that the first read of a shard
// archive parks until release is closed: a shard stuck in slow I/O.
type blockFS struct {
	faultfs.FS
	once    sync.Once
	entered chan struct{}
	release chan struct{}
}

func (b *blockFS) ReadFile(name string) ([]byte, error) {
	if strings.HasSuffix(name, ".utcq") {
		b.once.Do(func() {
			close(b.entered)
			<-b.release
		})
	}
	return b.FS.ReadFile(name)
}

// TestQueryTimeoutStopsEvaluation pins deadlines by context: a range
// query whose first shard read outlasts QueryTimeout answers 504
// timeout and counts one timeout, and — because the deadline is checked
// before each shard — no other shard is opened or evaluated once the
// read returns.  A fast query is unaffected, and a negative
// QueryTimeout disables the budget.
func TestQueryTimeoutStopsEvaluation(t *testing.T) {
	p := gen.CD()
	p.Network.Cols, p.Network.Rows = 24, 24
	ds, err := gen.Build(p, 20, 7)
	if err != nil {
		t.Fatal(err)
	}
	sopts := store.DefaultOptions(p.Ts)
	sopts.NumShards = 3
	sopts.Index = stiu.Options{GridNX: 16, GridNY: 16, IntervalDur: 1800}
	built, err := store.Build(ds.Graph, ds.Trajectories, sopts)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := built.Save(dir); err != nil {
		t.Fatal(err)
	}
	b := built.Bounds()
	rr := RangeRequest{Rect: RectJSON{MinX: b.MinX, MinY: b.MinY, MaxX: b.MaxX, MaxY: b.MaxY}, T: ds.Trajectories[0].T[0]}

	// serve opens the saved store lazily behind a fresh blockFS; with
	// Parallelism 1 the range scatter visits the shards one at a time.
	serve := func(timeout time.Duration) (*store.Store, *blockFS, *httptest.Server) {
		fs := &blockFS{FS: faultfs.OS, entered: make(chan struct{}), release: make(chan struct{})}
		st, err := store.Open(dir, ds.Graph, store.OpenOptions{FS: fs, Parallelism: 1})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(New(st, Options{QueryTimeout: timeout}).Handler())
		t.Cleanup(ts.Close)
		return st, fs, ts
	}
	// stuckRange posts the range query, holds the first shard read well
	// past a 20ms budget, then releases it and returns the response.
	stuckRange := func(ts *httptest.Server, fs *blockFS, out any) int {
		body, _ := json.Marshal(rr)
		type result struct {
			resp *http.Response
			err  error
		}
		done := make(chan result, 1)
		go func() {
			resp, err := http.Post(ts.URL+"/v1/range", "application/json", bytes.NewReader(body))
			done <- result{resp, err}
		}()
		<-fs.entered
		time.Sleep(100 * time.Millisecond)
		close(fs.release)
		r := <-done
		if r.err != nil {
			t.Fatal(r.err)
		}
		defer r.resp.Body.Close()
		if err := json.NewDecoder(r.resp.Body).Decode(out); err != nil {
			t.Fatal(err)
		}
		return r.resp.StatusCode
	}

	st, fs, ts := serve(20 * time.Millisecond)
	var env ErrorResponse
	if status := stuckRange(ts, fs, &env); status != http.StatusGatewayTimeout || env.Code != client.CodeTimeout {
		t.Fatalf("range past its deadline: status %d code %q, want 504 %s", status, env.Code, client.CodeTimeout)
	}
	// An evaluation left running past its 504 would open the remaining
	// shards within this window.
	time.Sleep(50 * time.Millisecond)
	if n := st.OpenShards(); n != 1 {
		t.Fatalf("%d shards open after the timed-out range, want 1: evaluation went on past the deadline", n)
	}
	var stats StatsResponse
	getJSON(t, ts, "/v1/stats", &stats)
	if stats.Timeouts != 1 {
		t.Fatalf("timeout counter = %d, want 1", stats.Timeouts)
	}

	// A fast query on the shard already open answers within the budget.
	j := 0
	for st.ShardOf(j) != 0 {
		j++
	}
	T := ds.Trajectories[j].T
	var where struct {
		Results []WhereResultJSON `json:"results"`
	}
	if resp := postRaw(t, ts, "/v1/where", WhereRequest{Traj: j, T: (T[0] + T[len(T)-1]) / 2}, &where); resp.StatusCode != http.StatusOK {
		t.Fatalf("fast query: status %d, want 200", resp.StatusCode)
	}
	if n := st.OpenShards(); n != 1 {
		t.Fatalf("fast query on the open shard opened another: %d open", n)
	}

	// A disabled budget waits out the slow read and evaluates every shard.
	st, fs, ts = serve(-1)
	var res RangeResult
	if status := stuckRange(ts, fs, &res); status != http.StatusOK {
		t.Fatalf("range without a budget: status %d, want 200", status)
	}
	if n := st.OpenShards(); n != 3 {
		t.Fatalf("range without a budget opened %d of 3 shards", n)
	}
}

// TestCompactQuarantineIs503: compaction faults delta shards in, so a
// quarantined delta shard must answer like every other quarantine — 503
// shard_quarantined with Retry-After, the status the v1 code table
// gives that code — not a 500 carrying a 503's code.
func TestCompactQuarantineIs503(t *testing.T) {
	p := gen.CD()
	p.Network.Cols, p.Network.Rows = 24, 24
	ds, err := gen.Build(p, 24, 7)
	if err != nil {
		t.Fatal(err)
	}
	sopts := store.DefaultOptions(p.Ts)
	sopts.NumShards = 2
	sopts.Index = stiu.Options{GridNX: 16, GridNY: 16, IntervalDur: 1800}
	built, err := store.Build(ds.Graph, ds.Trajectories[:20], sopts)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := built.Save(dir); err != nil {
		t.Fatal(err)
	}
	if _, err := built.ApplyDelta(ds.Trajectories[20:], 0); err != nil {
		t.Fatal(err)
	}
	st, err := store.Open(dir, ds.Graph, store.OpenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// The delta shard's file vanishes before its lazy open.
	if err := os.Remove(filepath.Join(dir, fmt.Sprintf("shard-%04d.utcq", st.ShardOf(20)))); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(st, Options{}).Handler())
	defer ts.Close()

	for attempt := 1; ; attempt++ {
		var env ErrorResponse
		resp := postRaw(t, ts, "/v1/compact", struct{}{}, &env)
		if env.Code != client.CodeShardQuarantined {
			if attempt == 3 {
				t.Fatalf("compaction over a missing delta shard never reported the quarantine: status %d, %+v", resp.StatusCode, env)
			}
			continue
		}
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("quarantined delta shard: compact status %d, want 503", resp.StatusCode)
		}
		if resp.Header.Get("Retry-After") == "" {
			t.Fatal("503 should carry Retry-After")
		}
		return
	}
}
