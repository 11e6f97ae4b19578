package api_test

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"utcq/internal/cluster"
	"utcq/internal/gen"
	"utcq/internal/server"
	"utcq/internal/store"
	"utcq/pkg/client"
)

// fixture serves one tiny store twice: through a node's front end, and
// through a router's front end over one member node holding the same
// store.
type fixture struct {
	ds     *gen.Dataset
	node   http.Handler
	router http.Handler
}

func newFixture(tb testing.TB) *fixture {
	tb.Helper()
	p := gen.CD()
	p.Network.Cols, p.Network.Rows = 20, 20
	ds, err := gen.Build(p, 12, 5)
	if err != nil {
		tb.Fatal(err)
	}
	sopts := store.DefaultOptions(p.Ts)
	sopts.NumShards = 2
	st, err := store.Build(ds.Graph, ds.Trajectories, sopts)
	if err != nil {
		tb.Fatal(err)
	}
	member := httptest.NewServer(server.New(st, server.Options{}).Handler())
	tb.Cleanup(member.Close)
	rt := cluster.NewRouter([]cluster.Member{{Name: "n0", URL: member.URL}}, cluster.RouterOptions{})
	if err := rt.Sync(context.Background()); err != nil {
		tb.Fatal(err)
	}
	return &fixture{ds: ds, node: server.New(st, server.Options{}).Handler(), router: rt.Handler()}
}

// codeStatus is the frozen v1 code table (docs/ARCHITECTURE.md §10.4).
var codeStatus = map[string]int{
	client.CodeBadRequest:        http.StatusBadRequest,
	client.CodeUnknownTrajectory: http.StatusBadRequest,
	client.CodeTooLarge:          http.StatusRequestEntityTooLarge,
	client.CodeBacklog:           http.StatusTooManyRequests,
	client.CodeShardQuarantined:  http.StatusServiceUnavailable,
	client.CodeNodeQuarantined:   http.StatusServiceUnavailable,
	client.CodeNodeDesynced:      http.StatusServiceUnavailable,
	client.CodeReadOnly:          http.StatusServiceUnavailable,
	client.CodeIngestDisabled:    http.StatusServiceUnavailable,
	client.CodeNotLeader:         http.StatusServiceUnavailable,
	client.CodeTimeout:           http.StatusGatewayTimeout,
	client.CodeGenRetired:        http.StatusGone,
	client.CodeGenUnknown:        http.StatusNotFound,
	client.CodeWALTruncated:      http.StatusGone,
	client.CodeNotFound:          http.StatusNotFound,
	client.CodeUnsupported:       http.StatusNotImplemented,
	client.CodeInternal:          http.StatusInternalServerError,
}

// FuzzFrontEnd sends an arbitrary method, path, query and body to a node
// and to a router.  Every response must be a success or a v1 envelope
// whose code is in the frozen table, under that code's status, with a
// Retry-After on 429/503.  The one exception is a 301 with a Location:
// the deprecated /stats alias, or net/http canonicalizing a path before
// any route sees it.
func FuzzFrontEnd(f *testing.F) {
	f.Add("POST", "/v1/where", "", []byte(`{"traj":0,"t":30000,"alpha":0.1}`))
	f.Add("POST", "/v1/where", "gen=1", []byte(`{"traj":99,"t":1}`))
	f.Add("POST", "/v1/when", "", []byte(`{"traj":1,"loc":{"edge":-3,"ndist":0.5}}`))
	f.Add("POST", "/v1/range", "gen=x", []byte(`{"rect":{"minX":0,"minY":0,"maxX":1e9,"maxY":1e9},"t":30000}`))
	f.Add("POST", "/v1/batch", "", []byte(`{"queries":[{"kind":"where","where":{"traj":0,"t":1}},{"kind":"range"}]}`))
	f.Add("POST", "/v1/ingest", "", []byte(`{"trajectories":[{"points":[{"x":0,"y":0,"t":1}]}]}`))
	f.Add("POST", "/v1/compact", "", []byte(`{}`))
	f.Add("GET", "/v1/watch/range", "minX=0&minY=0&maxX=1&maxY=1&t=1&timeout=0", []byte(nil))
	f.Add("GET", "/v1/repl/file/shard-0000.utcq", "", []byte(nil))
	f.Add("GET", "/v1/repl/wal", "from=0", []byte(nil))
	f.Add("DELETE", "/healthz", "", []byte(nil))
	f.Add("GET", "/stats", "", []byte(nil))
	f.Add("PUT", "/nowhere", "a=b", []byte(`{"alfa":1}`))
	fx := newFixture(f)
	f.Fuzz(func(t *testing.T, method, path, query string, body []byte) {
		if !strings.HasPrefix(path, "/") {
			path = "/" + path
		}
		for _, h := range []struct {
			name string
			h    http.Handler
		}{{"node", fx.node}, {"router", fx.router}} {
			// Long-polls (watch, replication) end with the context.
			ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
			req, err := http.NewRequestWithContext(ctx, method, "http://fuzz"+path+"?"+query, bytes.NewReader(body))
			if err != nil {
				cancel()
				return // not an HTTP request at all
			}
			rec := httptest.NewRecorder()
			h.h.ServeHTTP(rec, req)
			cancel()
			if rec.Code/100 == 2 || rec.Code == http.StatusMovedPermanently && rec.Header().Get("Location") != "" {
				continue
			}
			var env client.ErrorResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil {
				t.Fatalf("%s %s %s?%s: status %d without a v1 envelope: %q", h.name, method, path, query, rec.Code, rec.Body.String())
			}
			want, ok := codeStatus[env.Code]
			if !ok {
				t.Fatalf("%s %s %s?%s: code %q is not in the v1 table (status %d, %q)", h.name, method, path, query, env.Code, rec.Code, env.Error)
			}
			if rec.Code != want {
				t.Fatalf("%s %s %s?%s: code %s under status %d, the table says %d", h.name, method, path, query, env.Code, rec.Code, want)
			}
			if (rec.Code == http.StatusTooManyRequests || rec.Code == http.StatusServiceUnavailable) && rec.Header().Get("Retry-After") == "" {
				t.Fatalf("%s %s %s?%s: %d without Retry-After", h.name, method, path, query, rec.Code)
			}
		}
	})
}

// TestRequestsCountedAlike sends one request sequence to a node and to a
// router: both front ends count every request the same way, /healthz,
// /v1/stats and unrouted requests included.
func TestRequestsCountedAlike(t *testing.T) {
	fx := newFixture(t)
	T := fx.ds.Trajectories[0].T
	where := `{"traj":0,"t":` + strconv.FormatInt(T[len(T)/2], 10) + `,"alpha":0.1}`
	seq := []struct{ method, path, body string }{
		{"GET", "/healthz", ""},
		{"GET", "/v1/stats", ""},
		{"POST", "/v1/where", where},
		{"POST", "/v1/where", `{"traj":0,"alfa":1}`},
		{"POST", "/v1/range", `{"rect":{"minX":0,"minY":0,"maxX":1e9,"maxY":1e9},"t":1,"alpha":0.2}`},
		{"POST", "/v1/batch", `{"queries":[{"kind":"where","where":` + where + `},{"kind":"when"}]}`},
		{"GET", "/v1/watch/range", ""},
		{"GET", "/nowhere", ""},
	}
	var got []int64
	for _, h := range []http.Handler{fx.node, fx.router} {
		ts := httptest.NewServer(h)
		for _, s := range seq {
			req, err := http.NewRequest(s.method, ts.URL+s.path, strings.NewReader(s.body))
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
		}
		st, err := client.New(ts.URL, client.Options{}).Stats(context.Background())
		ts.Close()
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, st.Requests)
	}
	if want := int64(len(seq) + 1); got[0] != want || got[1] != want {
		t.Fatalf("requests counted: node %d, router %d; want %d each", got[0], got[1], want)
	}
}
