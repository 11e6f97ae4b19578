package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"

	"utcq/pkg/client"
)

// TestCallerCancelDoesNotQuarantine: a client that hangs up on a routed
// where-query cancels the router's member call, but the member did
// nothing wrong — it must stay "ok" in /healthz and keep answering, not
// be fenced off behind node_quarantined.
func TestCallerCancelDoesNotQuarantine(t *testing.T) {
	entered := make(chan struct{})
	var blocked atomic.Bool
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/stats", func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(client.StatsResponse{
			Trajectories: 3,
			DataBounds:   client.Rect{MinX: 1, MinY: 1, MaxX: 0, MaxY: 0},
		})
	})
	mux.HandleFunc("POST /v1/where", func(w http.ResponseWriter, r *http.Request) {
		// The first call blocks until the router abandons it (the body
		// is drained first so the server notices the hang-up).
		io.Copy(io.Discard, r.Body)
		if blocked.CompareAndSwap(false, true) {
			close(entered)
			<-r.Context().Done()
			return
		}
		json.NewEncoder(w).Encode(map[string]any{"results": []client.WhereResult{{Inst: 0, P: 1}}})
	})
	member := httptest.NewServer(mux)
	defer member.Close()

	rt := NewRouter([]Member{{Name: "n0", URL: member.URL}}, RouterOptions{})
	if err := rt.Sync(context.Background()); err != nil {
		t.Fatal(err)
	}
	// Signal when the router has finished with each routed where.
	served := make(chan struct{}, 2)
	rts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rt.Handler().ServeHTTP(w, r)
		if r.URL.Path == "/v1/where" {
			served <- struct{}{}
		}
	}))
	defer rts.Close()
	c := client.New(rts.URL, client.Options{RetryAttempts: 1})

	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, err := c.Where(ctx, client.WhereRequest{Traj: 0, T: 1})
		errc <- err
	}()
	<-entered
	cancel()
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled where: got %v, want context.Canceled", err)
	}
	<-served

	h, err := c.Health(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || len(h.Nodes) != 1 || h.Nodes[0].Status != "ok" {
		t.Fatalf("after a caller's cancellation the member must stay ok: %+v", h)
	}
	rs, err := c.Where(context.Background(), client.WhereRequest{Traj: 0, T: 1})
	if err != nil {
		t.Fatalf("next where after a caller's cancellation: %v", err)
	}
	if len(rs) != 1 {
		t.Fatalf("next where: %+v", rs)
	}
}
