// Package server is the store-backed node of the UTCQ system: the
// api.Backend that serves a sharded trajectory store (internal/store)
// through the shared v1 HTTP front end (internal/api).  It answers the
// paper's three probabilistic queries — where (Definition 10), when
// (Definition 11) and range (Definition 12) — against one store snapshot
// per request, so a batch reads one generation and ?gen=N pins a
// retained one.  With an ingester attached (Options.Ingester) the node
// also accepts live traffic: POST /v1/ingest acknowledges raw
// trajectories into the WAL and POST /v1/compact folds accumulated delta
// shards into a base shard.  The node-only routes — live range
// subscriptions (watch.go) and the replication feed (repl.go) — register
// on the same front end.
//
// The node holds no per-request state beyond the decoded bodies; all
// concurrency control lives in the store and its per-shard engines, so one
// Server instance serves any number of connections.
package server

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"sync/atomic"
	"time"

	"utcq/internal/api"
	"utcq/internal/ingest"
	"utcq/internal/roadnet"
	"utcq/internal/store"
	"utcq/internal/traj"
	"utcq/pkg/client"
)

// defaultMaxPending is Options.MaxPending's default.
const defaultMaxPending = 4096

// Options configure a Server.
type Options struct {
	// MaxBatch bounds the queries accepted in one /v1/batch request
	// (default 256).
	MaxBatch int
	// BatchParallelism bounds the workers evaluating one batch
	// (<1: one per CPU).
	BatchParallelism int
	// QueryTimeout is the deadline of one query request (where / when /
	// range / batch).  Evaluation checks it before each shard and each
	// trajectory it evaluates, and a request past it answers 504, so one
	// shard stuck in slow I/O cannot pile up every client connection
	// behind it (default 30s; <0 disables).
	QueryTimeout time.Duration
	// MaxPending bounds the ingest admission queue: while at least this
	// many acknowledged records await application, /v1/ingest answers
	// 429 with a Retry-After header instead of letting the WAL and the
	// drain backlog grow without limit (default 4096; <0 disables).
	MaxPending int
	// Ingester enables live ingestion.  Nil disables data ingress:
	// /v1/ingest answers 503.  /v1/compact remains available either way
	// (compaction is maintenance over data already in the store, useful
	// after offline bulk loads).
	Ingester *ingest.Ingester
	// Follower marks this node a replication follower: its ingester
	// only accepts records shipped from the leader, so /v1/ingest
	// answers 503 not_leader — clients must write to the leader.
	Follower bool
}

// Server is the HTTP query service over one store.
type Server struct {
	fe   *api.FrontEnd
	st   *store.Store
	ing  *ingest.Ingester
	opts Options

	// Degradation counters: admission rejections (429) and range queries
	// answered without their quarantined shards.
	rejected atomic.Int64
	degraded atomic.Int64

	// Streaming counters: watch subscriptions currently connected, and
	// update payloads delivered to them (initial results + increments).
	watchers      atomic.Int64
	watchNotifies atomic.Int64
}

// New returns a server over st.  Zero-valued options select defaults.
func New(st *store.Store, opts Options) *Server {
	if opts.MaxPending == 0 {
		opts.MaxPending = defaultMaxPending
	}
	s := &Server{st: st, ing: opts.Ingester, opts: opts}
	s.fe = api.New(s, api.Options{
		MaxBatch:         opts.MaxBatch,
		BatchParallelism: opts.BatchParallelism,
		QueryTimeout:     opts.QueryTimeout,
	})
	s.fe.HandleFunc("GET /v1/watch/range", s.handleWatchRange)
	s.fe.HandleFunc("GET /v1/repl/wal", s.handleReplWAL)
	s.fe.HandleFunc("GET /v1/repl/manifest", s.handleReplManifest)
	s.fe.HandleFunc("GET /v1/repl/file/{name}", s.handleReplFile)
	return s
}

// Handler returns the route table (for tests and embedding).
func (s *Server) Handler() http.Handler { return s.fe.Handler() }

// Serve accepts connections on l until Shutdown.
func (s *Server) Serve(l net.Listener) error { return s.fe.Serve(l) }

// ListenAndServe binds addr and serves until Shutdown.
func (s *Server) ListenAndServe(addr string) error { return s.fe.ListenAndServe(addr) }

// Shutdown drains in-flight requests and stops the listener (graceful
// shutdown; pass a context with a deadline to bound the drain).  Safe to
// call before, during or after Serve.
func (s *Server) Shutdown(ctx context.Context) error { return s.fe.Shutdown(ctx) }

// Wire types.  The canonical definitions live in pkg/client — the
// repo's outward-facing typed API — and the server aliases them so the
// two sides of the wire cannot drift.  The historical *JSON names stay
// as aliases for in-tree callers and tests.
type (
	PositionJSON      = client.Position
	RectJSON          = client.Rect
	WhereRequest      = client.WhereRequest
	WhereResultJSON   = client.WhereResult
	WhenRequest       = client.WhenRequest
	WhenResultJSON    = client.WhenResult
	RangeRequest      = client.RangeRequest
	RangeResult       = client.RangeResult
	BatchQuery        = client.BatchQuery
	BatchRequest      = client.BatchRequest
	BatchResult       = client.BatchResult
	RawPointJSON      = client.RawPoint
	RawTrajectoryJSON = client.RawTrajectory
	IngestRequest     = client.IngestRequest
	IngestResponse    = client.IngestResponse
	CompactResponse   = client.CompactResponse
	IngestStatsJSON   = client.IngestStats
	StatsResponse     = client.StatsResponse
	ErrorResponse     = client.ErrorResponse
	Health            = client.Health
)

// snapshot is the node's api.Reader: one store generation, so every
// query of a request — a whole batch included — reads the same data even
// while ingestion mutates the store.
type snapshot struct {
	s  *Server
	sn store.Snapshot
}

// View resolves the snapshot a query request reads: the current
// generation, or — pinned — the retained generation gen, so a client can
// re-read exactly what an earlier response (or watch update) was
// computed from.
func (s *Server) View(gen uint64, pinned bool) (api.Reader, error) {
	if !pinned {
		return snapshot{s, s.st.Snapshot()}, nil
	}
	sn, err := s.st.SnapshotAt(gen)
	if err != nil {
		return nil, err
	}
	return snapshot{s, sn}, nil
}

func (v snapshot) Where(ctx context.Context, req client.WhereRequest) ([]client.WhereResult, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	rs, err := v.sn.Where(req.Traj, req.T, req.Alpha)
	if err != nil {
		return nil, err
	}
	g := v.s.st.Graph()
	out := make([]client.WhereResult, len(rs))
	for i, r := range rs {
		x, y := g.Coords(r.Loc)
		out[i] = client.WhereResult{
			Inst: r.Inst, P: r.P,
			Edge: int(r.Loc.Edge), NDist: r.Loc.NDist,
			X: x, Y: y,
		}
	}
	return out, nil
}

func (v snapshot) When(ctx context.Context, req client.WhenRequest) ([]client.WhenResult, error) {
	if n := v.s.st.Graph().NumEdges(); req.Loc.Edge < 0 || req.Loc.Edge >= n {
		return nil, fmt.Errorf("%w: edge %d outside [0, %d)", api.ErrBadRequest, req.Loc.Edge, n)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	loc := roadnet.Position{Edge: roadnet.EdgeID(req.Loc.Edge), NDist: req.Loc.NDist}
	rs, err := v.sn.When(req.Traj, loc, req.Alpha)
	if err != nil {
		return nil, err
	}
	out := make([]client.WhenResult, len(rs))
	for i, r := range rs {
		out[i] = client.WhenResult{Inst: r.Inst, P: r.P, T: r.T}
	}
	return out, nil
}

// Range evaluates a range query over every healthy shard.  Live shards
// that could not be consulted because they are quarantined after open
// failures make the result a lower bound, flagged degraded rather than
// failed (a scatter query losing one shard still has value; a 500 would
// have none).
func (v snapshot) Range(ctx context.Context, req client.RangeRequest) (client.RangeResult, error) {
	re := roadnet.Rect{MinX: req.Rect.MinX, MinY: req.Rect.MinY, MaxX: req.Rect.MaxX, MaxY: req.Rect.MaxY}
	trajs, skipped, err := v.sn.RangeDegraded(ctx, re, req.T, req.Alpha)
	if err != nil {
		return client.RangeResult{}, err
	}
	if skipped > 0 {
		v.s.degraded.Add(1)
	}
	if trajs == nil {
		trajs = []int{}
	}
	return client.RangeResult{Trajs: trajs, Degraded: skipped > 0, ShardsSkipped: skipped}, nil
}

// Ingest acknowledges raw trajectories.  The whole batch is validated
// before anything touches the WAL, then appended and fsynced under one
// group commit (SubmitBatch), so the request is atomic from the client's
// view: a 400 means nothing was acknowledged, a 200 means the entire
// batch survives a crash.
func (s *Server) Ingest(ctx context.Context, req client.IngestRequest) (client.IngestResponse, error) {
	if s.ing == nil {
		return client.IngestResponse{}, fmt.Errorf("%w: utcqd started without -wal", api.ErrIngestDisabled)
	}
	if s.opts.Follower {
		return client.IngestResponse{}, fmt.Errorf("%w: this node is a replication follower; submit writes to the leader", api.ErrNotLeader)
	}
	if len(req.Trajectories) == 0 {
		return client.IngestResponse{}, fmt.Errorf("%w: no trajectories", api.ErrBadRequest)
	}
	// Bounded admission: past the pending limit the WAL keeps growing
	// faster than the drain empties it, so shed load here — the batch was
	// not acknowledged and the client retries after backoff.
	if limit := s.opts.MaxPending; limit > 0 {
		if pending := s.ing.Pending(); pending >= limit {
			s.rejected.Add(1)
			return client.IngestResponse{}, fmt.Errorf("%w: %d acknowledged records pending (limit %d)", api.ErrBacklog, pending, limit)
		}
	}
	raws := make([]traj.RawTrajectory, len(req.Trajectories))
	for i, rt := range req.Trajectories {
		pts := make([]traj.RawPoint, len(rt.Points))
		for k, p := range rt.Points {
			pts[k] = traj.RawPoint{X: p.X, Y: p.Y, T: p.T}
		}
		raws[i] = traj.RawTrajectory{Points: pts}
	}
	// ErrRejected is the client's mistake (400); ErrReadOnly is the WAL
	// failure latch — reads keep working, writes answer 503 until the
	// operator intervenes.
	first, err := s.ing.SubmitBatch(raws)
	if err != nil {
		return client.IngestResponse{}, err
	}
	resp := client.IngestResponse{Accepted: len(raws), FirstSeq: first}
	if req.Flush {
		gen, err := s.ing.Flush()
		if err != nil {
			// Durably acknowledged, application deferred: the front end
			// answers 202 with the failure in-band.
			resp.Generation = s.st.Generation()
			resp.Pending = uint64(s.ing.Pending())
			resp.FlushError = err.Error()
			return resp, nil
		}
		resp.Generation = gen
		// The batch has folded; report which records the matcher dropped
		// so sequence-to-id mapping callers (the cluster router) can
		// account for the ids that were never created, and the post-flush
		// trajectory count so those callers can verify their id maps
		// before committing an assignment.
		for _, seq := range s.ing.DroppedIn(first, first+uint64(len(raws))) {
			resp.Dropped = append(resp.Dropped, int(seq-first))
		}
		resp.Trajectories = s.st.NumTrajectories()
	} else {
		resp.Generation = s.st.Generation()
	}
	resp.Pending = uint64(s.ing.Pending())
	return resp, nil
}

// Compact drains pending ingestion and folds the live delta shards into
// a base shard.  Without an ingester the store compacts directly (useful
// after offline bulk loads).
func (s *Server) Compact(ctx context.Context) (client.CompactResponse, error) {
	var folded int
	var err error
	if s.ing != nil {
		folded, err = s.ing.Compact()
	} else {
		folded, err = s.st.Compact()
	}
	if err != nil {
		return client.CompactResponse{}, err
	}
	return client.CompactResponse{Folded: folded, Generation: s.st.Generation()}, nil
}

// Health is liveness plus degradation visibility: the process is alive
// (200) as long as it can answer, but the body reports "degraded" with
// the reasons — quarantined shards, a read-only write path — so operators
// and load balancers see partial failure without scraping /v1/stats.
func (s *Server) Health(ctx context.Context) client.Health {
	resp := client.Health{Status: "ok"}
	if q := s.st.QuarantinedShards(); q > 0 {
		resp.Status = "degraded"
		resp.QuarantinedShards = q
	}
	if s.ing != nil && s.ing.ReadOnly() != nil {
		resp.Status = "degraded"
		resp.ReadOnly = true
	}
	return resp
}

// Stats reports the store's aggregated engine, cache and degradation
// counters.
func (s *Server) Stats(ctx context.Context) client.StatsResponse {
	st := s.st.Stats()
	b := s.st.Bounds()
	db := s.st.DataBounds()
	resp := client.StatsResponse{
		Shards:            st.Shards,
		BaseShards:        st.BaseShards,
		DeltaShards:       st.DeltaShards,
		Tombstones:        st.Tombstones,
		OpenShards:        st.OpenShards,
		Trajectories:      st.Trajectories,
		Assignment:        st.Assignment,
		Generation:        st.Generation,
		Compactions:       st.Compactions,
		TimeMin:           st.TimeMin,
		TimeMax:           st.TimeMax,
		Bounds:            client.Rect{MinX: b.MinX, MinY: b.MinY, MaxX: b.MaxX, MaxY: b.MaxY},
		DataBounds:        client.Rect{MinX: db.MinX, MinY: db.MinY, MaxX: db.MaxX, MaxY: db.MaxY},
		Engine:            client.EngineStats(st.Engine),
		Succinct:          client.SuccinctStats(st.Succinct),
		SidecarLoads:      st.SidecarLoads,
		SidecarRebuilds:   st.SidecarRebuilds,
		MappedBytes:       st.MappedBytes,
		RSSBytes:          st.RSSBytes,
		QuarantinedShards: st.QuarantinedShards,
		ShardOpenFailures: st.ShardOpenFailures,
		Rejected:          s.rejected.Load(),
		DegradedQueries:   s.degraded.Load(),
		Watchers:          s.watchers.Load(),
		WatchNotifies:     s.watchNotifies.Load(),
	}
	if s.ing != nil {
		is := s.ing.Stats()
		resp.Ingest = &client.IngestStats{
			Acked:        is.Acked,
			Applied:      is.Applied,
			Pending:      is.Pending,
			PendingLimit: max(s.opts.MaxPending, 0),
			Matched:      is.Matched,
			Dropped:      is.Dropped,
			Batches:      is.Batches,
			Compactions:  is.Compactions,
			WALBytes:     is.WALBytes,
			ReadOnly:     is.ReadOnly,
			SimplifyEps:  is.SimplifyEps,
			PointsIn:     is.PointsIn,
			PointsKept:   is.PointsKept,
		}
	}
	return resp
}
