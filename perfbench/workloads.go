package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sync/atomic"
	"time"

	"utcq/internal/gen"
	"utcq/internal/store"
	"utcq/pkg/client"
)

// params are one workload's fixed shape.  The seed changes the corpus and
// the queries, never the shape.
type params struct {
	Profile    string   `json:"profile"`
	Trajs      int      `json:"trajectories"`
	Shards     int      `json:"shardsPerStore"`
	Nodes      int      `json:"clusterMembers,omitempty"`
	Clients    int      `json:"clients"`
	Alpha      float64  `json:"alpha"`
	Pool       int      `json:"poolRequests,omitempty"`
	Batch      int      `json:"queriesPerBatch,omitempty"`
	Mix        string   `json:"mix"`
	Rate       float64  `json:"ingestTrajsPerSec,omitempty"`
	PerReq     int      `json:"ingestTrajsPerRequest,omitempty"`
	FlushPol   string   `json:"flushPolicy,omitempty"`
	OpKinds    []string `json:"opKinds"`
	SetupReps  int      `json:"setupReps"`
	OpenReps   int      `json:"openReps"`
	GateSample int      `json:"gateSampleRequests"`
	WarmupS    float64  `json:"warmupSeconds"`
}

// workloads are the benchmark's workloads at full size.
var workloads = map[string]params{
	"point": {Profile: "CD", Trajs: 20000, Shards: 4, Clients: 2, Alpha: 0.2, Pool: 1 << 16,
		Mix: "where:when 2:1, trajectories uniform", OpKinds: []string{"where", "when"},
		SetupReps: 3, OpenReps: 41, GateSample: 300, WarmupS: 1},
	"range-batch": {Profile: "HZ", Trajs: 10000, Shards: 4, Clients: 2, Alpha: 0.2, Pool: 4096, Batch: 16,
		Mix: "batches of 16 ranges, 5-40% of each axis, uniform times", OpKinds: []string{"batch"},
		SetupReps: 3, OpenReps: 41, GateSample: 20, WarmupS: 1},
	"ingest-mixed": {Profile: "DK", Trajs: 5000, Shards: 4, Clients: 1, Alpha: 0.2,
		Rate: 240, PerReq: 2, FlushPol: "harness flusher: Ingester.Flush when pending >= BatchSize (32), else every 1s when pending > 0; checks every 2ms",
		Mix: "open-loop writer + one closed-loop reader (where:range 3:1 over the newest 256 ids)", OpKinds: []string{"ingest"},
		SetupReps: 3, OpenReps: 41, GateSample: 200, WarmupS: 1},
	"cluster": {Profile: "CD", Trajs: 20000, Shards: 2, Nodes: 2, Clients: 2, Alpha: 0.2, Pool: 1 << 16,
		Mix: "where:when:range 50:25:25 through the router", OpKinds: []string{"where", "when"},
		SetupReps: 3, OpenReps: 41, GateSample: 300, WarmupS: 1},
}

var workloadOrder = []string{"point", "range-batch", "ingest-mixed", "cluster"}

// run is one benchmark invocation on one workload.
type run struct {
	name   string
	prm    params
	seed   int64
	dur    time.Duration
	traced bool
	work   string // scratch directory, removed at the end
	traces string // directory trace files are written to
	out    io.Writer

	rep       *report
	tr        *tracer // non-nil only in traced runs
	retries   atomic.Int64
	attempted int64
	failed    int64
}

// execute runs the workload and fills r.rep.  A correctness failure
// returns errGate-wrapped errors; anything else is a harness error.
func (r *run) execute() error {
	if r.traced {
		r.tr = newTracer()
	}
	ctl, err := hostControl()
	if err != nil {
		return err
	}
	r.rep.set("harness.control_ms", ctl, "ms")
	p, err := gen.ProfileByName(r.prm.Profile)
	if err != nil {
		return err
	}
	c, err := synthesize(p, r.prm.Trajs, r.seed)
	if err != nil {
		return err
	}
	r.rep.set("harness.gen_s", c.genS, "s")
	r.rep.set("harness.instances", float64(c.instances()), "count")
	fmt.Fprintf(r.out, "# corpus: %s, %d trajectories, %d instances, synthesized in %.2fs\n",
		p.Name, len(c.tus), c.instances(), c.genS)
	if r.name == "ingest-mixed" {
		return r.runIngest(c)
	}
	return r.runReads(c)
}

// setup repeats fn SetupReps times, reports the median as setup_s and
// keeps the last deployment; the others are closed and deleted.
func (r *run) setup(fn func(dir string) (*deployment, error)) (*deployment, error) {
	var times []float64
	var keep *deployment
	for k := 0; k < r.prm.SetupReps; k++ {
		if keep != nil {
			if err := keep.close(); err != nil {
				return nil, err
			}
			removeAll(keep.dirs()...)
			keep = nil
		}
		runtime.GC()
		dir := filepath.Join(r.work, fmt.Sprintf("setup-%d", k))
		t0 := time.Now()
		d, err := fn(dir)
		if err != nil {
			return nil, err
		}
		times = append(times, time.Since(t0).Seconds())
		keep = d
	}
	r.rep.set("setup_s", median(times), "s")
	return keep, nil
}

// openWarmups are reopenings before the measured ones: the first opens
// after Save also pay for the freshly written files' page-cache state.
const openWarmups = 2

// measureOpen reopens the deployment's saved directories OpenReps times,
// each followed by a query touching every shard, and reports the median.
// Traced runs also break one open down by stage.
func (r *run) measureOpen(d *deployment, c *corpus) error {
	var reps []float64
	for k := -openWarmups; k < r.prm.OpenReps; k++ {
		var total time.Duration
		runtime.GC() // collect the previous reopening, so no rep pays for another's garbage
		for _, dir := range d.dirs() {
			dt, err := openProbe(dir, c.g)
			if err != nil {
				return fmt.Errorf("open probe: %w", err)
			}
			total += dt
		}
		if k >= 0 {
			reps = append(reps, float64(total.Nanoseconds())/1e6)
		}
	}
	r.rep.set("open_ms", median(reps), "ms")
	if r.traced {
		return r.openStages(d, c)
	}
	return nil
}

// quiesce drops the harness's own garbage before a timed window so the
// resident set measures the serving process, not set-up leftovers.
func quiesce() {
	runtime.GC()
	debug.FreeOSMemory()
}

// runReads runs the closed-loop read workloads: point, range-batch and
// cluster.
func (r *run) runReads(c *corpus) error {
	var d *deployment
	var err error
	if r.name == "cluster" {
		d, err = r.setup(func(dir string) (*deployment, error) {
			return deployCluster(c, r.prm.Nodes, r.prm.Shards, dir, r.tr)
		})
	} else {
		d, err = r.setup(func(dir string) (*deployment, error) {
			return deployNode(c, r.prm.Shards, dir, r.tr)
		})
	}
	if err != nil {
		return err
	}
	defer func() {
		d.close()
		removeAll(d.dirs()...)
	}()
	if err := r.measureOpen(d, c); err != nil {
		return err
	}

	qg := newQueryGen(r.seed*31+7, c.g, c.tus, r.prm.Alpha)
	pool := r.pool(qg)
	cl := newClient(d.url, r.tr, &r.retries)
	ctx := context.Background()

	var want oracle
	if r.name == "cluster" {
		// The equivalence oracle: one single-node store over the whole
		// corpus, as in TestRouterEquivalence.
		opts := store.DefaultOptions(c.p.Ts)
		single, err := store.Build(c.g, c.tus, opts)
		if err != nil {
			return err
		}
		want = storeOracle(single)
	} else {
		want = storeOracle(d.members[0].st)
	}
	n, err := gate(ctx, cl, want, sampleOf(pool, r.prm.GateSample))
	if err != nil {
		return errGate{err}
	}
	fmt.Fprintf(r.out, "# gate: %d sampled queries answer identically over HTTP and directly\n", n)
	want = nil

	qg.tus = nil
	if !r.traced {
		c.tus = nil // the traced run's direct layer probes still need it
	}
	quiesce()

	next := poolWalker(pool, r.prm.Clients)
	closedLoop(ctx, cl, nil, r.prm.Clients, time.Duration(r.prm.WarmupS*float64(time.Second)), next)

	if !r.traced {
		s := startSampler()
		ws := windows(ctx, cl, nil, r.prm.Clients, r.dur, next)
		s.finish()
		r.readMetrics(ws, s)
		r.endState(d)
		return merge(ws).firstErrIfAllFailed()
	}

	// Traced: an untraced half, then a traced half over the same wiring.
	half := r.dur / 2
	s := startSampler()
	ws := windows(ctx, cl, nil, r.prm.Clients, half, next)
	s.finish()
	r.readMetrics(ws, s)
	plain := merge(ws)
	before := sumStats(d.stores())
	r.tr.on.Store(true)
	traced := merge(windows(ctx, cl, r.tr, r.prm.Clients, half, next))
	r.tr.on.Store(false)
	after := sumStats(d.stores())
	spans := r.tr.take()
	r.rep.ratio("trace.overhead_frac", plain.qps()-traced.qps(), plain.qps(), "", "")
	r.spanMetrics(spans, traced)
	r.engineMetrics(before, after, traced)
	var replayOracle oracle
	if r.name == "cluster" {
		replayOracle = membersOracle(d.members)
	} else {
		replayOracle = storeOracle(d.members[0].st)
	}
	r.replay(traced.sent, replayOracle)
	r.noIngest()
	r.endState(d)
	r.clusterMetrics(d, spans, traced)
	if err := r.directProbes(c, d); err != nil {
		return err
	}
	if err := writeSpans(r.traceFile(), spans); err != nil {
		return err
	}
	return plain.firstErrIfAllFailed()
}

// pool draws the workload's request pool.
func (r *run) pool(qg *queryGen) []request {
	n := len(qg.tus)
	pool := make([]request, r.prm.Pool)
	for i := range pool {
		switch r.name {
		case "point":
			j := qg.rng.Intn(n)
			if qg.rng.Intn(3) < 2 {
				pool[i] = request{q: qg.where(j)}
			} else {
				pool[i] = request{q: qg.when(j)}
			}
		case "range-batch":
			b := make([]client.BatchQuery, r.prm.Batch)
			for k := range b {
				b[k] = qg.rangeUniform()
			}
			pool[i] = request{batch: b}
		case "cluster":
			j := qg.rng.Intn(n)
			switch k := qg.rng.Float64(); {
			case k < 0.5:
				pool[i] = request{q: qg.where(j)}
			case k < 0.75:
				pool[i] = request{q: qg.when(j)}
			default:
				pool[i] = request{q: qg.rangeUniform()}
			}
		}
	}
	return pool
}

// sampleOf returns n requests spread evenly over the pool.
func sampleOf(pool []request, n int) []request {
	n = min(n, len(pool))
	out := make([]request, n)
	for i := range out {
		out[i] = pool[i*len(pool)/n]
	}
	return out
}

func (l *loadResult) firstErrIfAllFailed() error {
	if l.queries == 0 {
		if l.firstErr != nil {
			return fmt.Errorf("no query succeeded: %w", l.firstErr)
		}
		return fmt.Errorf("no query completed in the window")
	}
	return nil
}

// readMetrics reports the end-to-end figures of an untraced closed-loop
// window: rates and percentiles as medians over its sub-windows, the
// per-kind breakdown over the pooled samples.
func (r *run) readMetrics(ws []*loadResult, s *sampler) {
	res := merge(ws)
	r.attempted += res.queries + res.failed
	r.failed += res.failed
	r.rep.set("qps", medianOver(ws, (*loadResult).qps), "1/s")
	r.rep.set("op_p50_us", medianOver(ws, func(w *loadResult) float64 { return r.opLat(w).pct(0.5) }), "us")
	r.rep.set("op_p99_us", medianOver(ws, func(w *loadResult) float64 { return r.opLat(w).pct(0.99) }), "us")
	r.rep.set("op_samples", float64(len(r.opLat(res))), "count")
	r.rep.set("op_subwindows", float64(len(ws)), "count")
	r.rep.set("rss_peak_mib", float64(s.peakRSS.Load())/(1<<20), "MiB")
	r.rep.set("store.mapped_bytes_peak", float64(s.peakMapped.Load()), "B")
	for _, k := range []string{"where", "when", "range", "batch"} {
		l, ok := res.byKind[k]
		if !ok {
			continue
		}
		r.rep.set(k+"_p50_us", l.pct(0.5), "us")
		v, label := l.tailPct()
		r.rep.set(k+"_"+label+"_us", v, "us")
		r.rep.set(k+"_samples", float64(len(l)), "count")
	}
	r.rep.ratio("failed_frac", float64(res.failed), float64(res.queries+res.failed), "attempted", "count")
	r.rep.ratio("harness.failed_frac", float64(res.failed), float64(res.queries+res.failed), "", "")
}

// opLat returns the latencies of the workload's defining operation: the
// request kinds in OpKinds.  On cluster these are the routed where and
// when requests, the same kinds point times directly, so the two price
// the router.
func (r *run) opLat(w *loadResult) lat {
	if len(r.prm.OpKinds) == 1 {
		return w.byKind[r.prm.OpKinds[0]]
	}
	var out lat
	for _, k := range r.prm.OpKinds {
		out = append(out, w.byKind[k]...)
	}
	return out.sorted()
}

// endState reports what the deployment holds at the end of the run.
func (r *run) endState(d *deployment) {
	var bytes int64
	trajs := 0
	for _, m := range d.members {
		bytes += dirBytes(m.dir)
		trajs += m.st.NumTrajectories()
	}
	r.rep.set("stored_bytes_per_traj", float64(bytes)/float64(max(trajs, 1)), "B")
	st := sumStats(d.stores())
	r.rep.set("store.shards_live", float64(st.Shards), "count")
	r.rep.set("stiu.succinct_bytes", float64(st.Succinct.SuccinctBytes), "B")
	r.rep.ratio("store.sidecar_rebuild_frac", float64(st.SidecarRebuilds), float64(st.SidecarLoads+st.SidecarRebuilds), "store.shard_opens", "count")
	var archive, sidecar int64
	for _, m := range d.members {
		a, s := artifactBytes(m.dir)
		archive += a
		sidecar += s
	}
	r.rep.set("store.archive_bytes", float64(archive), "B")
	r.rep.set("stiu.sidecar_bytes", float64(sidecar), "B")
	refused := 0.0
	for _, m := range d.members {
		if sr, err := newClient(m.ep.url, nil, &r.retries).Stats(context.Background()); err == nil {
			refused += float64(sr.Rejected + sr.Timeouts + sr.DegradedQueries)
		}
	}
	r.rep.set("server.refused", refused, "count")
	r.rep.set("client.retries", float64(r.retries.Load()), "count")
}

// noIngest reports the ingest figures of a read-only workload: nothing
// ingested, so every ratio's base is 0.
func (r *run) noIngest() {
	r.rep.set("ingest.pending_max", 0, "count")
	r.rep.ratio("ingest.drop_frac", 0, 0, "ingest.applied", "count")
	r.rep.set("ingest.compactions", 0, "count")
	r.rep.set("ingest.wal_bytes_per_traj", 0, "B")
	r.rep.ratio("store.bytes_written_per_raw_byte", 0, 0, "store.raw_bytes_acked", "B")
}

// artifactBytes sums a store directory's shard archives and sidecars.
func artifactBytes(dir string) (archive, sidecar int64) {
	for _, pat := range []struct {
		glob string
		n    *int64
	}{{"shard-*.utcq", &archive}, {"shard-*.stiu", &sidecar}} {
		files, _ := filepath.Glob(filepath.Join(dir, pat.glob))
		for _, f := range files {
			if info, err := os.Stat(f); err == nil {
				*pat.n += info.Size()
			}
		}
	}
	return archive, sidecar
}

// sumStats adds up the store-level counters of several stores.
func sumStats(sts []*store.Store) store.Stats {
	var out store.Stats
	for _, st := range sts {
		s := st.Stats()
		out.Shards += s.Shards
		out.Trajectories += s.Trajectories
		out.SidecarLoads += s.SidecarLoads
		out.SidecarRebuilds += s.SidecarRebuilds
		out.Compactions += s.Compactions
		e := &out.Engine
		e.PathsDecoded += s.Engine.PathsDecoded
		e.InstancesSkipped += s.Engine.InstancesSkipped
		e.TrajsPruned += s.Engine.TrajsPruned
		e.TrajsAccepted += s.Engine.TrajsAccepted
		e.CacheHits += s.Engine.CacheHits
		e.CacheMisses += s.Engine.CacheMisses
		x := &out.Succinct
		x.RegionBlocksDecoded += s.Succinct.RegionBlocksDecoded
		x.RegionPrunedNoTouch += s.Succinct.RegionPrunedNoTouch
		x.TemporalSectionsForced += s.Succinct.TemporalSectionsForced
		x.SuccinctBytes += s.Succinct.SuccinctBytes
	}
	return out
}

func (r *run) traceFile() string {
	return filepath.Join(r.traces, fmt.Sprintf("%s-seed%d.jsonl", r.name, r.seed))
}

// errGate marks a correctness failure.
type errGate struct{ err error }

func (e errGate) Error() string { return e.err.Error() }
func (e errGate) Unwrap() error { return e.err }
