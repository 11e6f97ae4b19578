package main

import (
	"context"
	"fmt"
	"math"
	"path/filepath"
	"sync"
	"time"

	"utcq/internal/gen"
	"utcq/internal/ingest"
	"utcq/internal/server"
	"utcq/internal/store"
	"utcq/internal/traj"
	"utcq/pkg/client"
)

// Ingester defaults the workload runs with (ingest.Options zero values).
const (
	ingestBatchSize  = 32
	ingestFlushEvery = time.Second
)

// rawPointBytes is the size of one raw GPS fix as the harness counts
// ingested volume: x and y as float64, t as int64.
const rawPointBytes = 24

// deployLive builds, saves and reopens the base store, opens a WAL-backed
// ingester on it, and serves both.  The ingester runs no background
// worker: the harness's flusher calls Flush, so each drain is timed.
func (r *run) deployLive(c *corpus, dir string) (*deployment, *ingest.Ingester, error) {
	st, err := buildSaveOpen(c.g, c.tus, c.p, r.prm.Shards, dir)
	if err != nil {
		return nil, nil, err
	}
	// Default BatchSize, CompactEvery and fsync-on-submit.
	ing, err := ingest.New(st, c.eix, filepath.Join(dir, "ingest.wal"), ingest.Options{Match: c.p.Match})
	if err != nil {
		return nil, nil, err
	}
	ep, err := serveNode(st, server.Options{Ingester: ing}, r.tr)
	if err != nil {
		ing.Close()
		return nil, nil, err
	}
	m := &member{st: st, ep: ep, dir: dir}
	return &deployment{url: ep.url, members: []*member{m}, closers: []func() error{ing.Close}}, ing, nil
}

// recentKey is a queryable trajectory id with a time inside its span.
type recentKey struct {
	id int
	t  int64
}

// liveState is what the writer, the flusher and the reader share.
type liveState struct {
	mu       sync.Mutex
	raws     []traj.RawTrajectory
	rawOf    map[uint64]int // WAL sequence -> index into raws
	recent   []recentKey    // newest last, capped at recentKeep
	acks     []pendingAck   // acknowledged, not yet visible
	visible  lat
	flushes  lat
	pendMax  int
	mismatch error
}

type pendingAck struct {
	end     uint64 // first sequence after the request's records
	acked   time.Time
	measure bool
}

const recentKeep = 256

func (s *liveState) pushRecent(k recentKey) {
	s.recent = append(s.recent, k)
	if len(s.recent) > 4*recentKeep {
		s.recent = append(s.recent[:0], s.recent[len(s.recent)-recentKeep:]...)
	}
}

// pick draws a recent key, favouring the newest.
func (s *liveState) pick(qg *queryGen) recentKey {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := min(len(s.recent), recentKeep)
	back := min(int(qg.rng.ExpFloat64()*float64(n)/4), n-1)
	return s.recent[len(s.recent)-1-back]
}

// runIngest runs ingest-mixed: an open-loop writer posting raw DK
// trajectories at a fixed rate, the harness flusher draining them through
// map matching and compression into delta shards (compacting every
// CompactEvery), and one closed-loop reader querying the newest ids.
func (r *run) runIngest(c *corpus) error {
	var ing *ingest.Ingester
	d, err := r.setup(func(dir string) (*deployment, error) {
		d, i, err := r.deployLive(c, dir)
		ing = i
		return d, err
	})
	if err != nil {
		return err
	}
	defer func() {
		d.close()
		removeAll(d.dirs()...)
	}()
	st := d.members[0].st
	base := st.NumTrajectories()
	if err := r.measureOpen(d, c); err != nil {
		return err
	}

	window := r.dur
	warm := time.Duration(r.prm.WarmupS * float64(time.Second))
	nReqs := int(math.Ceil((warm+window).Seconds()*r.prm.Rate/float64(r.prm.PerReq))) + 1
	_, _, raws, err := gen.Raws(c.p, nReqs*r.prm.PerReq, r.seed*17+11)
	if err != nil {
		return err
	}
	ls := &liveState{raws: raws, rawOf: map[uint64]int{}}
	for j := max(0, base-recentKeep); j < base; j++ {
		u := c.tus[j]
		ls.pushRecent(recentKey{id: j, t: (u.T[0] + u.T[len(u.T)-1]) / 2})
	}

	qg := newQueryGen(r.seed*31+7, c.g, c.tus, r.prm.Alpha)
	cl := newClient(d.url, r.tr, &r.retries)
	ctx := context.Background()
	var sample []request
	for i := 0; i < r.prm.GateSample; i++ {
		sample = append(sample, r.readerRequest(qg, ls))
	}
	ng, err := gate(ctx, cl, storeOracle(st), sample)
	if err != nil {
		return errGate{err}
	}
	fmt.Fprintf(r.out, "# gate: %d sampled queries answer identically over HTTP and directly\n", ng)
	if !r.traced {
		c.tus = nil // the traced run's direct layer probes still need it
	}
	qg.tus = nil
	quiesce()

	// Phases: warm-up, then the window.  Traced runs split the window into
	// an untraced and a traced half.
	t0 := time.Now()
	measureFrom := t0.Add(warm)
	traceFrom := measureFrom.Add(window)
	if r.traced {
		traceFrom = measureFrom.Add(window / 2)
	}
	end := measureFrom.Add(window)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); r.flusher(ing, st, ls, stop) }()
	go func() { defer wg.Done(); r.visibility(st, ls, stop) }()

	wres := make(chan writerResult, 1)
	go func() { wres <- r.writer(ctx, cl, ing, ls, t0, measureFrom, end) }()

	// Reader: one closed-loop client until the end, measured after
	// warm-up in sub-windows like the read workloads.
	next := func(int) request { return r.readerRequest(qg, ls) }
	closedLoop(ctx, cl, nil, 1, time.Until(measureFrom), next)
	s := startSampler()
	wbBefore := procWriteBytes()
	plainWs := windows(ctx, cl, nil, 1, time.Until(traceFrom), next)
	plain := merge(plainWs)
	var traced *loadResult
	var before store.Stats
	if r.traced {
		before = sumStats(d.stores())
		r.tr.on.Store(true)
		traced = merge(windows(ctx, cl, r.tr, 1, time.Until(end), next))
		r.tr.on.Store(false)
	}
	s.finish()
	wr := <-wres
	close(stop)
	wg.Wait()
	written := procWriteBytes() - wbBefore

	// Drain what is left and fold the remaining deltas, so the on-disk
	// size below does not depend on where the last compaction fell; then
	// check the ingest invariants.
	if _, err := ing.Compact(); err != nil {
		return fmt.Errorf("final flush and compaction: %w", err)
	}
	if err := ls.mismatch; err != nil {
		return errGate{err}
	}
	is := ing.Stats()
	if is.Acked != wr.accepted || is.Applied != is.Acked || uint64(is.Matched+is.Dropped) != is.Applied {
		return errGate{fmt.Errorf("ingest gate: writer had %d trajectories acknowledged; ingester reports acked %d, applied %d, matched %d + dropped %d",
			wr.accepted, is.Acked, is.Applied, is.Matched, is.Dropped)}
	}
	if got, want := st.NumTrajectories(), base+int(is.Matched); got != want {
		return errGate{fmt.Errorf("ingest gate: store holds %d trajectories, want base %d + matched %d", got, base, is.Matched)}
	}
	fmt.Fprintf(r.out, "# ingest gate: acked = applied = %d = matched %d + dropped %d; store = base %d + matched\n",
		is.Applied, is.Matched, is.Dropped, base)

	// End-to-end figures.
	r.attempted += plain.queries + plain.failed + int64(wr.requests)
	r.failed += plain.failed + int64(wr.failed)
	r.rep.set("qps", medianOver(plainWs, (*loadResult).qps), "1/s")
	acks := wr.ack.sorted()
	r.rep.set("op_p50_us", acks.pct(0.5), "us")
	r.rep.set("op_p99_us", acks.pct(0.99), "us")
	r.rep.set("op_samples", float64(len(acks)), "count")
	r.rep.set("ingest_ack_p50_us", acks.pct(0.5), "us")
	v, label := acks.tailPct()
	r.rep.set("ingest_ack_"+label+"_us", v, "us")
	ls.mu.Lock()
	vis := ls.visible.sorted()
	flushes := ls.flushes.sorted()
	pendMax := ls.pendMax
	ls.mu.Unlock()
	r.rep.set("visible_p50_ms", vis.pct(0.5)/1e3, "ms")
	r.rep.set("visible_samples", float64(len(vis)), "count")
	for _, k := range []string{"where", "range"} {
		if l, ok := plain.byKind[k]; ok {
			r.rep.set(k+"_p50_us", l.pct(0.5), "us")
			v, label := l.tailPct()
			r.rep.set(k+"_"+label+"_us", v, "us")
			r.rep.set(k+"_samples", float64(len(l)), "count")
		}
	}
	r.rep.ratio("failed_frac", float64(r.failed), float64(r.attempted), "attempted", "count")
	r.rep.ratio("harness.failed_frac", float64(r.failed), float64(r.attempted), "", "")
	r.rep.set("harness.late_p99_ms", wr.late.sorted().pct(0.99)/1e3, "ms")
	r.rep.set("rss_peak_mib", float64(s.peakRSS.Load())/(1<<20), "MiB")
	r.rep.set("store.mapped_bytes_peak", float64(s.peakMapped.Load()), "B")
	r.endState(d)
	r.rep.set("ingest.flush_p50_ms", flushes.pct(0.5)/1e3, "ms")
	r.rep.set("ingest.flush_p99_ms", flushes.pct(0.99)/1e3, "ms")
	r.rep.set("ingest.pending_max", float64(pendMax), "count")
	r.rep.ratio("ingest.drop_frac", float64(is.Dropped), float64(is.Applied), "ingest.applied", "count")
	r.rep.set("ingest.compactions", float64(is.Compactions), "count")
	r.rep.ratio("store.bytes_written_per_raw_byte", float64(written), float64(wr.rawBytes), "store.raw_bytes_acked", "B")
	r.rep.set("ingest.rate_trajs_per_s", r.prm.Rate, "1/s")
	if !r.traced {
		return plain.firstErrIfAllFailed()
	}

	spans := r.tr.take()
	after := sumStats(d.stores())
	r.rep.ratio("trace.overhead_frac", plain.qps()-traced.qps(), plain.qps(), "", "")
	r.rep.set("ingest.wal_bytes_per_traj", float64(wr.walGrowth)/float64(max(wr.walTrajs, 1)), "B")
	r.spanMetrics(spans, traced)
	r.engineMetrics(before, after, traced)
	r.replay(traced.sent, storeOracle(st))
	r.clusterMetrics(d, spans, traced)
	if err := r.directProbes(c, d, raws[:min(200, len(raws))]...); err != nil {
		return err
	}
	if err := writeSpans(r.traceFile(), spans); err != nil {
		return err
	}
	return plain.firstErrIfAllFailed()
}

// readerRequest draws one reader query: where on a recent id (3 in 4), or
// a range at a recent trajectory's time.
func (r *run) readerRequest(qg *queryGen, ls *liveState) request {
	k := ls.pick(qg)
	if qg.rng.Intn(4) < 3 {
		return request{q: client.BatchQuery{Kind: "where", Where: &client.WhereRequest{Traj: k.id, T: k.t, Alpha: r.prm.Alpha}}}
	}
	return request{q: qg.rangeAt(k.t)}
}

type writerResult struct {
	ack, late           lat
	requests, failed    int
	accepted            uint64
	rawBytes            int64
	walGrowth, walTrajs int64
}

// writer posts PerReq raw trajectories per request on a fixed schedule
// (open loop).  Each acknowledgement is timed from when its request was
// due, so a stalled request also charges the ones queued behind it.
func (r *run) writer(ctx context.Context, cl *client.Client, ing *ingest.Ingester, ls *liveState, t0, measureFrom, end time.Time) writerResult {
	var res writerResult
	interval := time.Duration(float64(time.Second) * float64(r.prm.PerReq) / r.prm.Rate)
	for k := 0; ; k++ {
		due := t0.Add(time.Duration(k) * interval)
		if !due.Before(end) || (k+1)*r.prm.PerReq > len(ls.raws) {
			return res
		}
		if w := time.Until(due); w > 0 {
			time.Sleep(w)
		}
		measure := !due.Before(measureFrom)
		if measure {
			res.late = append(res.late, time.Since(due))
		}
		batch := ls.raws[k*r.prm.PerReq : (k+1)*r.prm.PerReq]
		body := make([]client.RawTrajectory, len(batch))
		points := 0
		for i, raw := range batch {
			pts := make([]client.RawPoint, len(raw.Points))
			for j, p := range raw.Points {
				pts[j] = client.RawPoint{X: p.X, Y: p.Y, T: p.T}
			}
			body[i] = client.RawTrajectory{Points: pts}
			points += len(pts)
		}
		var wal0 int64
		if r.traced {
			wal0 = ing.Stats().WALBytes
		}
		cctx, done := r.tr.begin(ctx, "client.ingest")
		resp, err := cl.Ingest(cctx, body, false)
		acked := time.Now()
		done()
		if measure {
			res.requests++
		}
		if err != nil || resp.Accepted != len(batch) {
			if measure {
				res.failed++
			}
			if err == nil {
				ls.mu.Lock()
				ls.mismatch = fmt.Errorf("ingest gate: %d of %d trajectories acknowledged", resp.Accepted, len(batch))
				ls.mu.Unlock()
			}
			continue
		}
		if r.traced {
			if grown := ing.Stats().WALBytes - wal0; grown > 0 {
				res.walGrowth += grown
				res.walTrajs += int64(len(batch))
			}
		}
		res.accepted += uint64(resp.Accepted)
		ls.mu.Lock()
		for i := range batch {
			ls.rawOf[resp.FirstSeq+uint64(i)] = k*r.prm.PerReq + i
		}
		ls.acks = append(ls.acks, pendingAck{end: resp.FirstSeq + uint64(resp.Accepted), acked: acked, measure: measure})
		ls.mu.Unlock()
		if measure {
			res.ack = append(res.ack, acked.Sub(due))
			res.rawBytes += int64(points * rawPointBytes)
		}
	}
}

// flusher is the harness's drain policy, mirroring the ingester's own
// background worker: Flush as soon as a full batch is pending, otherwise
// once FlushEvery has passed with anything pending.  Each Flush is timed
// (automatic compaction included), and newly applied records join the
// reader's recent keys under the ids the store gave them.
func (r *run) flusher(ing *ingest.Ingester, st *store.Store, ls *liveState, stop chan struct{}) {
	last := time.Now()
	applied := st.WALApplied()
	tick := time.NewTicker(2 * time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			return
		case <-tick.C:
		}
		pending := ing.Pending()
		ls.mu.Lock()
		ls.pendMax = max(ls.pendMax, pending)
		ls.mu.Unlock()
		if pending < ingestBatchSize && (pending == 0 || time.Since(last) < ingestFlushEvery) {
			continue
		}
		prevN := st.NumTrajectories()
		t0 := time.Now()
		_, err := ing.Flush()
		dt := time.Since(t0)
		last = time.Now()
		if err != nil {
			ls.mu.Lock()
			ls.mismatch = fmt.Errorf("flush: %w", err)
			ls.mu.Unlock()
			return
		}
		now := st.WALApplied()
		dropped := map[uint64]bool{}
		for _, s := range ing.DroppedIn(applied, now) {
			dropped[s] = true
		}
		n := st.NumTrajectories()
		ls.mu.Lock()
		ls.flushes = append(ls.flushes, dt)
		id := prevN
		for seq := applied; seq < now; seq++ {
			if dropped[seq] {
				continue
			}
			if i, ok := ls.rawOf[seq]; ok {
				pts := ls.raws[i].Points
				ls.pushRecent(recentKey{id: id, t: (pts[0].T + pts[len(pts)-1].T) / 2})
				delete(ls.rawOf, seq)
			}
			id++
		}
		if id != n && ls.mismatch == nil {
			ls.mismatch = fmt.Errorf("ingest gate: WAL records [%d, %d) with %d dropped should add %d trajectories, store went %d -> %d",
				applied, now, len(dropped), int(now-applied)-len(dropped), prevN, n)
		}
		ls.mu.Unlock()
		applied = now
	}
}

// visibility watches the store's applied WAL mark and times each
// acknowledged request until all its records are queryable.
func (r *run) visibility(st *store.Store, ls *liveState, stop chan struct{}) {
	tick := time.NewTicker(time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			return
		case <-tick.C:
		}
		applied := st.WALApplied()
		now := time.Now()
		ls.mu.Lock()
		k := 0
		for k < len(ls.acks) && ls.acks[k].end <= applied {
			if ls.acks[k].measure {
				ls.visible = append(ls.visible, now.Sub(ls.acks[k].acked))
			}
			k++
		}
		ls.acks = ls.acks[k:]
		ls.mu.Unlock()
	}
}
