package main

import (
	"context"
	"fmt"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"utcq/internal/core"
	"utcq/internal/gen"
	"utcq/internal/mapmatch"
	"utcq/internal/mmapio"
	"utcq/internal/stiu"
	"utcq/internal/store"
	"utcq/internal/traj"
	"utcq/pkg/client"
)

// readEndpoints are the query endpoints (as span name suffixes).
var readEndpoints = []string{"where", "when", "range", "batch"}

func isRead(name, layer string) bool {
	for _, ep := range readEndpoints {
		if name == layer+"."+ep {
			return true
		}
	}
	return false
}

// spanMetrics derives the client and server layer figures from the traced
// window's spans.
func (r *run) spanMetrics(spans []span, traced *loadResult) {
	isClient := func(s span) bool { return strings.HasPrefix(s.Name, "client.") }
	front := "server"
	if r.name == "cluster" {
		front = "cluster"
	}
	clientIDs := map[uint64]bool{}
	for _, s := range spans {
		if isClient(s) {
			clientIDs[s.ID] = true
		}
	}
	// Client self time: the call into pkg/client minus the front-end
	// handler span of the same request.
	frontOf := func(s span, _ map[uint64]span) uint64 {
		if strings.HasPrefix(s.Name, front+".") && clientIDs[s.Parent] {
			return s.Parent
		}
		return 0
	}
	r.rep.set("client.transport_self_p50_us", selfTimes(spans, isClient, frontOf).pct(0.5), "us")

	handlers := durations(spans, func(s span) bool { return isRead(s.Name, "server") })
	r.rep.set("server.handler_p50_us", handlers.pct(0.5), "us")
	for _, ep := range append(readEndpoints, "ingest") {
		if l := durations(spans, func(s span) bool { return s.Name == "server."+ep }); len(l) > 0 {
			r.rep.set("server."+ep+"_p50_us", l.pct(0.5), "us")
		}
	}
	var bytes int64
	for _, s := range spans {
		if isRead(s.Name, front) && clientIDs[s.Parent] {
			bytes += s.Bytes
		}
	}
	r.rep.set("server.resp_bytes_per_query", float64(bytes)/float64(max(traced.queries, 1)), "B")
}

// engineMetrics reports the query and StIU counters accumulated over the
// traced window.
func (r *run) engineMetrics(before, after store.Stats, traced *loadResult) {
	e0, e1 := before.Engine, after.Engine
	hits, misses := float64(e1.CacheHits-e0.CacheHits), float64(e1.CacheMisses-e0.CacheMisses)
	r.rep.ratio("query.cache_hit_ratio", hits, hits+misses, "query.cache_lookups", "count")
	q := float64(traced.queries)
	r.rep.set("query.queries", q, "count")
	r.rep.set("query.paths_decoded_per_query", float64(e1.PathsDecoded-e0.PathsDecoded)/max(q, 1), "ratio")
	r.rep.set("query.instances_skipped_per_query", float64(e1.InstancesSkipped-e0.InstancesSkipped)/max(q, 1), "ratio")
	ranges := float64(len(traced.byKind["range"]) + r.prm.Batch*len(traced.byKind["batch"]))
	r.rep.ratio("query.trajs_pruned_per_range", float64(e1.TrajsPruned-e0.TrajsPruned), ranges, "query.ranges", "count")
	r.rep.ratio("query.trajs_accepted_per_range", float64(e1.TrajsAccepted-e0.TrajsAccepted), ranges, "", "")
	s0, s1 := before.Succinct, after.Succinct
	pruned, blocks := float64(s1.RegionPrunedNoTouch-s0.RegionPrunedNoTouch), float64(s1.RegionBlocksDecoded-s0.RegionBlocksDecoded)
	r.rep.ratio("stiu.pruned_no_touch_ratio", pruned, pruned+blocks, "stiu.region_probes", "count")
	r.rep.set("stiu.region_blocks_decoded", blocks, "count")
	r.rep.set("stiu.temporal_sections_forced", float64(s1.TemporalSectionsForced-s0.TemporalSectionsForced), "count")
}

// replay re-issues the traced window's requests, in the order each client
// sent them, directly against the stores (no HTTP), for at most two
// seconds, and reports the store layer's share of each request.
func (r *run) replay(sent [][]request, want oracle) {
	var all lat
	byKind := map[string]lat{}
	budget := time.Now().Add(2 * time.Second)
	for _, reqs := range sent {
		for _, req := range reqs {
			if !time.Now().Before(budget) {
				break
			}
			qs := req.batch
			if qs == nil {
				qs = []client.BatchQuery{req.q}
			}
			t0 := time.Now()
			for _, q := range qs {
				qt := time.Now()
				_, _ = want(q) // answers were checked by the gate; only time matters here
				byKind[q.Kind] = append(byKind[q.Kind], time.Since(qt))
			}
			d := time.Since(t0)
			all = append(all, d)
			if req.batch != nil {
				byKind["batch"] = append(byKind["batch"], d)
			}
		}
	}
	all = all.sorted()
	r.rep.set("store.replay_p50_us", all.pct(0.5), "us")
	r.rep.set("store.replay_samples", float64(len(all)), "count")
	for _, k := range readEndpoints {
		if l, ok := byKind[k]; ok {
			r.rep.set("store."+k+"_p50_us", l.sorted().pct(0.5), "us")
		}
	}
	if h, ok := r.rep.values["server.handler_p50_us"]; ok {
		r.rep.set("server.self_p50_us", h.Value-all.pct(0.5), "us")
	}
	for _, k := range readEndpoints {
		h, ok1 := r.rep.values["server."+k+"_p50_us"]
		s, ok2 := r.rep.values["store."+k+"_p50_us"]
		if ok1 && ok2 {
			r.rep.set("server.self_"+k+"_p50_us", h.Value-s.Value, "us")
		}
	}
}

// clusterMetrics reports the router's figures; node workloads have no
// router and read 0 for its counts.
func (r *run) clusterMetrics(d *deployment, spans []span, traced *loadResult) {
	if d.router == nil {
		r.rep.set("cluster.member_calls_per_range", 0, "ratio")
		r.rep.set("cluster.routed_ranges", 0, "count")
		r.rep.set("cluster.degraded", 0, "count")
		return
	}
	for _, ep := range []string{"where", "when", "range"} {
		if l := durations(spans, func(s span) bool { return s.Name == "cluster."+ep }); len(l) > 0 {
			r.rep.set("cluster.router_"+ep+"_p50_us", l.pct(0.5), "us")
		}
	}
	isRouter := func(s span) bool { return isRead(s.Name, "cluster") }
	memberHandler := func(s span, byID map[uint64]span) uint64 {
		if !isRead(s.Name, "server") {
			return 0
		}
		return grandparentIs(s, byID)
	}
	r.rep.set("cluster.router_self_p50_us", selfTimes(spans, isRouter, memberHandler).pct(0.5), "us")
	rangeSpans := map[uint64]bool{}
	for _, s := range spans {
		if s.Name == "cluster.range" {
			rangeSpans[s.ID] = true
		}
	}
	calls := 0
	for _, s := range spans {
		if s.Name == "cluster.member_call" && rangeSpans[s.Parent] {
			calls++
		}
	}
	r.rep.ratio("cluster.member_calls_per_range", float64(calls), float64(len(rangeSpans)), "cluster.routed_ranges", "count")
	degraded := 0.0
	if sr, err := newClient(d.url, nil, &r.retries).Stats(context.Background()); err == nil {
		degraded = float64(sr.DegradedQueries)
	}
	r.rep.set("cluster.degraded", degraded, "count")
}

// openStages breaks the restart-to-serving path into its stages over a
// few reopenings: the manifest-only lazy Open, the first query of each
// shard (map, archive load, sidecar decode, engine), and the allocation
// the whole open costs.
func (r *run) openStages(d *deployment, c *corpus) error {
	reps := min(r.prm.OpenReps, 5)
	var manifest, allocB, mallocs []float64
	var touches []float64
	for k := 0; k < reps; k++ {
		var man, ab, mc float64
		for _, dir := range d.dirs() {
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			t0 := time.Now()
			st, err := store.Open(dir, c.g, store.OpenOptions{})
			if err != nil {
				return err
			}
			man += msSince(t0)
			lo, _ := st.TimeSpan()
			for _, j := range onePerShard(st) {
				t1 := time.Now()
				if _, err := st.Where(j, lo, r.prm.Alpha); err != nil {
					return err
				}
				touches = append(touches, msSince(t1))
			}
			runtime.ReadMemStats(&m1)
			ab += float64(m1.TotalAlloc - m0.TotalAlloc)
			mc += float64(m1.Mallocs - m0.Mallocs)
		}
		manifest, allocB, mallocs = append(manifest, man), append(allocB, ab), append(mallocs, mc)
	}
	r.rep.set("store.open_manifest_ms", median(manifest), "ms")
	r.rep.set("store.first_touch_ms", median(touches), "ms")
	r.rep.set("store.open_alloc_bytes", median(allocB), "B")
	r.rep.set("store.open_mallocs", median(mallocs), "count")
	return nil
}

// directProbes times the layers below the store by calling them directly
// on the run's own inputs: compression and index build over the whole
// corpus, archive load and sidecar decode over every shard file the
// deployment holds, and map matching over a sample of raw trajectories.
func (r *run) directProbes(c *corpus, d *deployment, raws ...traj.RawTrajectory) error {
	comp, err := core.NewCompressor(c.g, core.DefaultOptions(c.p.Ts))
	if err != nil {
		return err
	}
	t0 := time.Now()
	arch, err := comp.Compress(c.tus)
	if err != nil {
		return err
	}
	r.rep.set("core.compress_s", time.Since(t0).Seconds(), "s")
	cs := arch.Stats
	r.rep.set("core.ratio_total", cs.TotalRatio(), "ratio")
	r.rep.set("core.ratio_t", cs.RatioT(), "ratio")
	r.rep.set("core.ratio_e", cs.RatioE(), "ratio")
	r.rep.set("core.ratio_d", cs.RatioD(), "ratio")
	r.rep.set("core.ratio_p", cs.RatioP(), "ratio")
	t0 = time.Now()
	if _, err := stiu.Build(arch, stiu.DefaultOptions()); err != nil {
		return err
	}
	r.rep.set("stiu.build_s", time.Since(t0).Seconds(), "s")
	arch = nil

	var loads, decodes []float64
	for k := 0; k < 3; k++ {
		var load, dec float64
		for _, dir := range d.dirs() {
			l, s, err := loadShardFiles(dir, c)
			if err != nil {
				return err
			}
			load, dec = load+l, dec+s
		}
		loads, decodes = append(loads, load), append(decodes, dec)
	}
	r.rep.set("core.loadbytes_ms", median(loads), "ms")
	r.rep.set("stiu.sidecar_decode_ms", median(decodes), "ms")

	if len(raws) == 0 {
		_, _, sample, err := gen.Raws(c.p, 200, r.seed*13+5)
		if err != nil {
			return err
		}
		raws = sample
	}
	m := mapmatch.New(c.g, c.eix, c.p.Match)
	var match lat
	for _, raw := range raws {
		t1 := time.Now()
		_, _ = m.Match(raw) // a rejected raw costs the matcher as much as an accepted one
		match = append(match, time.Since(t1))
	}
	r.rep.set("mapmatch.match_p50_us", match.sorted().pct(0.5), "us")
	return nil
}

// loadShardFiles maps every shard archive in dir the way the store does,
// decodes it with core.LoadBytes, then decodes its sidecar with
// stiu.DecodeSidecar, and returns the summed times of each in ms.
func loadShardFiles(dir string, c *corpus) (loadMS, decodeMS float64, err error) {
	files, _ := filepath.Glob(filepath.Join(dir, "shard-*.utcq"))
	for _, f := range files {
		m, err := mmapio.Open(f)
		if err != nil {
			return 0, 0, err
		}
		t0 := time.Now()
		arch, err := core.LoadBytes(m.Data(), c.g)
		if err != nil {
			m.Release()
			return 0, 0, fmt.Errorf("%s: %w", f, err)
		}
		loadMS += msSince(t0)
		n, size := len(arch.Trajs), int64(len(m.Data()))
		arch = nil
		m.Release()

		sc, err := mmapio.Open(strings.TrimSuffix(f, ".utcq") + ".stiu")
		if err != nil {
			continue // a shard without a sidecar is rebuilt by the store; nothing to decode
		}
		t0 = time.Now()
		_, derr := stiu.DecodeSidecar(sc.Data(), c.g, n, size, stiu.DefaultOptions())
		decodeMS += msSince(t0)
		sc.Release()
		if derr != nil {
			return 0, 0, fmt.Errorf("%s sidecar: %w", f, derr)
		}
	}
	return loadMS, decodeMS, nil
}
