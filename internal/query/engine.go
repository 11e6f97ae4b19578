package query

import (
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"utcq/internal/cache"
	"utcq/internal/core"
	"utcq/internal/roadnet"
	"utcq/internal/stiu"
)

// Engine answers probabilistic queries over a UTCQ archive via the StIU
// index.  Decoded references and paths are kept in sharded LRU caches
// bounded by a configurable entry budget; partial decompression and
// Lemmas 1-4 avoid touching instances that cannot contribute.
//
// An Engine is safe for concurrent use: one instance serves any number of
// goroutines calling Where, When and Range simultaneously, with memory
// bounded by the cache budget.  The configuration fields (DisablePruning,
// DisableCache) must be set before the engine is shared; they are plain
// fields precisely so single-threaded measurement runs can toggle them
// between workloads, and are not synchronized.
type Engine struct {
	Arch *core.Archive
	Ix   *stiu.Index

	// DisablePruning turns off Lemmas 1-4 (ablation benchmarks).
	// Set before sharing the engine across goroutines.
	DisablePruning bool

	// DisableCache makes every query pay its own decompression cost (the
	// paper's measurement model); by default decoded views are reused.
	// Set before sharing the engine across goroutines.
	DisableCache bool

	refViews *cache.LRU[[2]int, *core.RefView]
	paths    *cache.LRU[[2]int, *lazyPath]

	// Per-trajectory query-plan state, precomputed at construction so the
	// range hot path neither sorts nor allocates per query:
	// probOrder[j] lists instance origs in descending probability,
	// probSum[j] is the total instance probability, and instOffset[j] maps
	// (j, orig) to a flat index for the Lemma-4 scratch.
	probOrder  [][]int32
	probSum    []float64
	instOffset []int
	numInsts   int

	// tempHint[j] caches the last temporal-entry index served for
	// trajectory j; queries hitting the same interval skip the binary
	// search (the hint is verified before use, so stale values only cost
	// the fallback search).
	tempHint []atomic.Int32

	// scratchPool recycles the flat Lemma-4 bound buffers across queries
	// and goroutines; whenPool does the same for the when-query plan.
	scratchPool sync.Pool
	whenPool    sync.Pool

	// Work counters, maintained atomically (see Stats).
	pathsDecoded     atomic.Int64
	instancesSkipped atomic.Int64
	trajsPruned      atomic.Int64
	trajsAccepted    atomic.Int64
}

// rangeScratch is the per-query working set of Range: flat, epoch-stamped
// accumulators replacing the historical map[int]map[int]float64, so a query
// touches O(candidates) memory with zero steady-state allocations.
type rangeScratch struct {
	epoch   uint64
	group   []float64 // per flat instance index: summed ptotal
	gstamp  []uint64
	bound   []float64 // per trajectory: Lemma-4 probability bound
	bstamp  []uint64
	touched []touchedGroup
	cells   []roadnet.RegionID
}

type touchedGroup struct {
	traj int32
	gi   int32 // flat instance index of the group's reference
}

func (e *Engine) getScratch() *rangeScratch {
	if sc, ok := e.scratchPool.Get().(*rangeScratch); ok {
		return sc
	}
	return &rangeScratch{
		group:  make([]float64, e.numInsts),
		gstamp: make([]uint64, e.numInsts),
		bound:  make([]float64, len(e.Arch.Trajs)),
		bstamp: make([]uint64, len(e.Arch.Trajs)),
	}
}

func (e *Engine) putScratch(sc *rangeScratch) {
	sc.touched = sc.touched[:0]
	e.scratchPool.Put(sc)
}

// whenScratch is the per-query working set of When: a flat epoch-stamped
// group plan (replacing the historical map[int]*groupPlan) and a reusable
// passage buffer, so a when query performs zero steady-state allocations.
type whenScratch struct {
	epoch    uint64
	plan     []uint8 // per flat instance index: planRef/planNonRefs bits
	pstamp   []uint64
	passages []passage
}

// Group-plan bits: Lemma 1 decides, per reference group, whether the
// reference itself and whether its non-references need processing.
const (
	planRef     = uint8(1 << 0)
	planNonRefs = uint8(1 << 1)
)

func (e *Engine) getWhenScratch() *whenScratch {
	if sc, ok := e.whenPool.Get().(*whenScratch); ok {
		return sc
	}
	return &whenScratch{
		plan:   make([]uint8, e.numInsts),
		pstamp: make([]uint64, e.numInsts),
	}
}

func (e *Engine) putWhenScratch(sc *whenScratch) {
	sc.passages = sc.passages[:0]
	e.whenPool.Put(sc)
}

// EngineStats is a point-in-time snapshot of the work the engine
// performed, demonstrating the pruning lemmas and the cache behavior.
type EngineStats struct {
	PathsDecoded     int64
	InstancesSkipped int64
	TrajsPruned      int64 // range queries: Lemma 4 rejections
	TrajsAccepted    int64 // range queries: Lemma 3 early accepts

	// Cache accounting, summed over the reference-view and path caches.
	// CacheHits+CacheMisses equals the number of cache lookups performed.
	CacheHits   int64
	CacheMisses int64
	CachedViews int // current reference-view cache entries
	CachedPaths int // current path cache entries
	CacheBudget int // configured per-cache entry bound
}

// Stats returns a consistent-enough snapshot of the engine's counters.
// Safe to call concurrently with queries.
func (e *Engine) Stats() EngineStats {
	s := EngineStats{
		PathsDecoded:     e.pathsDecoded.Load(),
		InstancesSkipped: e.instancesSkipped.Load(),
		TrajsPruned:      e.trajsPruned.Load(),
		TrajsAccepted:    e.trajsAccepted.Load(),
		CachedViews:      e.refViews.Len(),
		CachedPaths:      e.paths.Len(),
		CacheBudget:      e.refViews.Cap(),
	}
	rh, rm := e.refViews.Stats()
	ph, pm := e.paths.Stats()
	s.CacheHits, s.CacheMisses = rh+ph, rm+pm
	return s
}

// EngineOptions configure the engine's bounded caches.
type EngineOptions struct {
	// CacheEntries bounds each of the two caches (decoded reference views
	// and partially decompressed paths) to at most this many entries,
	// evicting least-recently-used ones.  Values below 1 select the
	// default budget.
	CacheEntries int
	// CacheShards splits each cache into independently locked shards to
	// reduce contention.  Values below 1 select the default.
	CacheShards int
}

// DefaultEngineOptions returns the default cache budget (4096 entries per
// cache, 16 shards).
func DefaultEngineOptions() EngineOptions {
	return EngineOptions{CacheEntries: 4096, CacheShards: 16}
}

// NewEngine returns an engine over an archive and its index with the
// default cache budget.  The returned engine is safe for concurrent use
// once its configuration fields are set (see Engine).
func NewEngine(a *core.Archive, ix *stiu.Index) *Engine {
	return NewEngineWithOptions(a, ix, DefaultEngineOptions())
}

// NewEngineWithOptions returns an engine with an explicit cache budget.
// The returned engine is safe for concurrent use once its configuration
// fields are set (see Engine).
func NewEngineWithOptions(a *core.Archive, ix *stiu.Index, o EngineOptions) *Engine {
	def := DefaultEngineOptions()
	if o.CacheEntries < 1 {
		o.CacheEntries = def.CacheEntries
	}
	if o.CacheShards < 1 {
		o.CacheShards = def.CacheShards
	}
	e := &Engine{
		Arch:     a,
		Ix:       ix,
		refViews: cache.New[[2]int, *core.RefView](o.CacheEntries, o.CacheShards),
		paths:    cache.New[[2]int, *lazyPath](o.CacheEntries, o.CacheShards),
	}
	e.probOrder = make([][]int32, len(a.Trajs))
	e.probSum = make([]float64, len(a.Trajs))
	e.instOffset = make([]int, len(a.Trajs))
	e.tempHint = make([]atomic.Int32, len(a.Trajs))
	for j, tr := range a.Trajs {
		e.instOffset[j] = e.numInsts
		e.numInsts += len(tr.Insts)
		ord := make([]int32, len(tr.Insts))
		sum := 0.0
		for o := range ord {
			ord[o] = int32(o)
			sum += tr.Insts[o].P
		}
		insts := tr.Insts
		slices.SortFunc(ord, func(a, b int32) int {
			switch {
			case insts[a].P > insts[b].P:
				return -1
			case insts[a].P < insts[b].P:
				return 1
			default:
				return int(a) - int(b)
			}
		})
		e.probOrder[j] = ord
		e.probSum[j] = sum
	}
	return e
}

// findTemporal is Ix.FindTemporal with a per-trajectory hint: repeated
// queries in the same interval verify the cached entry in O(1) instead of
// re-running the binary search.  The hint is advisory — a failed
// verification falls back to the search — so concurrent updates are safe.
// A temporal section that fails to decode is an error, not a miss.
func (e *Engine) findTemporal(j int, t int64) (stiu.TemporalEntry, bool, error) {
	entries, err := e.Ix.TemporalEntries(j)
	if err != nil || len(entries) == 0 {
		return stiu.TemporalEntry{}, false, err
	}
	h := int(e.tempHint[j].Load())
	if h >= 0 && h < len(entries) && entries[h].Start <= t &&
		(h+1 >= len(entries) || entries[h+1].Start > t) {
		return entries[h], true, nil
	}
	lo := sort.Search(len(entries), func(i int) bool { return entries[i].Start > t })
	if lo == 0 {
		return stiu.TemporalEntry{}, false, nil
	}
	e.tempHint[j].Store(int32(lo - 1))
	return entries[lo-1], true, nil
}

func (e *Engine) refView(j, orig int) (*core.RefView, error) {
	k := [2]int{j, orig}
	if !e.DisableCache {
		if v, ok := e.refViews.Get(k); ok {
			return v, nil
		}
	}
	v, err := e.Arch.RefView(j, orig)
	if err != nil {
		return nil, err
	}
	if !e.DisableCache {
		e.refViews.Add(k, v)
	}
	return v, nil
}

// path builds (and caches) the partially decompressed traversal of
// instance orig of trajectory j: the edge skeleton is materialized,
// relative distances stay compressed until a point is touched.  Under
// concurrency two goroutines may race to build the same path; both builds
// are counted and the cache keeps the last one — duplicated work, never
// incorrect results.
func (e *Engine) path(j, orig int) (*lazyPath, error) {
	k := [2]int{j, orig}
	if !e.DisableCache {
		if p, ok := e.paths.Get(k); ok {
			return p, nil
		}
	}
	meta := e.Arch.Trajs[j].Insts[orig]
	numPoints := e.Arch.Trajs[j].NumPoints
	var pi *lazyPath
	if meta.IsRef {
		rv, err := e.refView(j, orig)
		if err != nil {
			return nil, err
		}
		pi, err = newLazyPath(e.Arch.Graph, rv.SV, rv.E, rv.FullTF(), numPoints, meta.P, rv.DecodeD)
		if err != nil {
			return nil, err
		}
	} else {
		rv, err := e.refView(j, meta.RefOrig)
		if err != nil {
			return nil, err
		}
		nv, err := e.Arch.NonRefView(j, orig, rv)
		if err != nil {
			return nil, err
		}
		eSeq, err := nv.ExpandE(rv)
		if err != nil {
			return nil, err
		}
		tf, err := nv.FullTF(rv)
		if err != nil {
			return nil, err
		}
		dFetch := func(k int) (float64, error) {
			for _, f := range nv.DFactors {
				if f.Pos == k {
					return f.RD, nil
				}
			}
			return rv.DecodeD(k)
		}
		pi, err = newLazyPath(e.Arch.Graph, rv.SV, eSeq, tf, numPoints, meta.P, dFetch)
		if err != nil {
			return nil, err
		}
	}
	e.pathsDecoded.Add(1)
	if !e.DisableCache {
		e.paths.Add(k, pi)
	}
	return pi, nil
}

// bracket finds i with T[i] <= t <= T[i+1] using the temporal index and a
// partial decode from t.pos; ok is false when t is outside the trajectory,
// and err reports a temporal index or time stream that fails to decode.
func (e *Engine) bracket(j int, t int64) (i int, ti, ti1 int64, ok bool, err error) {
	entry, found, err := e.findTemporal(j, t)
	if !found {
		return 0, 0, 0, false, err
	}
	rec := e.Arch.Trajs[j]
	if entry.Pos < 0 {
		// The entry is the final timestamp.
		if entry.Start == t {
			return int(entry.No), t, t, true, nil
		}
		return 0, 0, 0, false, nil
	}
	var cur core.TimeCursor
	if err := rec.ResetTimeCursor(&cur, e.Arch.Opts.Ts, int(entry.Pos), entry.Start, int(entry.No)); err != nil {
		return 0, 0, 0, false, err
	}
	prevT := cur.T()
	prevI := cur.Index()
	for cur.Next() {
		if cur.T() >= t {
			return prevI, prevT, cur.T(), true, nil
		}
		prevT = cur.T()
		prevI = cur.Index()
	}
	if prevT == t {
		return prevI, prevT, prevT, true, nil
	}
	return 0, 0, 0, false, nil
}

// timeAt partially decodes T[k] (and T[k+1] when wantNext) by resuming at
// the nearest temporal entry.
func (e *Engine) timeAt(j, k int, wantNext bool) (tk, tk1 int64, err error) {
	entry, found := e.Ix.FindTemporalByNo(j, k)
	if !found {
		return 0, 0, fmt.Errorf("query: no temporal entry for point %d", k)
	}
	rec := e.Arch.Trajs[j]
	if int(entry.No) == k && !wantNext {
		return entry.Start, 0, nil
	}
	if entry.Pos < 0 {
		if int(entry.No) == k {
			return entry.Start, entry.Start, nil
		}
		return 0, 0, fmt.Errorf("query: point %d beyond time stream", k)
	}
	var cur core.TimeCursor
	if err := rec.ResetTimeCursor(&cur, e.Arch.Opts.Ts, int(entry.Pos), entry.Start, int(entry.No)); err != nil {
		return 0, 0, err
	}
	for cur.Index() < k {
		if !cur.Next() {
			return 0, 0, fmt.Errorf("query: point %d beyond time stream", k)
		}
	}
	tk = cur.T()
	tk1 = tk
	if wantNext && cur.Next() {
		tk1 = cur.T()
	}
	return tk, tk1, nil
}

// Where implements the probabilistic where query (Definition 10): the
// locations at time t of the instances with probability >= alpha.
func (e *Engine) Where(j int, t int64, alpha float64) ([]WhereResult, error) {
	i, ti, ti1, ok, err := e.bracket(j, t)
	if !ok {
		return nil, err
	}
	rec := e.Arch.Trajs[j]
	var out []WhereResult
	for orig := range rec.Insts {
		p := rec.Insts[orig].P
		if p < alpha {
			e.instancesSkipped.Add(1)
			continue
		}
		pi, err := e.path(j, orig)
		if err != nil {
			return nil, err
		}
		loc, err := pi.locationAt(i, ti, ti1, t)
		if err != nil {
			return nil, err
		}
		out = append(out, WhereResult{Inst: orig, P: p, Loc: loc})
	}
	return out, nil
}

// When implements the probabilistic when query (Definition 11): the times
// at which instances with probability >= alpha passed the location.
func (e *Engine) When(j int, loc roadnet.Position, alpha float64) ([]WhenResult, error) {
	return e.AppendWhen(nil, j, loc, alpha)
}

// AppendWhen appends the when-query results to dst and returns the
// extended slice.  Callers that recycle dst across queries pay zero
// steady-state allocations; the appended window is sorted by (Inst, T),
// entries before it are untouched.
func (e *Engine) AppendWhen(dst []WhenResult, j int, loc roadnet.Position, alpha float64) ([]WhenResult, error) {
	g := e.Arch.Graph
	x, y := g.Coords(loc)
	re := e.Ix.Grid.CellOf(x, y)
	bucket, err := e.Ix.TrajRegion(j, re)
	if err != nil {
		return dst, err
	}
	if bucket == nil && !e.DisablePruning {
		return dst, nil // no instance of this trajectory enters the region
	}
	rec := e.Arch.Trajs[j]

	// Group-level filtering: Lemma 1 skips reconstructing a reference's
	// non-references when every tuple's pmax < alpha.  Plans live in flat
	// epoch-stamped scratch indexed by the group's reference orig.
	sc := e.getWhenScratch()
	defer e.putWhenScratch(sc)
	sc.epoch++
	off := e.instOffset[j]
	if e.DisablePruning {
		for orig := range rec.Insts {
			gk := orig
			if meta := &rec.Insts[orig]; !meta.IsRef {
				gk = meta.RefOrig
			}
			sc.pstamp[off+gk] = sc.epoch
			sc.plan[off+gk] = planRef | planNonRefs
		}
	} else {
		for i := range bucket.Refs {
			rt := &bucket.Refs[i]
			gi := off + int(rt.Orig)
			if sc.pstamp[gi] != sc.epoch {
				sc.pstamp[gi] = sc.epoch
				sc.plan[gi] = 0
			}
			if rt.FV != roadnet.NoVertex && rec.Insts[rt.Orig].P >= alpha {
				sc.plan[gi] |= planRef
			}
			if float64(rt.PMax) >= alpha {
				sc.plan[gi] |= planNonRefs // Lemma 1 does not apply
			}
		}
	}

	// Group keys are always reference origs, so a single ascending pass
	// over the instances visits every stamped plan deterministically.
	n0 := len(dst)
	for gk := range rec.Insts {
		gi := off + gk
		if sc.pstamp[gi] != sc.epoch {
			continue
		}
		pl := sc.plan[gi]
		if pl&planRef != 0 || e.DisablePruning {
			if dst, err = e.appendWhenInst(dst, sc, j, gk, loc, alpha); err != nil {
				return dst, err
			}
		}
		if pl&planNonRefs != 0 {
			for orig := range rec.Insts {
				if meta := &rec.Insts[orig]; !meta.IsRef && meta.RefOrig == gk {
					if dst, err = e.appendWhenInst(dst, sc, j, orig, loc, alpha); err != nil {
						return dst, err
					}
				}
			}
		} else {
			e.instancesSkipped.Add(1) // Lemma 1 skipped the group's non-refs
		}
	}
	win := dst[n0:]
	slices.SortFunc(win, func(a, b WhenResult) int {
		if a.Inst != b.Inst {
			return a.Inst - b.Inst
		}
		switch {
		case a.T < b.T:
			return -1
		case a.T > b.T:
			return 1
		}
		return 0
	})
	return dst, nil
}

// appendWhenInst appends the passages of one instance through loc.
func (e *Engine) appendWhenInst(dst []WhenResult, sc *whenScratch, j, orig int, loc roadnet.Position, alpha float64) ([]WhenResult, error) {
	p := e.Arch.Trajs[j].Insts[orig].P
	if p < alpha {
		e.instancesSkipped.Add(1)
		return dst, nil
	}
	pi, err := e.path(j, orig)
	if err != nil {
		return dst, err
	}
	sc.passages, err = pi.appendPassagesAt(sc.passages[:0], loc)
	if err != nil {
		return dst, err
	}
	for _, pas := range sc.passages {
		tk, tk1, err := e.timeAt(j, pas.i, true)
		if err != nil {
			return dst, err
		}
		dst = append(dst, WhenResult{
			Inst: orig,
			P:    p,
			T:    tk + int64(pas.frac*float64(tk1-tk)+0.5),
		})
	}
	return dst, nil
}

// Range implements the probabilistic range query (Definition 12): the
// trajectories whose instances inside RE at time t carry total probability
// >= alpha.
func (e *Engine) Range(re roadnet.Rect, t int64, alpha float64) ([]int, error) {
	return e.AppendRange(nil, re, t, alpha)
}

// AppendRange appends the range-query results to dst and returns the
// extended slice; recycling dst across queries avoids the per-query
// result allocation.
func (e *Engine) AppendRange(dst []int, re roadnet.Rect, t int64, alpha float64) ([]int, error) {
	interval := e.Ix.IntervalOf(t)

	// Lemma 4 preparation: one pass over the covering cells' buckets
	// upper-bounds each trajectory's probability mass inside them.  The
	// accumulators are flat epoch-stamped slices from the scratch pool —
	// no per-query maps.
	sc := e.getScratch()
	defer e.putScratch(sc)
	sc.epoch++
	sc.touched = sc.touched[:0]
	cells := e.Ix.Grid.AppendCellsInRect(sc.cells[:0], re)
	sc.cells = cells
	if !e.DisablePruning {
		for _, cell := range cells {
			b, err := e.Ix.Buckets(interval, cell)
			if err != nil {
				return dst, err
			}
			if b == nil {
				continue
			}
			for i := range b.Refs {
				rt := &b.Refs[i]
				gi := e.instOffset[rt.Traj] + int(rt.Orig)
				if sc.gstamp[gi] != sc.epoch {
					sc.gstamp[gi] = sc.epoch
					sc.group[gi] = 0
					sc.touched = append(sc.touched, touchedGroup{traj: rt.Traj, gi: int32(gi)})
				}
				sc.group[gi] += float64(rt.PTotal)
			}
		}
		// Fold group sums (each capped at 1) into per-trajectory bounds.
		for _, tg := range sc.touched {
			v := sc.group[tg.gi]
			if v > 1 {
				v = 1
			}
			if sc.bstamp[tg.traj] != sc.epoch {
				sc.bstamp[tg.traj] = sc.epoch
				sc.bound[tg.traj] = 0
			}
			sc.bound[tg.traj] += v
		}
	}

	cands, err := e.Ix.Candidates(interval)
	if err != nil {
		return dst, err
	}
	for _, j32 := range cands {
		j := int(j32)
		rec := e.Arch.Trajs[j]

		if !e.DisablePruning {
			// Lemma 4: prune when the bound cannot reach alpha.
			bound := 0.0
			if sc.bstamp[j] == sc.epoch {
				bound = sc.bound[j]
			}
			if bound < alpha {
				e.trajsPruned.Add(1)
				continue
			}
		}

		i, ti, ti1, ok, err := e.bracket(j, t)
		if err != nil {
			return dst, err
		}
		if !ok {
			continue
		}

		// Instances in descending probability for early acceptance,
		// precomputed at engine construction.
		confirmed := 0.0
		remaining := e.probSum[j]
		accepted := false
		for _, o32 := range e.probOrder[j] {
			orig := int(o32)
			p := rec.Insts[orig].P
			remaining -= p
			inside, err := e.instanceInside(j, orig, re, i, ti, ti1, t)
			if err != nil {
				return dst, err
			}
			if inside {
				confirmed += p
				if confirmed >= alpha { // Lemma 3
					accepted = true
					if !e.DisablePruning {
						e.trajsAccepted.Add(1)
					}
					break
				}
			}
			if !e.DisablePruning && confirmed+remaining < alpha {
				break // cannot reach alpha anymore
			}
		}
		if !accepted && confirmed >= alpha {
			accepted = true
		}
		if accepted {
			dst = append(dst, j)
		}
	}
	return dst, nil
}

// instanceInside tests whether the instance overlaps RE at time t, using
// Lemma 2 on the subpath between the bracketing points before falling back
// to exact interpolation.
func (e *Engine) instanceInside(j, orig int, re roadnet.Rect, i int, ti, ti1, t int64) (bool, error) {
	g := e.Arch.Graph
	pi, err := e.path(j, orig)
	if err != nil {
		return false, err
	}
	if i >= len(pi.PointEdge) {
		return false, nil
	}
	k0 := pi.PointEdge[i]
	k1 := k0
	if i+1 < len(pi.PointEdge) {
		k1 = pi.PointEdge[i+1]
	}
	if !e.DisablePruning {
		allIn, anyTouch := true, false
		for k := k0; k <= k1; k++ {
			edge := g.Edge(pi.Edges[k])
			a, b := g.Vertex(edge.From), g.Vertex(edge.To)
			in := re.Contains(a.X, a.Y) && re.Contains(b.X, b.Y)
			touch := re.IntersectsSegment(a.X, a.Y, b.X, b.Y)
			allIn = allIn && in
			anyTouch = anyTouch || touch
		}
		if allIn {
			return true, nil // Lemma 2(i): sp ⊆ RE
		}
		if !anyTouch {
			return false, nil // Lemma 2(ii): sp ∩ RE = ∅
		}
	}
	loc, err := pi.locationAt(i, ti, ti1, t)
	if err != nil {
		return false, err
	}
	x, y := g.Coords(loc)
	return re.Contains(x, y), nil
}
