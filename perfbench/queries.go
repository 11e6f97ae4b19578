package main

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"sort"

	"utcq/internal/roadnet"
	"utcq/internal/store"
	"utcq/internal/traj"
	"utcq/pkg/client"
)

// queryGen draws queries over a corpus from one seeded source.
type queryGen struct {
	rng    *rand.Rand
	g      *roadnet.Graph
	tus    []*traj.Uncertain
	alpha  float64
	tMin   int64
	tMax   int64
	bounds roadnet.Rect
}

func newQueryGen(seed int64, g *roadnet.Graph, tus []*traj.Uncertain, alpha float64) *queryGen {
	qg := &queryGen{rng: rand.New(rand.NewSource(seed)), g: g, tus: tus, alpha: alpha, bounds: g.Bounds()}
	qg.tMin, qg.tMax = tus[0].T[0], tus[0].T[0]
	for _, u := range tus {
		qg.tMin = min(qg.tMin, u.T[0])
		qg.tMax = max(qg.tMax, u.T[len(u.T)-1])
	}
	return qg
}

// timeIn draws a time inside trajectory j's own span, so answers are
// mostly non-empty.
func (qg *queryGen) timeIn(u *traj.Uncertain) int64 {
	lo, hi := u.T[0], u.T[len(u.T)-1]
	return lo + qg.rng.Int63n(hi-lo+1)
}

func (qg *queryGen) where(j int) client.BatchQuery {
	return client.BatchQuery{Kind: "where", Where: &client.WhereRequest{Traj: j, T: qg.timeIn(qg.tus[j]), Alpha: qg.alpha}}
}

// when asks when trajectory j passed one of its own instances' mapped
// locations.
func (qg *queryGen) when(j int) client.BatchQuery {
	u := qg.tus[j]
	ins := &u.Instances[qg.rng.Intn(len(u.Instances))]
	locs, err := ins.Locations(qg.g, u.T)
	loc := client.Position{}
	if err == nil && len(locs) > 0 {
		l := locs[qg.rng.Intn(len(locs))].Pos
		loc = client.Position{Edge: int(l.Edge), NDist: l.NDist}
	}
	return client.BatchQuery{Kind: "when", When: &client.WhenRequest{Traj: j, Loc: loc, Alpha: qg.alpha}}
}

// rangeAt draws loadgen's rectangle shape: 5-40% of each axis of the
// network, anywhere inside it, at time t.
func (qg *queryGen) rangeAt(t int64) client.BatchQuery {
	b := qg.bounds
	w, h := b.MaxX-b.MinX, b.MaxY-b.MinY
	fw, fh := 0.05+qg.rng.Float64()*0.35, 0.05+qg.rng.Float64()*0.35
	x := b.MinX + qg.rng.Float64()*(1-fw)*w
	y := b.MinY + qg.rng.Float64()*(1-fh)*h
	return client.BatchQuery{Kind: "range", Range: &client.RangeRequest{
		Rect: client.Rect{MinX: x, MinY: y, MaxX: x + fw*w, MaxY: y + fh*h}, T: t, Alpha: qg.alpha}}
}

// rangeUniform draws a range query at a time uniform over the corpus span.
func (qg *queryGen) rangeUniform() client.BatchQuery {
	return qg.rangeAt(qg.tMin + qg.rng.Int63n(qg.tMax-qg.tMin+1))
}

// expected answers q directly from a store snapshot, converted to the
// wire types exactly as the server converts them.
func expected(sn store.Snapshot, g *roadnet.Graph, q client.BatchQuery) (client.BatchResult, error) {
	var out client.BatchResult
	switch q.Kind {
	case "where":
		rs, err := sn.Where(q.Where.Traj, q.Where.T, q.Where.Alpha)
		if err != nil {
			return out, err
		}
		for _, r := range rs {
			x, y := g.Coords(r.Loc)
			out.Where = append(out.Where, client.WhereResult{Inst: r.Inst, P: r.P, Edge: int(r.Loc.Edge), NDist: r.Loc.NDist, X: x, Y: y})
		}
	case "when":
		loc := roadnet.Position{Edge: roadnet.EdgeID(q.When.Loc.Edge), NDist: q.When.Loc.NDist}
		rs, err := sn.When(q.When.Traj, loc, q.When.Alpha)
		if err != nil {
			return out, err
		}
		for _, r := range rs {
			out.When = append(out.When, client.WhenResult{Inst: r.Inst, P: r.P, T: r.T})
		}
	case "range":
		rc := q.Range.Rect
		trajs, err := sn.Range(roadnet.Rect{MinX: rc.MinX, MinY: rc.MinY, MaxX: rc.MaxX, MaxY: rc.MaxY}, q.Range.T, q.Range.Alpha)
		if err != nil {
			return out, err
		}
		out.Trajs = trajs
	default:
		return out, fmt.Errorf("unknown query kind %q", q.Kind)
	}
	return out, nil
}

// oracle answers a query directly from the stores, without HTTP.
type oracle func(q client.BatchQuery) (client.BatchResult, error)

// storeOracle answers from one store's current snapshot.
func storeOracle(st *store.Store) oracle {
	return func(q client.BatchQuery) (client.BatchResult, error) {
		return expected(st.Snapshot(), st.Graph(), q)
	}
}

// membersOracle answers a global-id query from the cluster members'
// stores directly: where/when on the owner with its local id, range on
// every member with local ids translated back and merged.
func membersOracle(ms []*member) oracle {
	owner := map[int][2]int{}
	for i, m := range ms {
		for local, gid := range m.gid {
			owner[gid] = [2]int{i, local}
		}
	}
	return func(q client.BatchQuery) (client.BatchResult, error) {
		switch q.Kind {
		case "where", "when":
			gid := 0
			if q.Where != nil {
				gid = q.Where.Traj
			} else {
				gid = q.When.Traj
			}
			o, ok := owner[gid]
			if !ok {
				return client.BatchResult{}, fmt.Errorf("trajectory %d has no owner", gid)
			}
			lq := q
			if q.Where != nil {
				w := *q.Where
				w.Traj = o[1]
				lq.Where = &w
			} else {
				w := *q.When
				w.Traj = o[1]
				lq.When = &w
			}
			st := ms[o[0]].st
			return expected(st.Snapshot(), st.Graph(), lq)
		default:
			var out client.BatchResult
			for _, m := range ms {
				r, err := expected(m.st.Snapshot(), m.st.Graph(), q)
				if err != nil {
					return out, err
				}
				for _, l := range r.Trajs {
					out.Trajs = append(out.Trajs, m.gid[l])
				}
			}
			sort.Ints(out.Trajs)
			return out, nil
		}
	}
}

// normalize maps empty result slices to nil so an answer that crossed the
// wire compares equal to one computed in process.
func normalize(r client.BatchResult) client.BatchResult {
	if len(r.Where) == 0 {
		r.Where = nil
	}
	if len(r.When) == 0 {
		r.When = nil
	}
	if len(r.Trajs) == 0 {
		r.Trajs = nil
	}
	r.Degraded, r.Error, r.Code = false, "", ""
	return r
}

// viaHTTP answers a request's queries through the client.
func viaHTTP(ctx context.Context, c *client.Client, r request) ([]client.BatchResult, error) {
	if r.batch != nil {
		rs, err := c.Batch(ctx, client.BatchRequest{Queries: r.batch})
		if err != nil {
			return nil, err
		}
		for i, br := range rs {
			if br.Error != "" || br.Degraded {
				return nil, fmt.Errorf("batch query %d: %s (degraded %v)", i, br.Error, br.Degraded)
			}
		}
		return rs, nil
	}
	var out client.BatchResult
	var err error
	switch r.q.Kind {
	case "where":
		out.Where, err = c.Where(ctx, *r.q.Where)
	case "when":
		out.When, err = c.When(ctx, *r.q.When)
	case "range":
		var rr client.RangeResult
		rr, err = c.Range(ctx, *r.q.Range)
		if err == nil && rr.Degraded {
			err = fmt.Errorf("degraded range answer")
		}
		out.Trajs = rr.Trajs
	}
	return []client.BatchResult{out}, err
}

// gate checks that every query of the sample answers over HTTP exactly as
// the oracle answers it directly.  It returns the number of queries
// compared, and an error naming the first mismatch.
func gate(ctx context.Context, c *client.Client, want oracle, sample []request) (int, error) {
	n, nonEmpty := 0, 0
	for _, r := range sample {
		got, err := viaHTTP(ctx, c, r)
		if err != nil {
			return n, fmt.Errorf("gate: %s over HTTP: %w", r.kind(), err)
		}
		qs := r.batch
		if qs == nil {
			qs = []client.BatchQuery{r.q}
		}
		for i, q := range qs {
			exp, err := want(q)
			if err != nil {
				return n, fmt.Errorf("gate: %s directly: %w", q.Kind, err)
			}
			g, e := normalize(got[i]), normalize(exp)
			if !reflect.DeepEqual(g, e) {
				return n, fmt.Errorf("gate: %s query %+v answered %+v over HTTP, %+v directly", q.Kind, queryBody(q), g, e)
			}
			if g.Where != nil || g.When != nil || g.Trajs != nil {
				nonEmpty++
			}
			n++
		}
	}
	if n > 0 && nonEmpty == 0 {
		return n, fmt.Errorf("gate: all %d sampled answers are empty; the comparison proves nothing", n)
	}
	return n, nil
}

func queryBody(q client.BatchQuery) any {
	switch {
	case q.Where != nil:
		return *q.Where
	case q.When != nil:
		return *q.When
	case q.Range != nil:
		return *q.Range
	}
	return q
}
