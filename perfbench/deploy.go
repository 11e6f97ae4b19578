package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"utcq/internal/cluster"
	"utcq/internal/gen"
	"utcq/internal/roadnet"
	"utcq/internal/server"
	"utcq/internal/store"
	"utcq/internal/traj"
)

// corpus is a synthesized dataset: the harness's input, never timed as
// part of any layer.
type corpus struct {
	p    gen.Profile
	g    *roadnet.Graph
	eix  *roadnet.EdgeIndex
	tus  []*traj.Uncertain
	genS float64
}

// synthesize builds n uncertain trajectories from seed.  gen.Build is
// serial, so the corpus is made of two halves synthesized concurrently
// from two derived seeds; the network is the profile's deterministic one.
func synthesize(p gen.Profile, n int, seed int64) (*corpus, error) {
	t0 := time.Now()
	halves := [2]int{n / 2, n - n/2}
	var dss [2]*gen.Dataset
	errs := make(chan error, 2)
	for i := range halves {
		go func(i int) {
			var err error
			dss[i], err = gen.Build(p, halves[i], seed*2+int64(i)+1)
			errs <- err
		}(i)
	}
	for range halves {
		if err := <-errs; err != nil {
			return nil, fmt.Errorf("synthesize %s corpus: %w", p.Name, err)
		}
	}
	tus := append(dss[0].Trajectories, dss[1].Trajectories...)
	return &corpus{p: p, g: dss[0].Graph, eix: dss[0].EdgeIndex, tus: tus, genS: time.Since(t0).Seconds()}, nil
}

func (c *corpus) instances() int {
	n := 0
	for _, u := range c.tus {
		n += len(u.Instances)
	}
	return n
}

// buildSaveOpen is the node set-up path: compress and index into shards,
// persist, and reopen lazily from disk (only the manifest is read).
func buildSaveOpen(g *roadnet.Graph, tus []*traj.Uncertain, p gen.Profile, shards int, dir string) (*store.Store, error) {
	opts := store.DefaultOptions(p.Ts)
	opts.NumShards = shards
	st, err := store.Build(g, tus, opts)
	if err != nil {
		return nil, fmt.Errorf("store.Build: %w", err)
	}
	if err := st.Save(dir); err != nil {
		return nil, fmt.Errorf("store.Save: %w", err)
	}
	return store.Open(dir, g, store.OpenOptions{})
}

// endpoint serves one handler on a loopback port.
type endpoint struct {
	url  string
	stop func(context.Context) error
	done chan error
}

// serveNode serves st through server.Server.  Untraced it runs the exact
// Server.Serve path utcqd runs; traced, the same handler sits behind the
// harness's span wrapper.
func serveNode(st *store.Store, opts server.Options, tr *tracer) (*endpoint, error) {
	srv := server.New(st, opts)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	ep := &endpoint{url: "http://" + ln.Addr().String(), done: make(chan error, 1)}
	if tr == nil {
		ep.stop = srv.Shutdown
		go func() { ep.done <- srv.Serve(ln) }()
		return ep, nil
	}
	hs := &http.Server{Handler: tr.wrap("server", srv.Handler()), ReadTimeout: 10 * time.Second, WriteTimeout: 30 * time.Second}
	ep.stop = hs.Shutdown
	go func() { ep.done <- ignoreClosed(hs.Serve(ln)) }()
	return ep, nil
}

// serveRouter serves rt like utcqr (Router.Serve), or behind the span
// wrapper when traced.
func serveRouter(rt *cluster.Router, tr *tracer) (*endpoint, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	ep := &endpoint{url: "http://" + ln.Addr().String(), done: make(chan error, 1)}
	if tr == nil {
		ep.stop = rt.Shutdown
		go func() { ep.done <- rt.Serve(ln) }()
		return ep, nil
	}
	hs := &http.Server{Handler: tr.wrap("cluster", rt.Handler()), ReadTimeout: 10 * time.Second, WriteTimeout: 30 * time.Second}
	ep.stop = func(ctx context.Context) error {
		rt.Close()
		return hs.Shutdown(ctx)
	}
	go func() { ep.done <- ignoreClosed(hs.Serve(ln)) }()
	return ep, nil
}

func ignoreClosed(err error) error {
	if errors.Is(err, http.ErrServerClosed) {
		return nil
	}
	return err
}

// close shuts the endpoint down and waits for its serve loop to return.
func (ep *endpoint) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := ep.stop(ctx)
	if serr := <-ep.done; err == nil {
		err = serr
	}
	return err
}

// member is one in-process cluster node.
type member struct {
	st  *store.Store
	ep  *endpoint
	dir string
	gid []int // local id -> global id
}

// deployment is what a workload serves: one node, or members behind a
// router.  Its URL is the client's target.
type deployment struct {
	url     string
	members []*member // one for a node workload
	router  *cluster.Router
	rep     *endpoint
	closers []func() error // run after the servers stop (the ingester)
}

func (d *deployment) stores() []*store.Store {
	out := make([]*store.Store, len(d.members))
	for i, m := range d.members {
		out[i] = m.st
	}
	return out
}

func (d *deployment) dirs() []string {
	out := make([]string, len(d.members))
	for i, m := range d.members {
		out[i] = m.dir
	}
	return out
}

// close stops the router and every member server, then runs the closers.
func (d *deployment) close() error {
	var first error
	if d.rep != nil {
		first = d.rep.close()
	}
	for _, m := range d.members {
		if err := m.ep.close(); err != nil && first == nil {
			first = err
		}
	}
	for _, c := range d.closers {
		if err := c(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// deployNode builds, saves, reopens and serves one store.
func deployNode(c *corpus, shards int, dir string, tr *tracer) (*deployment, error) {
	st, err := buildSaveOpen(c.g, c.tus, c.p, shards, dir)
	if err != nil {
		return nil, err
	}
	ep, err := serveNode(st, server.Options{}, tr)
	if err != nil {
		return nil, err
	}
	m := &member{st: st, ep: ep, dir: dir}
	return &deployment{url: ep.url, members: []*member{m}}, nil
}

// deployCluster splits the corpus by cluster.Placement over nodes members,
// builds, saves, reopens and serves each, and syncs a router over them.
func deployCluster(c *corpus, nodes, shards int, dir string, tr *tracer) (*deployment, error) {
	names := cluster.NodeNames(nodes)
	place := cluster.NewPlacement(names, cluster.DefaultPartitions, cluster.DefaultVNodes)
	parts := make([][]*traj.Uncertain, nodes)
	gids := make([][]int, nodes)
	for gid, u := range c.tus {
		o := place.Owner(gid)
		parts[o] = append(parts[o], u)
		gids[o] = append(gids[o], gid)
	}
	d := &deployment{}
	var ms []cluster.Member
	for i := range names {
		mdir := filepath.Join(dir, names[i])
		st, err := buildSaveOpen(c.g, parts[i], c.p, shards, mdir)
		if err != nil {
			d.close()
			return nil, err
		}
		ep, err := serveNode(st, server.Options{}, tr)
		if err != nil {
			d.close()
			return nil, err
		}
		d.members = append(d.members, &member{st: st, ep: ep, dir: mdir, gid: gids[i]})
		ms = append(ms, cluster.Member{Name: names[i], URL: ep.url})
	}
	var ropts cluster.RouterOptions
	if tr != nil {
		ropts.HTTPClient = &http.Client{Transport: &transport{t: tr, base: http.DefaultTransport.(*http.Transport).Clone(), record: "cluster.member_call"}}
	}
	rt := cluster.NewRouter(ms, ropts)
	if err := rt.Sync(context.Background()); err != nil {
		d.close()
		return nil, fmt.Errorf("router sync: %w", err)
	}
	rt.Start()
	ep, err := serveRouter(rt, tr)
	if err != nil {
		rt.Close()
		d.close()
		return nil, err
	}
	d.router, d.rep, d.url = rt, ep, ep.url
	return d, nil
}

// openProbe reopens a saved store directory lazily and runs one query
// that touches every shard: the restart-to-serving path.  It returns the
// time of the whole probe.
func openProbe(dir string, g *roadnet.Graph) (time.Duration, error) {
	t0 := time.Now()
	st, err := store.Open(dir, g, store.OpenOptions{})
	if err != nil {
		return 0, err
	}
	if err := touchAll(st, g); err != nil {
		return 0, err
	}
	return time.Since(t0), nil
}

// touchAll runs a small range query at the network's centre.  Hash
// assignment spreads every shard over the whole network, so the query
// opens every shard; shards it did not reach are touched by a where query
// each.
func touchAll(st *store.Store, g *roadnet.Graph) error {
	b := g.Bounds()
	cx, cy := (b.MinX+b.MaxX)/2, (b.MinY+b.MaxY)/2
	w, h := (b.MaxX-b.MinX)/100, (b.MaxY-b.MinY)/100
	lo, hi := st.TimeSpan()
	if _, err := st.Range(roadnet.Rect{MinX: cx - w, MinY: cy - h, MaxX: cx + w, MaxY: cy + h}, (lo+hi)/2, 0.2); err != nil {
		return err
	}
	if st.OpenShards() == st.NumShards() {
		return nil
	}
	for _, j := range onePerShard(st) {
		if _, err := st.Where(j, lo, 0.2); err != nil {
			return err
		}
	}
	return nil
}

// onePerShard returns one trajectory id of every shard.
func onePerShard(st *store.Store) []int {
	seen := map[int]bool{}
	var out []int
	for j := 0; j < st.NumTrajectories() && len(seen) < st.NumShards(); j++ {
		if s := st.ShardOf(j); !seen[s] {
			seen[s] = true
			out = append(out, j)
		}
	}
	return out
}

func removeAll(dirs ...string) {
	for _, d := range dirs {
		_ = os.RemoveAll(d)
	}
}
