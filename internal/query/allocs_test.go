package query

import (
	"math/rand"
	"testing"

	"utcq/internal/core"
	"utcq/internal/gen"
	"utcq/internal/roadnet"
	"utcq/internal/stiu"
)

// whenWorkload is a fixed set of when queries that hit populated buckets,
// shared by the allocation assertion and the benchmark.
type whenWorkload struct {
	eng  *Engine
	js   []int
	locs []roadnet.Position
}

// succinct selects an index decoded from its sidecar bytes instead of
// the built one, so the assertion covers both provenances.
func buildWhenWorkload(tb testing.TB, succinct bool) *whenWorkload {
	tb.Helper()
	p := gen.CD()
	p.Network.Cols, p.Network.Rows = 24, 24
	ds, err := gen.Build(p, 60, 7)
	if err != nil {
		tb.Fatal(err)
	}
	opts := core.DefaultOptions(p.Ts)
	c, err := core.NewCompressor(ds.Graph, opts)
	if err != nil {
		tb.Fatal(err)
	}
	a, err := c.Compress(ds.Trajectories)
	if err != nil {
		tb.Fatal(err)
	}
	ix, err := stiu.Build(a, stiu.Options{GridNX: 16, GridNY: 16, IntervalDur: 1800})
	if err != nil {
		tb.Fatal(err)
	}
	if succinct {
		ix, err = stiu.DecodeSidecar(ix.EncodeSidecar(1), a.Graph, len(a.Trajs), 1, stiu.Options{GridNX: 16, GridNY: 16, IntervalDur: 1800})
		if err != nil {
			tb.Fatal(err)
		}
	}
	w := &whenWorkload{eng: NewEngine(a, ix)}
	oracle := NewOracle(ds.Graph, ds.Trajectories)
	rng := rand.New(rand.NewSource(3))
	for len(w.js) < 32 {
		j := rng.Intn(len(ds.Trajectories))
		pi, err := oracle.path(j, rng.Intn(len(ds.Trajectories[j].Instances)))
		if err != nil {
			tb.Fatal(err)
		}
		edge := pi.Edges[rng.Intn(len(pi.Edges))]
		w.js = append(w.js, j)
		w.locs = append(w.locs, ds.Graph.PositionAtRD(edge, rng.Float64()))
	}
	return w
}

func (w *whenWorkload) run(dst []WhenResult) ([]WhenResult, error) {
	var err error
	for i, j := range w.js {
		dst, err = w.eng.AppendWhen(dst[:0], j, w.locs[i], 0.05)
		if err != nil {
			return dst, err
		}
	}
	return dst, nil
}

// TestAppendWhenAllocationFree asserts the ISSUE's when-path target: with
// a recycled result buffer and warm caches, AppendWhen performs zero
// allocations per query, matching Where.
func TestAppendWhenAllocationFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	for _, tc := range []struct {
		name     string
		succinct bool
	}{
		{"built", false},
		{"v2sidecar", true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w := buildWhenWorkload(t, tc.succinct)
			buf, err := w.run(nil) // warm path/ref caches and the scratch pool
			if err != nil {
				t.Fatal(err)
			}
			allocs := testing.AllocsPerRun(20, func() {
				var err error
				buf, err = w.run(buf)
				if err != nil {
					t.Fatal(err)
				}
			})
			if allocs != 0 {
				t.Fatalf("AppendWhen allocates %.1f times per %d queries, want 0", allocs, len(w.js))
			}
		})
	}
}

func BenchmarkQueryWhen(b *testing.B) {
	w := buildWhenWorkload(b, false)
	buf, err := w.run(nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf, err = w.run(buf)
		if err != nil {
			b.Fatal(err)
		}
	}
}
