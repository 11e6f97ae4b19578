package query

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"reflect"
	"testing"

	"utcq/internal/core"
	"utcq/internal/gen"
	"utcq/internal/roadnet"
	"utcq/internal/stiu"
)

// succinctVariants builds two engines over the same archive whose StIU
// indexes differ only in provenance: built in memory, and reopened from
// the built index's sidecar bytes.
func succinctVariants(t *testing.T, p gen.Profile, n int, seed int64) (*gen.Dataset, []struct {
	name string
	eng  *Engine
}) {
	t.Helper()
	p.Network.Cols, p.Network.Rows = 24, 24
	ds, err := gen.Build(p, n, seed)
	if err != nil {
		t.Fatal(err)
	}
	c, err := core.NewCompressor(ds.Graph, core.DefaultOptions(p.Ts))
	if err != nil {
		t.Fatal(err)
	}
	a, err := c.Compress(ds.Trajectories)
	if err != nil {
		t.Fatal(err)
	}
	sopts := stiu.Options{GridNX: 16, GridNY: 16, IntervalDur: 1800}
	built, err := stiu.Build(a, sopts)
	if err != nil {
		t.Fatal(err)
	}
	reopened, err := stiu.DecodeSidecar(built.EncodeSidecar(1), a.Graph, len(a.Trajs), 1, sopts)
	if err != nil {
		t.Fatal(err)
	}
	return ds, []struct {
		name string
		eng  *Engine
	}{
		{"built", NewEngine(a, built)},
		{"reopened", NewEngine(a, reopened)},
	}
}

// TestSuccinctPruningEquivalence pins built ≡ reopened on all three
// synthetic road networks: the same query workload must return identical
// results from a built index and from one reopened from its sidecar —
// and take identical pruning decisions, observed through the
// TrajsPruned / InstancesSkipped counters.
func TestSuccinctPruningEquivalence(t *testing.T) {
	profiles := []struct {
		name string
		p    gen.Profile
		seed int64
	}{
		{"DK", gen.DK(), 31},
		{"CD", gen.CD(), 32},
		{"HZ", gen.HZ(), 33},
	}
	for _, pr := range profiles {
		t.Run(pr.name, func(t *testing.T) {
			ds, variants := succinctVariants(t, pr.p, 25, pr.seed)
			oracle := NewOracle(ds.Graph, ds.Trajectories)
			rng := rand.New(rand.NewSource(pr.seed * 7))
			bounds := ds.Graph.Bounds()

			for trial := 0; trial < 80; trial++ {
				j := rng.Intn(len(ds.Trajectories))
				T := ds.Trajectories[j].T
				tq := T[0] + rng.Int63n(T[len(T)-1]-T[0]+1)
				alpha := rng.Float64() * 0.6

				// Where: identical instance sets and positions.
				base, err := variants[0].eng.Where(j, tq, alpha)
				if err != nil {
					t.Fatal(err)
				}
				for _, v := range variants[1:] {
					got, err := v.eng.Where(j, tq, alpha)
					if err != nil {
						t.Fatalf("%s Where: %v", v.name, err)
					}
					if !reflect.DeepEqual(base, got) {
						t.Fatalf("%s Where(%d, %d, %g) diverged", v.name, j, tq, alpha)
					}
				}

				// When: a location the trajectory actually visits.
				inst := rng.Intn(len(ds.Trajectories[j].Instances))
				pi, err := oracle.path(j, inst)
				if err != nil {
					t.Fatal(err)
				}
				edge := pi.Edges[rng.Intn(len(pi.Edges))]
				loc := ds.Graph.PositionAtRD(edge, rng.Float64())
				baseWhen, err := variants[0].eng.When(j, loc, alpha)
				if err != nil {
					t.Fatal(err)
				}
				for _, v := range variants[1:] {
					got, err := v.eng.When(j, loc, alpha)
					if err != nil {
						t.Fatalf("%s When: %v", v.name, err)
					}
					if !reflect.DeepEqual(baseWhen, got) {
						t.Fatalf("%s When(%d, %g) diverged", v.name, j, alpha)
					}
				}

				// Range: random window, shared across variants.
				w := (bounds.MaxX - bounds.MinX) * 0.15
				x := bounds.MinX + rng.Float64()*(bounds.MaxX-bounds.MinX-w)
				y := bounds.MinY + rng.Float64()*(bounds.MaxY-bounds.MinY-w)
				re := roadnet.Rect{MinX: x, MinY: y, MaxX: x + w, MaxY: y + w}
				baseRange, err := variants[0].eng.Range(re, tq, alpha)
				if err != nil {
					t.Fatal(err)
				}
				for _, v := range variants[1:] {
					got, err := v.eng.Range(re, tq, alpha)
					if err != nil {
						t.Fatalf("%s Range: %v", v.name, err)
					}
					if !reflect.DeepEqual(baseRange, got) {
						t.Fatalf("%s Range(%+v, %d, %g) diverged", v.name, re, tq, alpha)
					}
				}
			}

			// Identical answers must come from identical pruning decisions,
			// not compensating errors.
			base := variants[0].eng.Stats()
			if base.TrajsPruned == 0 {
				t.Error("pruning never fired across the workload")
			}
			for _, v := range variants[1:] {
				st := v.eng.Stats()
				if st.TrajsPruned != base.TrajsPruned || st.InstancesSkipped != base.InstancesSkipped {
					t.Fatalf("%s pruning counters (pruned=%d skipped=%d) != built (pruned=%d skipped=%d)",
						v.name, st.TrajsPruned, st.InstancesSkipped, base.TrajsPruned, base.InstancesSkipped)
				}
			}
		})
	}
}

// TestCorruptTemporalSectionIsAnError: a trajectory whose temporal
// section fails to decode must fail Where and any Range that reaches it,
// never answer as if the query time were outside the trajectory.  The
// corruption goes straight into the encoding (no sidecar CRC in the way):
// the section's entry count is raised past its span.
func TestCorruptTemporalSectionIsAnError(t *testing.T) {
	p := gen.CD()
	p.Network.Cols, p.Network.Rows = 24, 24
	ds, err := gen.Build(p, 12, 5)
	if err != nil {
		t.Fatal(err)
	}
	c, err := core.NewCompressor(ds.Graph, core.DefaultOptions(p.Ts))
	if err != nil {
		t.Fatal(err)
	}
	a, err := c.Compress(ds.Trajectories)
	if err != nil {
		t.Fatal(err)
	}
	sopts := stiu.Options{GridNX: 16, GridNY: 16, IntervalDur: 1800}
	built, err := stiu.Build(a, sopts)
	if err != nil {
		t.Fatal(err)
	}
	enc := bytes.Clone(built.EncodeSidecar(1))

	// FORMAT.md §5.1: after the 35-byte header, (numTrajs+1) u32 offsets,
	// then the blob; a section starts with its uvarint entry count.
	const j = 3
	n := len(a.Trajs)
	blob := 35 + 4*(n+1)
	span := blob + int(binary.LittleEndian.Uint32(enc[35+4*j:]))
	if enc[span] >= 0x7f {
		t.Fatalf("fixture: trajectory %d has %d entries", j, enc[span])
	}
	enc[span] = 0x7f
	ix, err := stiu.DecodeSidecar(enc, a.Graph, n, 1, sopts)
	if err != nil {
		t.Fatal(err)
	}
	eng := NewEngine(a, ix)

	T := ds.Trajectories[j].T
	tq := (T[0] + T[len(T)-1]) / 2
	if got, err := eng.Where(j, tq, 0); err == nil {
		t.Fatalf("Where on a corrupt temporal section = %v, nil error", got)
	}
	if got, err := eng.Range(ds.Graph.Bounds(), tq, 0); err == nil {
		t.Fatalf("Range over a corrupt temporal section = %v, nil error", got)
	}
}
