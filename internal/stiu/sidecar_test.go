package stiu

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"utcq/internal/core"
	"utcq/internal/gen"
	"utcq/internal/roadnet"
)

func buildGeneratedIndex(t *testing.T, opts Options) (*core.Archive, *Index) {
	t.Helper()
	p := gen.CD()
	p.Network.Cols, p.Network.Rows = 20, 20
	ds, err := gen.Build(p, 40, 11)
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
	ix, err := Build(a, opts)
	if err != nil {
		t.Fatal(err)
	}
	return a, ix
}

// forEachBucket calls fn on every occupied (interval, region) bucket,
// probing each grid cell through Buckets.
func forEachBucket(t *testing.T, ix *Index, fn func(id int, re roadnet.RegionID, b *RegionBucket)) {
	t.Helper()
	for _, id := range ix.IntervalIDs() {
		for re := roadnet.RegionID(0); int(re) < ix.Grid.NumRegions(); re++ {
			b, err := ix.Buckets(id, re)
			if err != nil {
				t.Fatal(err)
			}
			if b != nil {
				fn(id, re, b)
			}
		}
	}
}

// touchAll drives every accessor over the whole index — temporal
// sections, candidate sets, interval and trajectory-region buckets — and
// returns the first error.  Hostile layouts must fail here, never panic.
func touchAll(ix *Index) error {
	for j := range ix.temporal {
		if _, err := ix.TemporalEntries(j); err != nil {
			return err
		}
		for re := roadnet.RegionID(0); int(re) < ix.Grid.NumRegions(); re++ {
			if _, err := ix.TrajRegion(j, re); err != nil {
				return err
			}
		}
	}
	for _, id := range ix.IntervalIDs() {
		if _, err := ix.Candidates(id); err != nil {
			return err
		}
		for re := roadnet.RegionID(0); int(re) < ix.Grid.NumRegions(); re++ {
			if _, err := ix.Buckets(id, re); err != nil {
				return err
			}
		}
	}
	return nil
}

// requireSameIndex compares the query-visible state of two indexes
// through the accessors: temporal entries, interval ids and candidate
// sets, and every interval and trajectory-region bucket.
func requireSameIndex(t *testing.T, want, got *Index) {
	t.Helper()
	if len(want.temporal) != len(got.temporal) {
		t.Fatalf("trajectory count %d != %d", len(got.temporal), len(want.temporal))
	}
	ids := want.IntervalIDs()
	if !reflect.DeepEqual(ids, got.IntervalIDs()) {
		t.Fatal("interval ids differ")
	}
	for j := range want.temporal {
		we, err := want.TemporalEntries(j)
		if err != nil {
			t.Fatal(err)
		}
		ge, err := got.TemporalEntries(j)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(we, ge) {
			t.Fatalf("temporal entries of trajectory %d differ", j)
		}
	}
	same := func(what string, probe func(ix *Index, re roadnet.RegionID) (*RegionBucket, error)) {
		t.Helper()
		for re := roadnet.RegionID(0); int(re) < want.Grid.NumRegions(); re++ {
			wb, err := probe(want, re)
			if err != nil {
				t.Fatal(err)
			}
			gb, err := probe(got, re)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(wb, gb) {
				t.Fatalf("%s region %d buckets differ", what, re)
			}
		}
	}
	for _, id := range ids {
		wc, err := want.Candidates(id)
		if err != nil {
			t.Fatal(err)
		}
		gc, err := got.Candidates(id)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(wc, gc) {
			t.Fatalf("interval %d candidate trajs differ", id)
		}
		same(fmt.Sprintf("interval %d", id), func(ix *Index, re roadnet.RegionID) (*RegionBucket, error) {
			return ix.Buckets(id, re)
		})
	}
	for j := range want.temporal {
		same(fmt.Sprintf("trajectory %d", j), func(ix *Index, re roadnet.RegionID) (*RegionBucket, error) {
			return ix.TrajRegion(j, re)
		})
	}
}

func TestSidecarRoundTrip(t *testing.T) {
	opts := Options{GridNX: 16, GridNY: 16, IntervalDur: 1800}
	a, ix := buildGeneratedIndex(t, opts)
	const archiveSize = 123456
	enc := ix.EncodeSidecar(archiveSize)
	if got := binary.LittleEndian.Uint64(enc[sidecarSizeOff:]); got != archiveSize {
		t.Fatalf("encoded archiveSize = %d, want %d", got, archiveSize)
	}
	dec, err := DecodeSidecar(enc, a.Graph, len(a.Trajs), archiveSize, opts)
	if err != nil {
		t.Fatal(err)
	}
	requireSameIndex(t, ix, dec)

	// A decoded index re-encodes byte-identically (it returns its buffer).
	if !bytes.Equal(enc, dec.EncodeSidecar(archiveSize)) {
		t.Fatal("re-encoding a decoded sidecar is not byte-stable")
	}
	// Stamping the archive size copies: the built index keeps size 0 and
	// differs from the stamped encoding in the 8-byte field alone.
	raw := ix.EncodeSidecar(0)
	if got := binary.LittleEndian.Uint64(raw[sidecarSizeOff:]); got != 0 {
		t.Fatalf("built index carries archiveSize %d, want 0", got)
	}
	restamped := bytes.Clone(raw)
	binary.LittleEndian.PutUint64(restamped[sidecarSizeOff:], archiveSize)
	if !bytes.Equal(enc, restamped) {
		t.Fatal("stamped encoding differs beyond the archiveSize field")
	}
	// Encoding the built index twice is deterministic.
	if !bytes.Equal(enc, ix.EncodeSidecar(archiveSize)) {
		t.Fatal("encoding is nondeterministic")
	}
}

// TestSidecarLazyAccess: a fresh decode has decoded no bucket, and each
// point lookup decodes exactly the one bucket it hits, agreeing with the
// built index for every (interval, region) and (traj, region) pair.
func TestSidecarLazyAccess(t *testing.T) {
	opts := Options{GridNX: 16, GridNY: 16, IntervalDur: 1800}
	a, ix := buildGeneratedIndex(t, opts)
	dec, err := DecodeSidecar(ix.EncodeSidecar(1), a.Graph, len(a.Trajs), 1, opts)
	if err != nil {
		t.Fatal(err)
	}
	decoded := int64(0)
	forEachBucket(t, ix, func(id int, re roadnet.RegionID, want *RegionBucket) {
		if got := dec.Stats().RegionBlocksDecoded; got != decoded {
			t.Fatalf("decoded %d buckets before lookup %d, want %d", got, decoded+1, decoded)
		}
		got, err := dec.Buckets(id, re)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("bucket (%d,%d) differs", id, re)
		}
		decoded++
	})
	if decoded == 0 {
		t.Fatal("no occupied buckets in the fixture")
	}
	for j := range ix.temporal {
		for re := roadnet.RegionID(0); int(re) < ix.Grid.NumRegions(); re++ {
			want, err := ix.TrajRegion(j, re)
			if err != nil {
				t.Fatal(err)
			}
			got, err := dec.TrajRegion(j, re)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(want, got) {
				t.Fatalf("trajRegion (%d,%d) differs", j, re)
			}
		}
	}
}

func TestSidecarRejectsMismatch(t *testing.T) {
	opts := Options{GridNX: 16, GridNY: 16, IntervalDur: 1800}
	a, ix := buildGeneratedIndex(t, opts)
	enc := ix.EncodeSidecar(999)
	cases := []struct {
		name string
		run  func() (*Index, error)
	}{
		{"wrong archive size", func() (*Index, error) {
			return DecodeSidecar(enc, a.Graph, len(a.Trajs), 1000, opts)
		}},
		{"wrong traj count", func() (*Index, error) {
			return DecodeSidecar(enc, a.Graph, len(a.Trajs)+1, 999, opts)
		}},
		{"wrong grid", func() (*Index, error) {
			o := opts
			o.GridNX = 8
			return DecodeSidecar(enc, a.Graph, len(a.Trajs), 999, o)
		}},
		{"wrong interval duration", func() (*Index, error) {
			o := opts
			o.IntervalDur = 900
			return DecodeSidecar(enc, a.Graph, len(a.Trajs), 999, o)
		}},
	}
	for _, tc := range cases {
		if _, err := tc.run(); err == nil {
			t.Errorf("%s: decode succeeded, want error", tc.name)
		}
	}
}

// TestSidecarCorruptionIsAnError truncates and bit-flips the encoding at
// every offset: decode (plus touching the whole index when decode
// succeeds) must return an error or a different index, never panic.
func TestSidecarCorruptionIsAnError(t *testing.T) {
	opts := Options{GridNX: 8, GridNY: 8, IntervalDur: 1800}
	a, ix := buildGeneratedIndex(t, opts)
	enc := ix.EncodeSidecar(7)
	for cut := 0; cut < len(enc); cut += 7 {
		if _, err := DecodeSidecar(enc[:cut], a.Graph, len(a.Trajs), 7, opts); err == nil {
			t.Fatalf("truncation at %d decoded cleanly", cut)
		}
	}
	for off := 0; off < len(enc); off += 11 {
		mut := bytes.Clone(enc)
		mut[off] ^= 0x40
		dec, err := DecodeSidecar(mut, a.Graph, len(a.Trajs), 7, opts)
		if err != nil {
			continue
		}
		_ = touchAll(dec) // must not panic; errors are acceptable
	}
}

func TestEFSetRoundTrip(t *testing.T) {
	cases := [][]int32{
		nil,
		{0},
		{5},
		{0, 1, 2, 3, 4},
		{0, 100},
		{3, 17, 17 + 64, 1000, 4095, 4096, 1 << 20},
	}
	for _, vals := range cases {
		enc := appendEFSet(nil, vals)
		r := &sidecarReader{data: enc}
		got, err := r.efSet(1 << 21)
		if err != nil {
			t.Fatalf("%v: %v", vals, err)
		}
		if r.remaining() != 0 {
			t.Fatalf("%v: %d trailing bytes", vals, r.remaining())
		}
		if len(vals) == 0 && len(got) == 0 {
			continue
		}
		if !reflect.DeepEqual(vals, got) {
			t.Fatalf("round trip %v -> %v", vals, got)
		}
	}
}

// TestSidecarVersion1IsRejected: readers accept only version 2, so a
// sidecar whose header says version 1 is an unusable cache — the decode
// error names the version, and the store rebuilds from the archive.
func TestSidecarVersion1IsRejected(t *testing.T) {
	opts := Options{GridNX: 16, GridNY: 16, IntervalDur: 1800}
	a, ix := buildGeneratedIndex(t, opts)
	enc := bytes.Clone(ix.EncodeSidecar(1))
	binary.LittleEndian.PutUint16(enc[4:], 1)
	_, err := DecodeSidecar(enc, a.Graph, len(a.Trajs), 1, opts)
	if err == nil {
		t.Fatal("version-1 sidecar decoded")
	}
	if !strings.Contains(err.Error(), "version 1") {
		t.Fatalf("error %q does not name the version", err)
	}
}

// TestSidecarV2LazyTemporal pins the lazy temporal section: neither
// Build nor a decode touches a temporal section, each section decodes
// exactly once on first touch, and the entries match across the two.
func TestSidecarV2LazyTemporal(t *testing.T) {
	opts := Options{GridNX: 16, GridNY: 16, IntervalDur: 1800}
	a, ix := buildGeneratedIndex(t, opts)
	dec, err := DecodeSidecar(ix.EncodeSidecar(1), a.Graph, len(a.Trajs), 1, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range []*Index{ix, dec} {
		if got := x.Stats().TemporalSectionsForced; got != 0 {
			t.Fatalf("open forced %d temporal sections, want 0", got)
		}
	}
	n := len(a.Trajs)
	for j := 0; j < n; j++ {
		if dec.temporal[j] != nil {
			t.Fatalf("temporal[%d] eagerly decoded", j)
		}
		want, err := ix.TemporalEntries(j)
		if err != nil {
			t.Fatal(err)
		}
		got, err := dec.TemporalEntries(j)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) == 0 || !reflect.DeepEqual(want, got) {
			t.Fatalf("temporal entries for trajectory %d differ", j)
		}
	}
	if got := dec.Stats().TemporalSectionsForced; got != int64(n) {
		t.Fatalf("forced %d sections, want %d", got, n)
	}
	// Warm touches are free: the counter stays put.
	if _, err := dec.TemporalEntries(0); err != nil {
		t.Fatal(err)
	}
	if got := dec.Stats().TemporalSectionsForced; got != int64(n) {
		t.Fatalf("warm touch re-forced a section (%d)", got)
	}
}

// TestSidecarV2SuccinctStats pins the observability counters: pruning an
// unoccupied (interval, region) pair is counted and decodes nothing,
// hitting an occupied pair decodes exactly one block, and the succinct
// directories report a nonzero resident footprint.
func TestSidecarV2SuccinctStats(t *testing.T) {
	opts := Options{GridNX: 16, GridNY: 16, IntervalDur: 1800}
	a, ix := buildGeneratedIndex(t, opts)
	if ix.Stats().SuccinctBytes == 0 {
		t.Fatal("SuccinctBytes = 0 after Build")
	}
	dec, err := DecodeSidecar(ix.EncodeSidecar(1), a.Graph, len(a.Trajs), 1, opts)
	if err != nil {
		t.Fatal(err)
	}
	if dec.Stats().SuccinctBytes == 0 {
		t.Fatal("SuccinctBytes = 0 after decode")
	}

	// Find an occupied pair and an unoccupied region in the same interval.
	id, hit, miss := 0, roadnet.RegionID(-1), roadnet.RegionID(-1)
	for _, iid := range ix.IntervalIDs() {
		hit, miss = -1, -1
		for re := roadnet.RegionID(0); int(re) < opts.GridNX*opts.GridNY; re++ {
			b, err := ix.Buckets(iid, re)
			if err != nil {
				t.Fatal(err)
			}
			if b != nil && hit < 0 {
				hit = re
			} else if b == nil && miss < 0 {
				miss = re
			}
		}
		if hit >= 0 && miss >= 0 {
			id = iid
			break
		}
	}
	if hit < 0 || miss < 0 {
		t.Skip("degenerate fixture: no (hit, miss) pair")
	}

	if b, err := dec.Buckets(id, miss); err != nil || b != nil {
		t.Fatalf("Buckets(miss) = %v, %v", b, err)
	}
	st := dec.Stats()
	if st.RegionPrunedNoTouch != 1 || st.RegionBlocksDecoded != 0 {
		t.Fatalf("after miss: pruned=%d decoded=%d", st.RegionPrunedNoTouch, st.RegionBlocksDecoded)
	}
	if b, err := dec.Buckets(id, hit); err != nil || b == nil {
		t.Fatalf("Buckets(hit) = %v, %v", b, err)
	}
	st = dec.Stats()
	if st.RegionBlocksDecoded != 1 {
		t.Fatalf("after hit: decoded=%d, want 1", st.RegionBlocksDecoded)
	}
	// Warm re-read comes from the pointer cache.
	if _, err := dec.Buckets(id, hit); err != nil {
		t.Fatal(err)
	}
	if st := dec.Stats(); st.RegionBlocksDecoded != 1 {
		t.Fatalf("warm hit re-decoded (%d)", st.RegionBlocksDecoded)
	}
}
