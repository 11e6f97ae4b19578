// Package stiu implements the Spatio-temporal Information based Uncertain
// Trajectory Index of Section 5.2.
//
// The temporal part partitions the day into equal intervals and stores, per
// trajectory and interval, a tuple (t.start, t.no, t.pos): the earliest
// timestamp falling in the interval, its ordinal in T, and the bit position
// in T̂ where decoding can resume (partial decompression).
//
// The spatial part partitions the road network with a uniform grid and
// stores, per interval and region, reference tuples
// (fv.id, fv.no, d.pos, ptotal, pmax) and non-reference tuples
// (rv.id, rv.no, ma.pos), exactly the fields Definition 9 and Section 5.2
// prescribe.  ptotal and pmax drive the filtering Lemmas 1-4.
//
// An index has one representation, built or loaded: the succinct sidecar
// encoding of FORMAT.md §5, queried in place.  Rank bitvectors over the
// grid answer absent (interval, region) and (trajectory, region) probes
// with a bit test; present buckets, candidate sets and temporal sections
// decode on first touch and stay cached.
package stiu

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"

	"utcq/internal/roadnet"
)

// Options control the index granularity (Table 7 defaults: a 64×64 grid
// and 30-minute intervals).
type Options struct {
	GridNX, GridNY int
	IntervalDur    int64 // seconds

	// Parallelism bounds the worker pool used by Build: 1 builds strictly
	// serially, N uses N workers, values below 1 use one worker per CPU.
	// The built index is identical across all settings.
	Parallelism int
}

// DefaultOptions returns the paper's default granularity.
func DefaultOptions() Options {
	return Options{GridNX: 64, GridNY: 64, IntervalDur: 1800}
}

// TemporalEntry is one (t.start, t.no, t.pos) tuple.
type TemporalEntry struct {
	Start int64
	No    int32
	Pos   int32 // bit position of the code of timestamp No+1; -1 at the end
}

// RefTuple is the spatial tuple of a reference w.r.t. one region.
type RefTuple struct {
	Traj int32
	Orig int32
	// FV is the final vertex; NoVertex encodes the paper's fv.id = ∞ case
	// (the reference itself never enters the region).
	FV     roadnet.VertexID
	FVNo   int32 // position of the region-entering edge in E(Ref)
	DPos   int32 // bit position of the d.no-th relative distance code
	PTotal float32
	PMax   float32
}

// NonRefTuple is the spatial tuple of a non-reference w.r.t. one region.
type NonRefTuple struct {
	Traj    int32
	Orig    int32
	RefOrig int32
	RV      roadnet.VertexID
	RVNo    int32 // position of RV's edge in E(Nref)
	MaPos   int32 // bit position of the covering factor in ComE
}

// RegionBucket groups the tuples of one (interval, region) pair.
type RegionBucket struct {
	Refs    []RefTuple
	NonRefs []NonRefTuple
}

// bucketLayout is one succinct bucket group aliasing the sidecar buffer:
// occupancy is a rank bitvector over the grid cells, so a probe of an
// absent region answers with a bit test, and a present region decodes
// just its own bucket into the decoded cache — untouched buckets never
// page in.
type bucketLayout struct {
	occ     bitvec // region occupancy over the grid cells
	offs    []byte // (npop+1) × u32 offsets into buckets
	buckets []byte // concatenated per-region bucket encodings, rank order
	decoded []atomic.Pointer[RegionBucket]
}

// Interval is one time partition: its region buckets plus the encoded
// Elias–Fano set of the trajectories whose time span intersects it,
// decoded into trajs on the interval's first Candidates call.
type Interval struct {
	bucketLayout
	candBytes []byte
	cand      lazyBlock
	trajs     []int32
}

// trajRegions is one trajectory's region layout for the When path's
// Lemma-1 gate, parsed from the trajectory-region directory on the
// trajectory's first touch.
type trajRegions struct {
	hdr lazyBlock
	bucketLayout
}

// lazyBlock guards one lazily decoded sidecar section.  The done flag is
// the lock-free fast path: its release store happens after the decoded
// state is written under mu, so an acquire load observing true also
// observes that state.
type lazyBlock struct {
	done atomic.Bool
	mu   sync.Mutex
	err  error
}

// once runs decode exactly once; every call returns its error.
func (lz *lazyBlock) once(decode func() error) error {
	if lz.done.Load() {
		return lz.err
	}
	lz.mu.Lock()
	defer lz.mu.Unlock()
	if !lz.done.Load() {
		lz.err = decode()
		lz.done.Store(true)
	}
	return lz.err
}

// Index is the StIU index over one archive.
type Index struct {
	Opts Options
	Grid *roadnet.Grid

	// temporal[j] is trajectory j's interval entries sorted by Start, nil
	// until the first touch decodes them from the temporal directory.
	temporal     [][]TemporalEntry
	lazyTemporal []lazyBlock // parallel to temporal
	tempDir      []byte      // (numTrajs+1) × u32 offsets into tempBlob
	tempBlob     []byte

	intervals map[int]*Interval

	// trajRegion[j] aggregates, across intervals, the tuple presence used
	// by the when-query and Lemma 1.
	trajRegion []trajRegions
	trDir      []byte // (numTrajs+1) × u32 offsets into trBlob
	trBlob     []byte

	// raw is the sidecar encoding the index reads from; the layouts above
	// alias it, and EncodeSidecar returns it.
	raw []byte

	// Observability (Stats): how often the rank/select layer answered
	// without decoding anything vs. how many bucket blocks and temporal
	// sections were actually decoded, plus the resident footprint of the
	// succinct structures themselves.
	regionsDecoded atomic.Int64
	prunedNoTouch  atomic.Int64
	temporalForced atomic.Int64
	succinctBytes  atomic.Int64
}

// IndexStats is a snapshot of the succinct-layer counters.
type IndexStats struct {
	// RegionBlocksDecoded counts (interval,region) and (trajectory,region)
	// buckets materialized from sidecar bytes; RegionPrunedNoTouch counts
	// probes the occupancy bitvectors answered empty without decoding.
	RegionBlocksDecoded int64
	RegionPrunedNoTouch int64
	// TemporalSectionsForced counts per-trajectory temporal sections
	// decoded on first touch (always 0 right after Build or a decode).
	TemporalSectionsForced int64
	// SuccinctBytes is the resident footprint of the rank/select
	// directories (bitvector words + superblocks + offset tables).
	SuccinctBytes int64
}

// Stats returns the succinct-layer counters.  Safe to call concurrently
// with queries.
func (ix *Index) Stats() IndexStats {
	return IndexStats{
		RegionBlocksDecoded:    ix.regionsDecoded.Load(),
		RegionPrunedNoTouch:    ix.prunedNoTouch.Load(),
		TemporalSectionsForced: ix.temporalForced.Load(),
		SuccinctBytes:          ix.succinctBytes.Load(),
	}
}

// IntervalOf returns the time-partition id of t.
func (ix *Index) IntervalOf(t int64) int { return int(t / ix.Opts.IntervalDur) }

// IntervalIDs returns the ids of the non-empty intervals in ascending
// order.
func (ix *Index) IntervalIDs() []int {
	ids := make([]int, 0, len(ix.intervals))
	for id := range ix.intervals {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	return ids
}

// TemporalEntries returns trajectory j's interval entries, decoding its
// temporal section on first touch.  Warm calls are a single atomic load
// and never allocate.
func (ix *Index) TemporalEntries(j int) ([]TemporalEntry, error) {
	if lz := &ix.lazyTemporal[j]; !lz.done.Load() || lz.err != nil {
		if err := lz.once(func() error { return ix.decodeTemporal(j) }); err != nil {
			return nil, err
		}
	}
	return ix.temporal[j], nil
}

// decodeTemporal decodes trajectory j's temporal section from the offset
// directory.
func (ix *Index) decodeTemporal(j int) error {
	lo := int(binary.LittleEndian.Uint32(ix.tempDir[4*j:]))
	hi := int(binary.LittleEndian.Uint32(ix.tempDir[4*j+4:]))
	if lo > hi || hi > len(ix.tempBlob) {
		return fmt.Errorf("stiu: temporal directory [%d,%d) overflows blob of %d bytes", lo, hi, len(ix.tempBlob))
	}
	r := &sidecarReader{data: ix.tempBlob[lo:hi:hi]}
	entries, err := decodeTemporalEntries(r)
	if err == nil && r.remaining() != 0 {
		err = fmt.Errorf("temporal section has %d trailing bytes", r.remaining())
	}
	if err != nil {
		return fmt.Errorf("stiu: sidecar temporal[%d]: %w", j, err)
	}
	ix.temporal[j] = entries
	ix.temporalForced.Add(1)
	return nil
}

// FindTemporal returns trajectory j's entry with the greatest Start <= t
// (the binary search of Example 3).
func (ix *Index) FindTemporal(j int, t int64) (TemporalEntry, bool) {
	entries, err := ix.TemporalEntries(j)
	if err != nil {
		return TemporalEntry{}, false
	}
	lo := sort.Search(len(entries), func(i int) bool { return entries[i].Start > t })
	if lo == 0 {
		return TemporalEntry{}, false
	}
	return entries[lo-1], true
}

// FindTemporalByNo returns trajectory j's entry with the greatest No <= k,
// used to resume timestamp decoding near point index k.
func (ix *Index) FindTemporalByNo(j, k int) (TemporalEntry, bool) {
	entries, err := ix.TemporalEntries(j)
	if err != nil {
		return TemporalEntry{}, false
	}
	lo := sort.Search(len(entries), func(i int) bool { return int(entries[i].No) > k })
	if lo == 0 {
		return TemporalEntry{}, false
	}
	return entries[lo-1], true
}

// Buckets returns the bucket of (interval, region), or nil.  An absent
// region answers from the occupancy bitvector without decoding anything;
// a present region decodes only its own bucket (cached behind an atomic
// pointer).  The only error source is a corrupt bucket encoding.
func (ix *Index) Buckets(interval int, re roadnet.RegionID) (*RegionBucket, error) {
	iv := ix.intervals[interval]
	if iv == nil {
		return nil, nil
	}
	return ix.probe(&iv.bucketLayout, re)
}

// TrajRegion returns the aggregated bucket of trajectory j and region re.
// The trajectory's bitvector answers absent regions without decoding,
// giving the When path's Lemma-1 gate a zero-cost miss.
func (ix *Index) TrajRegion(j int, re roadnet.RegionID) (*RegionBucket, error) {
	if tr := &ix.trajRegion[j]; !tr.hdr.done.Load() || tr.hdr.err != nil {
		if err := tr.hdr.once(func() error { return ix.parseTrajRegions(j) }); err != nil {
			return nil, err
		}
	}
	return ix.probe(&ix.trajRegion[j].bucketLayout, re)
}

// probe looks up region re in one layout, decoding and publishing the
// bucket on its first hit.  Concurrent decoders may duplicate the work;
// both results are identical and the last store wins.
func (ix *Index) probe(l *bucketLayout, re roadnet.RegionID) (*RegionBucket, error) {
	if re < 0 || int(re) >= l.occ.nbits || !l.occ.get(int(re)) {
		ix.prunedNoTouch.Add(1)
		return nil, nil
	}
	k := l.occ.rank1(int(re))
	if b := l.decoded[k].Load(); b != nil {
		return b, nil
	}
	lo := int(binary.LittleEndian.Uint32(l.offs[4*k:]))
	hi := int(binary.LittleEndian.Uint32(l.offs[4*k+4:]))
	if lo > hi || hi > len(l.buckets) {
		return nil, fmt.Errorf("stiu: bucket offsets [%d,%d) overflow blob of %d bytes", lo, hi, len(l.buckets))
	}
	b, err := decodeBucket(l.buckets[lo:hi:hi])
	if err != nil {
		return nil, fmt.Errorf("stiu: bucket %d: %w", k, err)
	}
	l.decoded[k].Store(b)
	ix.regionsDecoded.Add(1)
	return b, nil
}

// parseTrajRegions slices trajectory j's region layout (bitvector, offset
// table, bucket blob) out of the trajectory-region directory.  No bucket
// decodes.
func (ix *Index) parseTrajRegions(j int) error {
	lo := int(binary.LittleEndian.Uint32(ix.trDir[4*j:]))
	hi := int(binary.LittleEndian.Uint32(ix.trDir[4*j+4:]))
	if lo > hi || hi > len(ix.trBlob) {
		return fmt.Errorf("stiu: trajRegion directory [%d,%d) overflows blob of %d bytes", lo, hi, len(ix.trBlob))
	}
	r := &sidecarReader{data: ix.trBlob[lo:hi:hi]}
	l, err := r.bucketLayout(ix.Opts.GridNX * ix.Opts.GridNY)
	if err == nil && r.remaining() != 0 {
		err = fmt.Errorf("%d trailing bytes", r.remaining())
	}
	if err != nil {
		return fmt.Errorf("stiu: sidecar trajRegion[%d]: %w", j, err)
	}
	ix.trajRegion[j].bucketLayout = l
	ix.succinctBytes.Add(int64(l.occ.sizeBytes() + len(l.offs)))
	return nil
}

// Candidates returns the trajectories active in the interval, decoding
// its Elias–Fano candidate set on the interval's first touch.
func (ix *Index) Candidates(interval int) ([]int32, error) {
	iv := ix.intervals[interval]
	if iv == nil {
		return nil, nil
	}
	if !iv.cand.done.Load() || iv.cand.err != nil {
		err := iv.cand.once(func() error {
			r := &sidecarReader{data: iv.candBytes}
			trajs, err := r.efSet(len(ix.temporal))
			if err == nil && r.remaining() != 0 {
				err = fmt.Errorf("%d trailing bytes", r.remaining())
			}
			if err != nil {
				return fmt.Errorf("stiu: sidecar interval %d trajs: %w", interval, err)
			}
			iv.trajs = trajs
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	return iv.trajs, nil
}

// Bounds returns a conservative bounding rectangle of the indexed
// geometry: the union of every grid cell occupied in any interval (cells
// cover the full edge geometry, so no position of any instance lies
// outside the union).  An empty index gets an inverted rectangle that
// intersects nothing.
func (ix *Index) Bounds() roadnet.Rect {
	union := make([]uint64, (ix.Opts.GridNX*ix.Opts.GridNY+63)/64)
	for _, iv := range ix.intervals {
		iv.occ.orInto(union)
	}
	out := roadnet.Rect{MinX: 1, MinY: 1, MaxX: 0, MaxY: 0}
	empty := true
	for w, v := range union {
		for ; v != 0; v &= v - 1 {
			cr := ix.Grid.CellRect(roadnet.RegionID(w*64 + bits.TrailingZeros64(v)))
			if empty {
				out, empty = cr, false
				continue
			}
			out.MinX = math.Min(out.MinX, cr.MinX)
			out.MinY = math.Min(out.MinY, cr.MinY)
			out.MaxX = math.Max(out.MaxX, cr.MaxX)
			out.MaxY = math.Max(out.MaxY, cr.MaxY)
		}
	}
	return out
}

// Tuple bit widths used for index size accounting (Fig 9): temporal
// entries store a 17-bit seconds-of-day start, a 12-bit ordinal and a
// 32-bit stream position; spatial tuples store vertex ids, 12-bit
// ordinals, 32-bit positions and 16-bit probability summaries.
const (
	startBits = 17
	noBits    = 12
	posBits   = 32
	probBits  = 16
)

// TemporalSizeBits returns the temporal index size, decoding every
// temporal section.
func (ix *Index) TemporalSizeBits() int64 {
	n := int64(0)
	for j := range ix.temporal {
		entries, err := ix.TemporalEntries(j)
		if err != nil {
			return 0
		}
		n += int64(len(entries)) * (startBits + noBits + posBits)
	}
	return n
}

// SpatialSizeBits returns the spatial index size, given the vertex id
// width of the archive, decoding every interval bucket.
func (ix *Index) SpatialSizeBits(vertexBits int) int64 {
	n := int64(0)
	for id := range ix.intervals {
		for re := 0; re < ix.Opts.GridNX*ix.Opts.GridNY; re++ {
			b, err := ix.Buckets(id, roadnet.RegionID(re))
			if err != nil {
				return 0
			}
			if b == nil {
				continue
			}
			n += int64(len(b.Refs)) * int64(vertexBits+1+noBits+posBits+2*probBits)
			n += int64(len(b.NonRefs)) * int64(vertexBits+noBits+posBits)
		}
	}
	return n
}
