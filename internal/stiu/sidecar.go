// Sidecar encoding of the StIU index ("UTCI" version 2, FORMAT.md §5),
// the one representation every index has: Build encodes its maps into it
// and queries the result, and a store persists the same bytes so that
// opening a shard never replays the O(archive) Build walk.
//
// The layout answers Lemma-1/2 pruning straight off the (possibly
// memory-mapped) bytes:
//
//   - a fixed-width u32 offset directory over per-trajectory temporal
//     sections, so decoding a sidecar decodes no temporal entry and
//     trajectory j's section decodes on its first When/FindTemporal touch;
//   - per interval, an Elias–Fano candidate set plus a rank bitvector over
//     the grid's region occupancy and a u32 offset table into individually
//     encoded region buckets, so a Range probe of an absent (interval,
//     region) pair is a bit test and a present pair decodes only its own
//     bucket;
//   - the same bitvector + offset-table shape per trajectory for the
//     When path's Lemma-1 gate, behind a per-trajectory directory.
//
// All directories are fixed-width and verified at decode (monotone span
// checks happen lazily per section), so DecodeSidecar's work is O(header
// + interval count), independent of temporal-entry and tuple counts.
//
// The encoding is deterministic: intervals and regions are emitted in
// ascending id order and tuple slices keep their build order, so two
// builds of one archive encode byte-identically.
package stiu

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"sort"
	"sync/atomic"

	"utcq/internal/bitio"
	"utcq/internal/roadnet"
)

const (
	sidecarMagic   = "UTCI"
	sidecarVersion = 2
	sidecarHdrLen  = 35
	sidecarSizeOff = 27 // offset of the u64 archiveSize header field
)

// ErrSidecarMismatch reports a sidecar that is well-formed but was written
// for a different archive or index geometry.
var ErrSidecarMismatch = fmt.Errorf("stiu: sidecar does not match archive")

// EncodeSidecar returns the index's sidecar bytes bound to an archive of
// archiveSize bytes: the buffer the index reads from, or a copy of it
// with the header's archiveSize field restamped when that differs (a
// built index carries 0).  Callers must not modify the result.
func (ix *Index) EncodeSidecar(archiveSize int64) []byte {
	if int64(binary.LittleEndian.Uint64(ix.raw[sidecarSizeOff:])) == archiveSize {
		return ix.raw
	}
	out := bytes.Clone(ix.raw)
	binary.LittleEndian.PutUint64(out[sidecarSizeOff:], uint64(archiveSize))
	return out
}

// encode serializes the builder's maps with archive size 0.
func (bd *builder) encode() ([]byte, error) {
	buf := make([]byte, 0, 1<<16)
	buf = append(buf, sidecarMagic...)
	buf = binary.LittleEndian.AppendUint16(buf, sidecarVersion)
	buf = append(buf, 0) // flags
	buf = binary.LittleEndian.AppendUint32(buf, uint32(bd.opts.GridNX))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(bd.opts.GridNY))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(bd.opts.IntervalDur))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(bd.temporal)))
	buf = binary.LittleEndian.AppendUint64(buf, 0) // archiveSize
	nbits := bd.opts.GridNX * bd.opts.GridNY

	// Temporal section: (numTrajs+1) u32 offsets, then the blobs.
	var err error
	if buf, err = appendDirectory(buf, len(bd.temporal), func(blob []byte, j int) ([]byte, error) {
		return appendTemporalEntries(blob, bd.temporal[j]), nil
	}); err != nil {
		return nil, fmt.Errorf("stiu: temporal section: %w", err)
	}

	// Interval section, ascending id order.
	ids := make([]int, 0, len(bd.intervals))
	for id := range bd.intervals {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	buf = binary.AppendUvarint(buf, uint64(len(ids)))
	prevID := 0
	for i, id := range ids {
		if i == 0 {
			buf = binary.AppendVarint(buf, int64(id))
		} else {
			buf = binary.AppendUvarint(buf, uint64(id-prevID))
		}
		prevID = id
		iv := bd.intervals[id]
		buf = appendEFSet(buf, iv.trajs)
		if buf, err = appendBucketLayout(buf, nbits, iv.regions); err != nil {
			return nil, fmt.Errorf("stiu: interval %d: %w", id, err)
		}
	}

	// Trajectory-region section: directory + per-trajectory layouts.
	if buf, err = appendDirectory(buf, len(bd.trajRegion), func(blob []byte, j int) ([]byte, error) {
		return appendBucketLayout(blob, nbits, bd.trajRegion[j])
	}); err != nil {
		return nil, fmt.Errorf("stiu: trajRegion section: %w", err)
	}
	return buf, nil
}

// appendTemporalEntries emits one trajectory's temporal section: a
// uvarint count, then (delta-coded start, no, pos) per entry.
func appendTemporalEntries(buf []byte, entries []TemporalEntry) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(entries)))
	prev := int64(0)
	for i, e := range entries {
		if i == 0 {
			buf = binary.AppendVarint(buf, e.Start)
		} else {
			buf = binary.AppendUvarint(buf, uint64(e.Start-prev))
		}
		prev = e.Start
		buf = binary.AppendVarint(buf, int64(e.No))
		buf = binary.AppendVarint(buf, int64(e.Pos))
	}
	return buf
}

// appendDirectory emits n fixed-width u32 offsets plus a terminator over
// the blobs produced by emit, then the concatenated blobs themselves.
func appendDirectory(buf []byte, n int, emit func(blob []byte, i int) ([]byte, error)) ([]byte, error) {
	blob := make([]byte, 0, 1<<12)
	offs := make([]uint32, 1, n+1)
	var err error
	for i := 0; i < n; i++ {
		if blob, err = emit(blob, i); err != nil {
			return nil, err
		}
		if len(blob) > math.MaxUint32 {
			return nil, fmt.Errorf("section exceeds u32 offset space (%d bytes)", len(blob))
		}
		offs = append(offs, uint32(len(blob)))
	}
	for _, o := range offs {
		buf = binary.LittleEndian.AppendUint32(buf, o)
	}
	return append(buf, blob...), nil
}

// appendBucketLayout emits one succinct bucket group: occupancy bitvector
// over nbits regions, (npop+1) u32 offsets, and the concatenated bucket
// encodings in ascending region-id (= rank) order.
func appendBucketLayout(buf []byte, nbits int, m map[roadnet.RegionID]*RegionBucket) ([]byte, error) {
	ids := make([]int32, 0, len(m))
	for id := range m {
		if id < 0 || int(id) >= nbits {
			return nil, fmt.Errorf("region id %d outside %d-cell grid", id, nbits)
		}
		ids = append(ids, int32(id))
	}
	sort.Slice(ids, func(a, b int) bool { return ids[a] < ids[b] })
	buf = appendBitvec(buf, nbits, ids)
	blob := make([]byte, 0, 64*len(ids))
	offs := make([]uint32, 1, len(ids)+1)
	for _, id := range ids {
		blob = appendBucket(blob, m[roadnet.RegionID(id)])
		if len(blob) > math.MaxUint32 {
			return nil, fmt.Errorf("bucket blob exceeds u32 offset space (%d bytes)", len(blob))
		}
		offs = append(offs, uint32(len(blob)))
	}
	for _, o := range offs {
		buf = binary.LittleEndian.AppendUint32(buf, o)
	}
	return append(buf, blob...), nil
}

// directory slices one fixed-width u32 offset directory and the blob it
// spans; per-entry monotonicity is checked lazily on first touch.
func (r *sidecarReader) directory(n int) (dir, blob []byte, err error) {
	dir, err = r.take((n + 1) * 4)
	if err != nil {
		return nil, nil, err
	}
	if binary.LittleEndian.Uint32(dir) != 0 {
		return nil, nil, fmt.Errorf("directory does not start at offset 0")
	}
	blob, err = r.take(int(binary.LittleEndian.Uint32(dir[4*n:])))
	if err != nil {
		return nil, nil, err
	}
	return dir, blob, nil
}

// bucketLayout parses one succinct bucket group: verified bitvector,
// offset table, bucket blob.  Slicing and verification only — buckets
// stay encoded.
func (r *sidecarReader) bucketLayout(universe int) (bucketLayout, error) {
	occ, err := r.bitvec(universe)
	if err != nil {
		return bucketLayout{}, err
	}
	offs, err := r.take((occ.npop + 1) * 4)
	if err != nil {
		return bucketLayout{}, err
	}
	if binary.LittleEndian.Uint32(offs) != 0 {
		return bucketLayout{}, fmt.Errorf("bucket offsets do not start at 0")
	}
	blob, err := r.take(int(binary.LittleEndian.Uint32(offs[4*occ.npop:])))
	if err != nil {
		return bucketLayout{}, err
	}
	return bucketLayout{occ: occ, offs: offs, buckets: blob, decoded: make([]atomic.Pointer[RegionBucket], occ.npop)}, nil
}

// DecodeSidecar returns the index stored in sidecar bytes, parsing only
// the header, the directories and the interval skeleton: temporal
// sections, candidate sets, per-trajectory region layouts and every
// region bucket stay on the buffer until first touch.  The buffer may be
// a read-only memory mapping; the index aliases it, so it must stay valid
// for the index's lifetime.  Any mismatch with the expected geometry or
// archive, and any version but 2, returns an error — callers fall back to
// Build.
func DecodeSidecar(data []byte, g *roadnet.Graph, numTrajs int, archiveSize int64, opts Options) (*Index, error) {
	if len(data) < sidecarHdrLen {
		return nil, fmt.Errorf("stiu: sidecar too short (%d bytes)", len(data))
	}
	if string(data[:4]) != sidecarMagic {
		return nil, fmt.Errorf("stiu: bad sidecar magic %q", data[:4])
	}
	if version := binary.LittleEndian.Uint16(data[4:6]); version != sidecarVersion {
		return nil, fmt.Errorf("stiu: unsupported sidecar version %d (want %d)", version, sidecarVersion)
	}
	if data[6] != 0 {
		return nil, fmt.Errorf("stiu: unsupported sidecar flags %#x", data[6])
	}
	nx := int(binary.LittleEndian.Uint32(data[7:11]))
	ny := int(binary.LittleEndian.Uint32(data[11:15]))
	dur := int64(binary.LittleEndian.Uint64(data[15:23]))
	nt := int(binary.LittleEndian.Uint32(data[23:27]))
	sz := int64(binary.LittleEndian.Uint64(data[sidecarSizeOff:sidecarHdrLen]))
	if nx != opts.GridNX || ny != opts.GridNY || dur != opts.IntervalDur ||
		nt != numTrajs || sz != archiveSize {
		return nil, fmt.Errorf("%w: header (%dx%d dur=%d trajs=%d size=%d), want (%dx%d dur=%d trajs=%d size=%d)",
			ErrSidecarMismatch, nx, ny, dur, nt, sz,
			opts.GridNX, opts.GridNY, opts.IntervalDur, numTrajs, archiveSize)
	}

	ix := &Index{
		Opts:         opts,
		Grid:         roadnet.NewGrid(g, opts.GridNX, opts.GridNY),
		temporal:     make([][]TemporalEntry, numTrajs),
		lazyTemporal: make([]lazyBlock, numTrajs),
		intervals:    make(map[int]*Interval),
		trajRegion:   make([]trajRegions, numTrajs),
		raw:          data,
	}
	r := &sidecarReader{data: data, off: sidecarHdrLen}
	nbits := opts.GridNX * opts.GridNY
	resident := 0

	var err error
	if ix.tempDir, ix.tempBlob, err = r.directory(numTrajs); err != nil {
		return nil, fmt.Errorf("stiu: sidecar temporal directory: %w", err)
	}
	resident += len(ix.tempDir)

	nIv, err := r.intervalCount()
	if err != nil {
		return nil, fmt.Errorf("stiu: sidecar intervals: %w", err)
	}
	prevID := int64(0)
	for i := 0; i < nIv; i++ {
		id, err := r.intervalID(i == 0, &prevID)
		if err != nil {
			return nil, fmt.Errorf("stiu: sidecar intervals: %w", err)
		}
		iv := &Interval{}
		if iv.candBytes, err = r.efSlice(); err != nil {
			return nil, fmt.Errorf("stiu: sidecar interval %d trajs: %w", id, err)
		}
		if iv.bucketLayout, err = r.bucketLayout(nbits); err != nil {
			return nil, fmt.Errorf("stiu: sidecar interval %d regions: %w", id, err)
		}
		resident += iv.occ.sizeBytes() + len(iv.offs)
		ix.intervals[id] = iv
	}

	if ix.trDir, ix.trBlob, err = r.directory(numTrajs); err != nil {
		return nil, fmt.Errorf("stiu: sidecar trajRegion directory: %w", err)
	}
	resident += len(ix.trDir)

	if r.remaining() != 0 {
		return nil, fmt.Errorf("stiu: sidecar has %d trailing bytes", r.remaining())
	}
	ix.succinctBytes.Store(int64(resident))
	return ix, nil
}

// decodeTemporalEntries reads one trajectory's temporal section (count +
// delta-coded entries).
func decodeTemporalEntries(r *sidecarReader) ([]TemporalEntry, error) {
	n, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	if n > uint64(r.remaining()) {
		return nil, fmt.Errorf("count %d overflows buffer", n)
	}
	entries := make([]TemporalEntry, n)
	prev := int64(0)
	for i := range entries {
		var start int64
		if i == 0 {
			start, err = r.varint()
		} else {
			var d uint64
			d, err = r.uvarint()
			start = prev + int64(d)
		}
		if err == nil {
			prev = start
			var no, pos int64
			no, err = r.varint()
			if err == nil {
				pos, err = r.varint()
			}
			entries[i] = TemporalEntry{Start: start, No: int32(no), Pos: int32(pos)}
		}
		if err != nil {
			return nil, err
		}
	}
	return entries, nil
}

// intervalCount reads the interval-section count with an overflow guard.
func (r *sidecarReader) intervalCount() (int, error) {
	n, err := r.uvarint()
	if err != nil {
		return 0, err
	}
	if n > uint64(r.remaining()) {
		return 0, fmt.Errorf("count %d overflows buffer", n)
	}
	return int(n), nil
}

// intervalID decodes the next id of the interleaved ascending interval-id
// stream: a varint for the first interval, uvarint deltas after.
func (r *sidecarReader) intervalID(first bool, prev *int64) (int, error) {
	var id int64
	var err error
	if first {
		id, err = r.varint()
	} else {
		var d uint64
		d, err = r.uvarint()
		id = *prev + int64(d)
	}
	if err != nil {
		return 0, err
	}
	*prev = id
	return int(id), nil
}

// appendBucket emits one region bucket (refs then non-refs), the unit the
// bucket layout addresses individually through its offset tables.
func appendBucket(buf []byte, b *RegionBucket) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(b.Refs)))
	for _, rt := range b.Refs {
		buf = binary.AppendVarint(buf, int64(rt.Traj))
		buf = binary.AppendVarint(buf, int64(rt.Orig))
		buf = binary.AppendVarint(buf, int64(rt.FV))
		buf = binary.AppendVarint(buf, int64(rt.FVNo))
		buf = binary.AppendVarint(buf, int64(rt.DPos))
		buf = binary.LittleEndian.AppendUint32(buf, math.Float32bits(rt.PTotal))
		buf = binary.LittleEndian.AppendUint32(buf, math.Float32bits(rt.PMax))
	}
	buf = binary.AppendUvarint(buf, uint64(len(b.NonRefs)))
	for _, nt := range b.NonRefs {
		buf = binary.AppendVarint(buf, int64(nt.Traj))
		buf = binary.AppendVarint(buf, int64(nt.Orig))
		buf = binary.AppendVarint(buf, int64(nt.RefOrig))
		buf = binary.AppendVarint(buf, int64(nt.RV))
		buf = binary.AppendVarint(buf, int64(nt.RVNo))
		buf = binary.AppendVarint(buf, int64(nt.MaPos))
	}
	return buf
}

// decodeBucket decodes one region bucket from exactly data.
func decodeBucket(data []byte) (*RegionBucket, error) {
	r := &sidecarReader{data: data}
	b, err := r.bucket()
	if err != nil {
		return nil, err
	}
	if r.remaining() != 0 {
		return nil, fmt.Errorf("bucket has %d trailing bytes", r.remaining())
	}
	return b, nil
}

// bucket decodes one region bucket at the reader's position.
func (r *sidecarReader) bucket() (*RegionBucket, error) {
	b := &RegionBucket{}
	nr, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	if nr > uint64(r.remaining()) {
		return nil, fmt.Errorf("ref count %d overflows block", nr)
	}
	if nr > 0 {
		b.Refs = make([]RefTuple, nr)
	}
	for k := range b.Refs {
		var traj, orig, fv, fvNo, dPos int64
		var pt, pm uint32
		if traj, err = r.varint(); err == nil {
			if orig, err = r.varint(); err == nil {
				if fv, err = r.varint(); err == nil {
					if fvNo, err = r.varint(); err == nil {
						if dPos, err = r.varint(); err == nil {
							if pt, err = r.u32(); err == nil {
								pm, err = r.u32()
							}
						}
					}
				}
			}
		}
		if err != nil {
			return nil, err
		}
		b.Refs[k] = RefTuple{
			Traj: int32(traj), Orig: int32(orig),
			FV: roadnet.VertexID(fv), FVNo: int32(fvNo), DPos: int32(dPos),
			PTotal: math.Float32frombits(pt), PMax: math.Float32frombits(pm),
		}
	}
	nn, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	if nn > uint64(r.remaining()) {
		return nil, fmt.Errorf("nonref count %d overflows block", nn)
	}
	if nn > 0 {
		b.NonRefs = make([]NonRefTuple, nn)
	}
	for k := range b.NonRefs {
		var traj, orig, refOrig, rv, rvNo, maPos int64
		if traj, err = r.varint(); err == nil {
			if orig, err = r.varint(); err == nil {
				if refOrig, err = r.varint(); err == nil {
					if rv, err = r.varint(); err == nil {
						if rvNo, err = r.varint(); err == nil {
							maPos, err = r.varint()
						}
					}
				}
			}
		}
		if err != nil {
			return nil, err
		}
		b.NonRefs[k] = NonRefTuple{
			Traj: int32(traj), Orig: int32(orig), RefOrig: int32(refOrig),
			RV: roadnet.VertexID(rv), RVNo: int32(rvNo), MaPos: int32(maPos),
		}
	}
	return b, nil
}

// --- Elias–Fano sorted-set codec ---

// efLowBits picks the low-bit width for n values over universe u, the
// standard ⌊log₂(u/n)⌋ split that bounds the encoding near 2+log₂(u/n)
// bits per value.
func efLowBits(u, n uint64) int {
	if n == 0 || u/n == 0 {
		return 0
	}
	return bits.Len64(u/n) - 1
}

// appendEFSet encodes a sorted slice of distinct non-negative int32s.
// Layout: uvarint n; if n>0: uvarint max, uvarint blobLen, blob.  The blob
// interleaves, per value, the unary-coded delta of its high bits with its
// fixed-width low bits.
func appendEFSet(buf []byte, vals []int32) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(vals)))
	if len(vals) == 0 {
		return buf
	}
	u := uint64(vals[len(vals)-1])
	buf = binary.AppendUvarint(buf, u)
	l := efLowBits(u, uint64(len(vals)))
	w := bitio.NewWriter(len(vals) * (l + 2))
	prevHigh := uint64(0)
	for _, v := range vals {
		high := uint64(v) >> l
		w.WriteUnary(int(high - prevHigh))
		prevHigh = high
		if l > 0 {
			w.WriteBits(uint64(v)&((1<<l)-1), l)
		}
	}
	blob := w.Bytes()
	buf = binary.AppendUvarint(buf, uint64(len(blob)))
	return append(buf, blob...)
}

func (r *sidecarReader) efSet(maxCount int) ([]int32, error) {
	n, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	if n == 0 {
		return nil, nil
	}
	if n > uint64(maxCount) {
		return nil, fmt.Errorf("set of %d values exceeds trajectory count %d", n, maxCount)
	}
	u, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	blob, err := r.lenPrefixed()
	if err != nil {
		return nil, err
	}
	l := efLowBits(u, n)
	br := bitio.NewReader(blob)
	out := make([]int32, n)
	prevHigh := uint64(0)
	for i := range out {
		d, err := br.ReadUnary()
		if err != nil {
			return nil, err
		}
		prevHigh += uint64(d)
		low := uint64(0)
		if l > 0 {
			low, err = br.ReadBits(l)
			if err != nil {
				return nil, err
			}
		}
		v := prevHigh<<l | low
		if v > u {
			return nil, fmt.Errorf("set value %d exceeds declared max %d", v, u)
		}
		out[i] = int32(v)
	}
	return out, nil
}

// --- bounds-checked byte reader ---

type sidecarReader struct {
	data []byte
	off  int
}

func (r *sidecarReader) remaining() int { return len(r.data) - r.off }

func (r *sidecarReader) uvarint() (uint64, error) {
	v, n := binary.Uvarint(r.data[r.off:])
	if n <= 0 {
		return 0, fmt.Errorf("truncated uvarint at offset %d", r.off)
	}
	r.off += n
	return v, nil
}

func (r *sidecarReader) varint() (int64, error) {
	v, n := binary.Varint(r.data[r.off:])
	if n <= 0 {
		return 0, fmt.Errorf("truncated varint at offset %d", r.off)
	}
	r.off += n
	return v, nil
}

func (r *sidecarReader) u32() (uint32, error) {
	if r.remaining() < 4 {
		return 0, fmt.Errorf("truncated u32 at offset %d", r.off)
	}
	v := binary.LittleEndian.Uint32(r.data[r.off:])
	r.off += 4
	return v, nil
}

// take returns the next n bytes as a capacity-clamped subslice.
func (r *sidecarReader) take(n int) ([]byte, error) {
	if n < 0 || r.remaining() < n {
		return nil, fmt.Errorf("block of %d bytes overflows buffer at offset %d", n, r.off)
	}
	b := r.data[r.off : r.off+n : r.off+n]
	r.off += n
	return b, nil
}

// efSlice returns the raw bytes of one Elias–Fano set without decoding
// it, so a candidate set can stay on the mapping until first touch.
func (r *sidecarReader) efSlice() ([]byte, error) {
	start := r.off
	n, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	if n > 0 {
		if _, err := r.uvarint(); err != nil { // max value
			return nil, err
		}
		if _, err := r.lenPrefixed(); err != nil { // unary/low-bit blob
			return nil, err
		}
	}
	return r.data[start:r.off:r.off], nil
}

// lenPrefixed returns a subslice for a uvarint-length-prefixed block.
func (r *sidecarReader) lenPrefixed() ([]byte, error) {
	n, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	if n > uint64(r.remaining()) {
		return nil, fmt.Errorf("block of %d bytes overflows buffer at offset %d", n, r.off)
	}
	b := r.data[r.off : r.off+int(n) : r.off+int(n)]
	r.off += int(n)
	return b, nil
}
