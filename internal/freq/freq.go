// Package freq implements PRIMACY's frequency-ranked ID mapping (Sec. II-C
// and II-F of the paper): a bijection between the 2-byte high-order
// sequences observed in a chunk and identification values assigned in order
// of descending frequency, so the most common byte pairs become the smallest
// IDs (maximizing 0-byte repeatability), plus the per-chunk index metadata
// that lets a decoder invert the mapping.
package freq

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"
)

// SequenceSpace is the number of possible 2-byte sequences.
const SequenceSpace = 65536

var (
	// ErrCorruptIndex indicates malformed index metadata.
	ErrCorruptIndex = errors.New("freq: corrupt index")
	// ErrUnmappedSequence indicates encode input containing a sequence the
	// index does not cover.
	ErrUnmappedSequence = errors.New("freq: sequence not in index")
	// ErrBadID indicates decode input containing an ID beyond the index.
	ErrBadID = errors.New("freq: ID out of range")
	// ErrOddLength indicates a byte slice that is not a whole number of
	// 2-byte sequences.
	ErrOddLength = errors.New("freq: odd input length")
)

// Histogram counts occurrences of each 2-byte big-endian sequence of hi.
// The returned slice is indexed by sequence value and has SequenceSpace
// entries. It is the scalar reference HistogramPlanes is tested against.
func Histogram(hi []byte) ([]uint32, error) {
	if len(hi)%2 != 0 {
		return nil, fmt.Errorf("%w: %d", ErrOddLength, len(hi))
	}
	counts := make([]uint32, SequenceSpace)
	for i := 0; i < len(hi); i += 2 {
		counts[binary.BigEndian.Uint16(hi[i:])]++
	}
	return counts, nil
}

// HistogramPlanes accumulates the sequence counts of high-order bytes held
// as two planes (p0[i], p1[i] are element i's bytes) into counts without
// allocating, so a caller-owned flat counter arena can be recycled across
// chunks. counts must have SequenceSpace entries; it is NOT cleared first —
// the caller owns zeroing between chunks.
func HistogramPlanes(counts []uint32, p0, p1 []byte) error {
	if len(counts) != SequenceSpace {
		return fmt.Errorf("freq: histogram size %d, want %d", len(counts), SequenceSpace)
	}
	if len(p1) != len(p0) {
		return fmt.Errorf("freq: plane lengths differ: %d, %d", len(p0), len(p1))
	}
	for i, b0 := range p0 {
		counts[uint16(b0)<<8|uint16(p1[i])]++
	}
	return nil
}

// Index is the bijective sequence<->ID mapping for one chunk.
type Index struct {
	// seqByID[id] is the original 2-byte sequence assigned that ID.
	seqByID []uint16
	// idBySeq maps sequence -> ID+1 (0 means unmapped); dense array for
	// O(1) encoding. BuildIndex fills it; an index read back from a record
	// is there to decode with, which takes seqByID alone, so UnmarshalIndex
	// leaves the 256 KiB table to the first encode-side call (see reverse).
	idBySeq []uint32
	revOnce sync.Once
}

// reverse returns idBySeq, deriving it from seqByID on first use.
func (x *Index) reverse() []uint32 {
	x.revOnce.Do(func() {
		if x.idBySeq != nil {
			return
		}
		x.idBySeq = make([]uint32, SequenceSpace)
		for id, seq := range x.seqByID {
			x.idBySeq[seq] = uint32(id) + 1
		}
	})
	return x.idBySeq
}

// BuildIndex constructs the mapping from a histogram: sequences are ranked
// by descending frequency, ties broken by ascending sequence value (the
// paper: "traversing ascending byte-sequences sorted by descending
// frequency"). Zero-frequency sequences receive no ID.
func BuildIndex(counts []uint32) (*Index, error) {
	if len(counts) != SequenceSpace {
		return nil, fmt.Errorf("freq: histogram size %d, want %d", len(counts), SequenceSpace)
	}
	type entry struct {
		seq   uint16
		count uint32
	}
	entries := make([]entry, 0, 2048)
	for seq, c := range counts {
		if c > 0 {
			entries = append(entries, entry{uint16(seq), c})
		}
	}
	sort.Slice(entries, func(a, b int) bool {
		if entries[a].count != entries[b].count {
			return entries[a].count > entries[b].count
		}
		return entries[a].seq < entries[b].seq
	})
	idx := &Index{
		seqByID: make([]uint16, len(entries)),
		idBySeq: make([]uint32, SequenceSpace),
	}
	for id, e := range entries {
		idx.seqByID[id] = e.seq
		idx.idBySeq[e.seq] = uint32(id) + 1
	}
	return idx, nil
}

// NumSequences reports how many distinct sequences the index covers.
func (x *Index) NumSequences() int { return len(x.seqByID) }

// Encode maps a row-major N×2 high-order byte matrix to an N×2 ID matrix
// (big-endian IDs, row-major). Every sequence must be covered by the index.
func (x *Index) Encode(hi []byte) ([]byte, error) {
	return x.AppendEncode(nil, hi)
}

// AppendEncode appends the ID matrix for hi to dst and returns the extended
// slice. dst must not alias hi. With dst pre-sized the steady state
// allocates nothing.
func (x *Index) AppendEncode(dst, hi []byte) ([]byte, error) {
	if len(hi)%2 != 0 {
		return nil, fmt.Errorf("%w: %d", ErrOddLength, len(hi))
	}
	base := len(dst)
	out := slices.Grow(dst, len(hi))[:len(dst)+len(hi)]
	// Zero-based view keeps the encode loop at non-append speed.
	seg := out[base:]
	rev := x.reverse()
	for i := 0; i < len(hi); i += 2 {
		seq := binary.BigEndian.Uint16(hi[i:])
		v := rev[seq]
		if v == 0 {
			return nil, fmt.Errorf("%w: %#04x at element %d", ErrUnmappedSequence, seq, i/2)
		}
		binary.BigEndian.PutUint16(seg[i:], uint16(v-1))
	}
	return out, nil
}

// Decode inverts Encode.
func (x *Index) Decode(ids []byte) ([]byte, error) {
	return x.AppendDecode(nil, ids)
}

// AppendDecode appends the decoded high-order bytes for ids to dst and
// returns the extended slice. dst must not alias ids.
func (x *Index) AppendDecode(dst, ids []byte) ([]byte, error) {
	if len(ids)%2 != 0 {
		return nil, fmt.Errorf("%w: %d", ErrOddLength, len(ids))
	}
	base := len(dst)
	out := slices.Grow(dst, len(ids))[:len(dst)+len(ids)]
	seg := out[base:]
	for i := 0; i < len(ids); i += 2 {
		id := binary.BigEndian.Uint16(ids[i:])
		if int(id) >= len(x.seqByID) {
			return nil, fmt.Errorf("%w: %d at element %d", ErrBadID, id, i/2)
		}
		binary.BigEndian.PutUint16(seg[i:], x.seqByID[id])
	}
	return out, nil
}

// AppendEncodePlanes is AppendEncode for high-order bytes held as two planes
// (p0[i], p1[i] are element i's bytes) and writes the ID matrix already
// column-linearized: the n high ID bytes, then the n low ID bytes — exactly
// AppendEncode followed by a width-2 columnize, with no row-major ID matrix
// in between. dst must not alias p0 or p1.
func (x *Index) AppendEncodePlanes(dst, p0, p1 []byte) ([]byte, error) {
	n := len(p0)
	if len(p1) != n {
		return nil, fmt.Errorf("freq: plane lengths differ: %d, %d", n, len(p1))
	}
	base := len(dst)
	out := slices.Grow(dst, 2*n)[:len(dst)+2*n]
	idHi, idLo := out[base:base+n], out[base+n:base+2*n]
	p1 = p1[:n]
	rev := x.reverse()
	for i, b0 := range p0 {
		seq := uint16(b0)<<8 | uint16(p1[i])
		v := rev[seq]
		if v == 0 {
			return nil, fmt.Errorf("%w: %#04x at element %d", ErrUnmappedSequence, seq, i)
		}
		idHi[i] = byte((v - 1) >> 8)
		idLo[i] = byte(v - 1)
	}
	return out, nil
}

// AppendDecodePlanes inverts AppendEncodePlanes: idHi and idLo are the two
// planes of a column-linearized ID matrix, and the decoded high-order bytes
// are appended as plane 0 then plane 1. An ID beyond the index is ErrBadID.
// dst must not alias idHi or idLo.
func (x *Index) AppendDecodePlanes(dst, idHi, idLo []byte) ([]byte, error) {
	n := len(idHi)
	if len(idLo) != n {
		return nil, fmt.Errorf("freq: plane lengths differ: %d, %d", n, len(idLo))
	}
	base := len(dst)
	out := slices.Grow(dst, 2*n)[:len(dst)+2*n]
	p0, p1 := out[base:base+n], out[base+n:base+2*n]
	idLo = idLo[:n]
	for i, h := range idHi {
		id := int(h)<<8 | int(idLo[i])
		if id >= len(x.seqByID) {
			return nil, fmt.Errorf("%w: %d at element %d", ErrBadID, id, i)
		}
		seq := x.seqByID[id]
		p0[i] = byte(seq >> 8)
		p1[i] = byte(seq)
	}
	return out, nil
}

// Marshal serializes the index as metadata: uint16 count K then K big-endian
// sequences in ID order. (Sec. II-F: "an indexing file per each chunk".)
func (x *Index) Marshal() []byte {
	out := make([]byte, 4+2*len(x.seqByID))
	binary.BigEndian.PutUint32(out, uint32(len(x.seqByID)))
	for id, seq := range x.seqByID {
		binary.BigEndian.PutUint16(out[4+2*id:], seq)
	}
	return out
}

// UnmarshalIndex reconstructs an index from Marshal output. It validates
// that sequences are unique (the mapping must be bijective).
func UnmarshalIndex(data []byte) (*Index, error) {
	if len(data) < 4 {
		return nil, fmt.Errorf("%w: short header", ErrCorruptIndex)
	}
	k := binary.BigEndian.Uint32(data)
	if k > SequenceSpace {
		return nil, fmt.Errorf("%w: %d sequences", ErrCorruptIndex, k)
	}
	if len(data) != 4+2*int(k) {
		return nil, fmt.Errorf("%w: length %d for %d sequences", ErrCorruptIndex, len(data), k)
	}
	idx := &Index{seqByID: make([]uint16, k)}
	var seen [SequenceSpace / 64]uint64
	for id := range idx.seqByID {
		seq := binary.BigEndian.Uint16(data[4+2*id:])
		if seen[seq/64]&(1<<(seq%64)) != 0 {
			return nil, fmt.Errorf("%w: duplicate sequence %#04x", ErrCorruptIndex, seq)
		}
		seen[seq/64] |= 1 << (seq % 64)
		idx.seqByID[id] = seq
	}
	return idx, nil
}

// MarshalledSize reports the metadata size in bytes for K sequences.
func MarshalledSize(k int) int { return 4 + 2*k }

// Covers reports whether every sequence present in hi is mapped by the
// index — used by the first-chunk-index reuse mode to decide whether a new
// index must be emitted.
func (x *Index) Covers(hi []byte) (bool, error) {
	if len(hi)%2 != 0 {
		return false, fmt.Errorf("%w: %d", ErrOddLength, len(hi))
	}
	rev := x.reverse()
	for i := 0; i < len(hi); i += 2 {
		if rev[binary.BigEndian.Uint16(hi[i:])] == 0 {
			return false, nil
		}
	}
	return true, nil
}

// CoversPlanes is Covers for high-order bytes held as two planes.
func (x *Index) CoversPlanes(p0, p1 []byte) (bool, error) {
	if len(p1) != len(p0) {
		return false, fmt.Errorf("freq: plane lengths differ: %d, %d", len(p0), len(p1))
	}
	rev := x.reverse()
	for i, b0 := range p0 {
		if rev[uint16(b0)<<8|uint16(p1[i])] == 0 {
			return false, nil
		}
	}
	return true, nil
}
