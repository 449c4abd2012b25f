package core

import (
	"fmt"

	"primacy/internal/bytesplit"
	"primacy/internal/solver"
	"primacy/internal/trace"
)

// ChunkReader provides random access to the chunks of a compressed
// container without decompressing the whole stream — the access pattern of
// analysis tools that read one time slice out of a large archive.
//
// Random access requires per-chunk indexes: containers written with
// IndexReuse make later chunks depend on earlier ones, and NewChunkReader
// rejects chunks that lack their own index when accessed out of order.
type ChunkReader struct {
	data []byte
	sv   solver.Compressor
	// h is the container's header: version (v3 chunk records carry a
	// preconditioner transform-ID byte the decoder must honor), layout and ID
	// geometry.
	h header
	// offsets[i] is the byte range of chunk record i within data.
	offsets [][2]int
	// rawOffsets[i] is the starting element-byte offset of chunk i.
	rawOffsets []int
	totalRaw   int
}

// NewChunkReader parses the container framing (headers and chunk sizes
// only; no payload is decompressed). Both container versions are accepted;
// v2 header and per-chunk checksums are verified up front so later chunk
// decodes operate on validated records.
func NewChunkReader(data []byte) (*ChunkReader, error) {
	h, err := parseVerifiedHeader(data)
	if err != nil {
		return nil, err
	}
	r := &ChunkReader{data: data, h: h, totalRaw: int(h.total)}
	if r.sv, err = solver.Get(string(h.solverName)); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	_, err = h.walkFrames(data, func(start, end, rawOff int) {
		r.offsets = append(r.offsets, [2]int{start, end})
		r.rawOffsets = append(r.rawOffsets, rawOff)
	})
	if err != nil {
		return nil, err
	}
	return r, nil
}

// NumChunks reports how many chunks the container holds.
func (r *ChunkReader) NumChunks() int { return len(r.offsets) }

// RawBytes reports the total decompressed size.
func (r *ChunkReader) RawBytes() int { return r.totalRaw }

// ChunkRange returns the [start, end) raw byte range chunk i decodes to.
func (r *ChunkReader) ChunkRange(i int) (start, end int, err error) {
	if i < 0 || i >= len(r.offsets) {
		return 0, 0, fmt.Errorf("core: chunk %d out of range [0,%d)", i, len(r.offsets))
	}
	start = r.rawOffsets[i]
	if i+1 < len(r.offsets) {
		end = r.rawOffsets[i+1]
	} else {
		end = r.totalRaw
	}
	return start, end, nil
}

// DecodeChunk decompresses one chunk. The chunk must be self-contained
// (carry its own index); chunks written under IndexReuse that depend on an
// earlier chunk's index return an error.
func (r *ChunkReader) DecodeChunk(i int) ([]byte, error) {
	if i < 0 || i >= len(r.offsets) {
		return nil, fmt.Errorf("core: chunk %d out of range [0,%d)", i, len(r.offsets))
	}
	off := r.offsets[i]
	rec := r.data[off[0]:off[1]]
	// rec[4] is the has-index flag (after the raw length); raw-passthrough
	// records (rawChunkFlag) are self-contained and need no index.
	if len(rec) >= 5 && rec[4] == 0 && r.h.mapping == MapRanked {
		return nil, fmt.Errorf("core: chunk %d has no index (IndexReuse container); decode sequentially", i)
	}
	var ds DecompStats
	// A nil destination: the chunk is interleaved into a buffer of exactly
	// its size, which the caller owns.
	cs := trace.Start(trace.Span{}, "core.chunk.decode").Attr("chunk", int64(i))
	chunk, _, err := decompressChunk(func() []byte { return nil }, rec, maxChunkRaw, &r.h, r.sv, nil, &ds, new(scratch), tmet.Load(), cs)
	cs.End(err)
	return chunk, err
}

// DecodeFloat64Range decompresses only the chunks overlapping the element
// range [first, first+count) and returns exactly the requested values.
func (r *ChunkReader) DecodeFloat64Range(first, count int) ([]float64, error) {
	if r.h.lay.ElemBytes != bytesplit.Float64Layout.ElemBytes {
		return nil, fmt.Errorf("core: container holds %d-byte elements, not float64", r.h.lay.ElemBytes)
	}
	// Overflow-safe bounds check: first and count are caller-controlled, and
	// (first+count)*8 can wrap past a positive totalRaw for huge values —
	// compare against the element count without multiplying.
	nElems := r.totalRaw / 8
	if first < 0 || count < 0 || first > nElems || count > nElems-first {
		return nil, fmt.Errorf("core: element range [%d,%d) out of bounds", first, first+count)
	}
	startByte, endByte := first*8, (first+count)*8
	out := make([]float64, 0, count)
	for i := 0; i < r.NumChunks(); i++ {
		cs, ce, err := r.ChunkRange(i)
		if err != nil {
			return nil, err
		}
		if ce <= startByte || cs >= endByte {
			continue
		}
		chunk, err := r.DecodeChunk(i)
		if err != nil {
			return nil, err
		}
		lo, hi := max(startByte, cs)-cs, min(endByte, ce)-cs
		vals, err := bytesplit.BytesToFloat64s(chunk[lo:hi])
		if err != nil {
			return nil, err
		}
		out = append(out, vals...)
	}
	return out, nil
}
