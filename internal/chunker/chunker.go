// Package chunker splits element streams into fixed-size chunks for in-situ
// processing (Sec. II-B of the paper: 3 MB chunks chosen where compressor
// efficiency levels off).
package chunker

import (
	"errors"
	"fmt"
)

// DefaultChunkBytes is the paper's 3 MB chunk size.
const DefaultChunkBytes = 3 << 20

// ErrBadChunkSize indicates a chunk size that cannot hold one element.
var ErrBadChunkSize = errors.New("chunker: chunk size smaller than element size")

// Plan describes how a byte stream is cut into chunks.
type Plan struct {
	chunkBytes int
	elemSize   int
	total      int
}

// Size returns the chunk size a plan over elemSize-byte elements cuts with:
// chunkBytes rounded down to a whole number of elements, and
// DefaultChunkBytes when chunkBytes is 0. It is the one place that decides
// the default and the rounding.
func Size(chunkBytes, elemSize int) (int, error) {
	if elemSize <= 0 {
		return 0, fmt.Errorf("chunker: non-positive element size %d", elemSize)
	}
	if chunkBytes == 0 {
		chunkBytes = DefaultChunkBytes
	}
	if chunkBytes < elemSize {
		return 0, fmt.Errorf("%w: %d < %d", ErrBadChunkSize, chunkBytes, elemSize)
	}
	return chunkBytes - chunkBytes%elemSize, nil
}

// NewPlan validates and builds a chunking plan. The chunk size is
// Size(chunkBytes, elemSize).
func NewPlan(totalBytes, chunkBytes, elemSize int) (*Plan, error) {
	size, err := Size(chunkBytes, elemSize)
	if err != nil {
		return nil, err
	}
	if totalBytes%elemSize != 0 {
		return nil, fmt.Errorf("chunker: total %d not a multiple of element size %d",
			totalBytes, elemSize)
	}
	return &Plan{chunkBytes: size, elemSize: elemSize, total: totalBytes}, nil
}

// ChunkBytes reports the element-aligned chunk size in bytes.
func (p *Plan) ChunkBytes() int { return p.chunkBytes }

// NumChunks reports how many chunks the plan produces.
func (p *Plan) NumChunks() int {
	if p.total == 0 {
		return 0
	}
	return (p.total + p.chunkBytes - 1) / p.chunkBytes
}

// Bounds returns the [start, end) byte range of chunk i.
func (p *Plan) Bounds(i int) (start, end int, err error) {
	if i < 0 || i >= p.NumChunks() {
		return 0, 0, fmt.Errorf("chunker: chunk %d out of range [0,%d)", i, p.NumChunks())
	}
	start = i * p.chunkBytes
	end = start + p.chunkBytes
	if end > p.total {
		end = p.total
	}
	return start, end, nil
}

// Split returns chunk views into data (no copies). data length must equal
// the plan's total.
func (p *Plan) Split(data []byte) ([][]byte, error) {
	if len(data) != p.total {
		return nil, fmt.Errorf("chunker: data length %d != plan total %d", len(data), p.total)
	}
	chunks := make([][]byte, 0, p.NumChunks())
	for i := 0; i < p.NumChunks(); i++ {
		start, end, err := p.Bounds(i)
		if err != nil {
			return nil, err
		}
		chunks = append(chunks, data[start:end])
	}
	return chunks, nil
}
