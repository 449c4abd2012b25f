package chunker

import (
	"errors"
	"testing"
	"testing/quick"
)

func TestPlanBasics(t *testing.T) {
	p, err := NewPlan(8000, 1000, 8)
	if err != nil {
		t.Fatal(err)
	}
	if p.ChunkBytes() != 1000 {
		t.Fatalf("ChunkBytes = %d", p.ChunkBytes())
	}
	if p.NumChunks() != 8 {
		t.Fatalf("NumChunks = %d", p.NumChunks())
	}
}

func TestPlanRoundsChunkToElements(t *testing.T) {
	p, err := NewPlan(24*100, 100, 24) // 100 -> 96
	if err != nil {
		t.Fatal(err)
	}
	if p.ChunkBytes() != 96 {
		t.Fatalf("ChunkBytes = %d, want 96", p.ChunkBytes())
	}
}

func TestPlanDefaults(t *testing.T) {
	p, err := NewPlan(DefaultChunkBytes*2, 0, 8)
	if err != nil {
		t.Fatal(err)
	}
	if p.ChunkBytes() != DefaultChunkBytes {
		t.Fatalf("default chunk = %d", p.ChunkBytes())
	}
}

func TestPlanErrors(t *testing.T) {
	if _, err := NewPlan(100, 4, 8); err == nil {
		t.Fatal("chunk < element accepted")
	}
	if _, err := NewPlan(100, 16, 8); err == nil {
		t.Fatal("total not multiple of element accepted")
	}
	if _, err := NewPlan(100, 16, 0); err == nil {
		t.Fatal("zero element size accepted")
	}
}

func TestBounds(t *testing.T) {
	p, err := NewPlan(100*8, 64, 8)
	if err != nil {
		t.Fatal(err)
	}
	// 800 bytes, 64-byte chunks -> 13 chunks, last short (800-12*64=32).
	if p.NumChunks() != 13 {
		t.Fatalf("NumChunks = %d", p.NumChunks())
	}
	s, e, err := p.Bounds(12)
	if err != nil {
		t.Fatal(err)
	}
	if s != 768 || e != 800 {
		t.Fatalf("last chunk [%d,%d)", s, e)
	}
	if _, _, err := p.Bounds(13); err == nil {
		t.Fatal("out-of-range chunk accepted")
	}
	if _, _, err := p.Bounds(-1); err == nil {
		t.Fatal("negative chunk accepted")
	}
}

func TestSplitViews(t *testing.T) {
	data := make([]byte, 64)
	for i := range data {
		data[i] = byte(i)
	}
	p, err := NewPlan(64, 24, 8)
	if err != nil {
		t.Fatal(err)
	}
	chunks, err := p.Split(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(chunks) != 3 || len(chunks[0]) != 24 || len(chunks[2]) != 16 {
		t.Fatalf("chunk shapes: %d %d %d", len(chunks[0]), len(chunks[1]), len(chunks[2]))
	}
	// Views, not copies.
	chunks[0][0] = 99
	if data[0] != 99 {
		t.Fatal("Split copied data")
	}
	if _, err := p.Split(data[:32]); err == nil {
		t.Fatal("wrong-length data accepted")
	}
}

func TestEmptyPlan(t *testing.T) {
	p, err := NewPlan(0, 64, 8)
	if err != nil {
		t.Fatal(err)
	}
	if p.NumChunks() != 0 {
		t.Fatalf("empty plan has %d chunks", p.NumChunks())
	}
	chunks, err := p.Split(nil)
	if err != nil || len(chunks) != 0 {
		t.Fatalf("Split on empty: %v, %d chunks", err, len(chunks))
	}
}

// Property: chunks tile the input exactly — contiguous, non-overlapping,
// and covering every byte.
func TestQuickTiling(t *testing.T) {
	f := func(nElems uint16, chunkK uint8) bool {
		total := int(nElems) * 8
		chunk := (int(chunkK) + 1) * 8
		p, err := NewPlan(total, chunk, 8)
		if err != nil {
			return false
		}
		prevEnd := 0
		for i := 0; i < p.NumChunks(); i++ {
			s, e, err := p.Bounds(i)
			if err != nil || s != prevEnd || e <= s {
				return false
			}
			if (e-s)%8 != 0 {
				return false
			}
			prevEnd = e
		}
		return prevEnd == total
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestSize(t *testing.T) {
	for _, c := range []struct{ chunk, elem, want int }{
		{0, 8, DefaultChunkBytes},
		{0, 4, DefaultChunkBytes},
		{100001, 8, 100000},
		{100, 24, 96},
		{8, 8, 8},
	} {
		if got, err := Size(c.chunk, c.elem); err != nil || got != c.want {
			t.Errorf("Size(%d, %d) = %d, %v; want %d", c.chunk, c.elem, got, err, c.want)
		}
	}
	for _, c := range []struct{ chunk, elem int }{{4, 8}, {-8, 8}} {
		if _, err := Size(c.chunk, c.elem); !errors.Is(err, ErrBadChunkSize) {
			t.Errorf("Size(%d, %d) = %v; want ErrBadChunkSize", c.chunk, c.elem, err)
		}
	}
	if _, err := Size(8, 0); err == nil {
		t.Error("zero element size accepted")
	}
}
