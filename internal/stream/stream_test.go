package stream

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"testing"
	"testing/quick"

	"primacy/internal/chunker"
	"primacy/internal/core"
	"primacy/internal/datagen"
)

func testData(n int) []byte {
	s, _ := datagen.ByName("msg_sweep3d")
	return s.GenerateBytes(n)
}

func roundTrip(t *testing.T, raw []byte, opts core.Options, writeSizes []int) []byte {
	t.Helper()
	var sink bytes.Buffer
	w, err := NewWriter(&sink, opts)
	if err != nil {
		t.Fatalf("NewWriter: %v", err)
	}
	pos := 0
	for pos < len(raw) {
		n := len(raw) - pos
		if len(writeSizes) > 0 {
			n = writeSizes[0]
			writeSizes = writeSizes[1:]
			if n > len(raw)-pos {
				n = len(raw) - pos
			}
		}
		if _, err := w.Write(raw[pos : pos+n]); err != nil {
			t.Fatalf("Write: %v", err)
		}
		pos += n
	}
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	dec, err := io.ReadAll(NewReader(bytes.NewReader(sink.Bytes())))
	if err != nil {
		t.Fatalf("ReadAll: %v", err)
	}
	if !bytes.Equal(dec, raw) {
		t.Fatalf("round trip mismatch: %d raw, %d decoded", len(raw), len(dec))
	}
	return sink.Bytes()
}

func TestEmptyStream(t *testing.T) {
	roundTrip(t, nil, core.Options{}, nil)
}

func TestSingleSmallWrite(t *testing.T) {
	roundTrip(t, testData(1000), core.Options{ChunkBytes: 8 << 10}, nil)
}

func TestManySegments(t *testing.T) {
	raw := testData(40_000)
	enc := roundTrip(t, raw, core.Options{ChunkBytes: 16 << 10}, nil)
	if len(enc) >= len(raw) {
		t.Fatalf("stream expanded: %d -> %d", len(raw), len(enc))
	}
}

func TestDribbleWrites(t *testing.T) {
	raw := testData(10_000)
	sizes := make([]int, 0, 4000)
	rng := rand.New(rand.NewSource(3))
	for total := 0; total < len(raw); {
		n := 1 + rng.Intn(777)
		sizes = append(sizes, n)
		total += n
	}
	roundTrip(t, raw, core.Options{ChunkBytes: 8 << 10}, sizes)
}

func TestStreamMatchesWholeBufferRatio(t *testing.T) {
	raw := testData(64 << 10)
	var sink bytes.Buffer
	w, err := NewWriter(&sink, core.Options{ChunkBytes: 64 << 10})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write(raw); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	whole, err := core.Compress(raw, core.Options{ChunkBytes: 64 << 10})
	if err != nil {
		t.Fatal(err)
	}
	// Stream overhead: magic + end marker + a ~40-byte header per segment
	// (each segment is a self-describing core container).
	segments := w.Stats().Chunks
	if sink.Len() > len(whole)+8+40*segments {
		t.Fatalf("stream overhead too large: %d vs %d (%d segments)",
			sink.Len(), len(whole), segments)
	}
}

func TestStatsAccumulate(t *testing.T) {
	raw := testData(32 << 10)
	var sink bytes.Buffer
	w, err := NewWriter(&sink, core.Options{ChunkBytes: 8 << 10})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write(raw); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	st := w.Stats()
	if st.RawBytes != len(raw) {
		t.Fatalf("raw bytes %d != %d", st.RawBytes, len(raw))
	}
	if st.Chunks < 4 {
		t.Fatalf("chunks %d", st.Chunks)
	}
	if st.Ratio() <= 1 {
		t.Fatalf("ratio %v", st.Ratio())
	}
	if st.Alpha1 != 0.25 {
		t.Fatalf("alpha1 %v", st.Alpha1)
	}
}

func TestCloseIdempotentAndWriteAfterClose(t *testing.T) {
	var sink bytes.Buffer
	w, err := NewWriter(&sink, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write([]byte{1}); err == nil {
		t.Fatal("write after close accepted")
	}
}

func TestUnalignedResidueFailsAtClose(t *testing.T) {
	var sink bytes.Buffer
	w, err := NewWriter(&sink, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write(make([]byte, 13)); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err == nil {
		t.Fatal("unaligned residue accepted at Close")
	}
}

func TestFloat32Stream(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	raw := make([]byte, 4*5000)
	rng.Read(raw)
	roundTrip(t, raw, core.Options{Precision: core.Float32, ChunkBytes: 4096}, nil)
}

func TestReaderCorrupt(t *testing.T) {
	raw := testData(8 << 10)
	var sink bytes.Buffer
	w, err := NewWriter(&sink, core.Options{ChunkBytes: 8 << 10})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write(raw); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	enc := sink.Bytes()
	cases := map[string][]byte{
		"empty":        {},
		"bad magic":    append([]byte("XXXX"), enc[4:]...),
		"no end":       enc[:len(enc)-4],
		"cut segment":  enc[:len(enc)/2],
		"short header": enc[:5],
	}
	for name, data := range cases {
		_, err := io.ReadAll(NewReader(bytes.NewReader(data)))
		if err == nil {
			t.Errorf("%s: corrupt stream accepted", name)
		}
	}
}

func TestReaderSmallBuffers(t *testing.T) {
	raw := testData(6 << 10)
	var sink bytes.Buffer
	w, err := NewWriter(&sink, core.Options{ChunkBytes: 4096})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write(raw); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	r := NewReader(bytes.NewReader(sink.Bytes()))
	var out []byte
	buf := make([]byte, 37) // deliberately tiny, non-power-of-two reads
	for {
		n, err := r.Read(buf)
		out = append(out, buf[:n]...)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(out, raw) {
		t.Fatal("small-buffer read mismatch")
	}
}

func TestBadWriterOptions(t *testing.T) {
	if _, err := NewWriter(io.Discard, core.Options{Precision: core.Precision(9)}); err == nil {
		t.Fatal("bad precision accepted")
	}
	if _, err := NewWriter(io.Discard, core.Options{ChunkBytes: 3}); err == nil {
		t.Fatal("sub-element chunk accepted")
	}
}

// Property: arbitrary data in arbitrary write granularities round-trips.
func TestQuickStream(t *testing.T) {
	f := func(seed int64, nElems uint16) bool {
		s, _ := datagen.ByName("obs_info")
		raw := s.GenerateBytes(int(nElems)%2048 + 1)
		rng := rand.New(rand.NewSource(seed))
		var sink bytes.Buffer
		w, err := NewWriter(&sink, core.Options{ChunkBytes: 2048})
		if err != nil {
			return false
		}
		pos := 0
		for pos < len(raw) {
			n := 1 + rng.Intn(1024)
			if n > len(raw)-pos {
				n = len(raw) - pos
			}
			if _, err := w.Write(raw[pos : pos+n]); err != nil {
				return false
			}
			pos += n
		}
		if err := w.Close(); err != nil {
			return false
		}
		dec, err := io.ReadAll(NewReader(bytes.NewReader(sink.Bytes())))
		return err == nil && bytes.Equal(dec, raw)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkStreamWrite(b *testing.B) {
	raw := testData(1 << 18)
	b.SetBytes(int64(len(raw)))
	for i := 0; i < b.N; i++ {
		w, err := NewWriter(io.Discard, core.Options{ChunkBytes: 256 << 10})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := w.Write(raw); err != nil {
			b.Fatal(err)
		}
		if err := w.Close(); err != nil {
			b.Fatal(err)
		}
	}
}

// TestChunkBelowOneElement: a chunk smaller than one element is chunker's
// ErrBadChunkSize.
func TestChunkBelowOneElement(t *testing.T) {
	for _, o := range []core.Options{{ChunkBytes: 4}, {ChunkBytes: 2, Precision: core.Float32}} {
		if _, err := NewWriter(io.Discard, o); !errors.Is(err, chunker.ErrBadChunkSize) {
			t.Errorf("%+v: %v; want chunker.ErrBadChunkSize", o, err)
		}
	}
}
