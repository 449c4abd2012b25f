package stream

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"runtime"
	"runtime/debug"
	"testing"

	"primacy/internal/core"
	"primacy/internal/freq"
	"primacy/internal/testenv"
)

// TestReaderReusesCodecAndBuffers: a Reader decodes every segment with one
// codec, into one output buffer, out of one segment buffer. Reading a stream
// of sixteen equal segments therefore allocates about what two of them
// take — not sixteen segments, outputs and sets of codec scratch.
func TestReaderReusesCodecAndBuffers(t *testing.T) {
	if testenv.RaceEnabled {
		t.Skip("the race detector's runtime allocates on its own")
	}
	const segBytes, segments = 64 << 10, 16
	raw := testData(segments * segBytes / 8)
	var sink bytes.Buffer
	w, err := NewWriter(&sink, core.Options{Solver: "lzo", ChunkBytes: segBytes})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write(raw); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	out.Grow(len(raw))
	buf := make([]byte, 32<<10)
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	r := NewReader(bytes.NewReader(sink.Bytes()))
	for {
		n, err := r.Read(buf)
		out.Write(buf[:n])
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	if !bytes.Equal(out.Bytes(), raw) {
		t.Fatal("the stream did not round-trip")
	}
	// Segment buffer (grown by doubling: < 2 segments), output buffer, plane
	// and ID scratch of one chunk geometry, and sixteen small ID lists.
	alloc := after.TotalAlloc - before.TotalAlloc
	t.Logf("%d bytes allocated reading %d segments of %d", alloc, segments, segBytes)
	if alloc > 6*segBytes {
		t.Errorf("reading %d segments allocated %d bytes, want at most %d", segments, alloc, 6*segBytes)
	}
}

// TestWriterReusesSegmentBuffer: a Writer compresses every segment into one
// buffer of its own, which the next segment takes once the sink has this one.
// Writing eight equal segments therefore allocates codec scratch and one
// compressed segment — not eight — beside what core allocates per chunk, the
// ID mapper's index (a 256 KiB table and its ranking).
func TestWriterReusesSegmentBuffer(t *testing.T) {
	if testenv.RaceEnabled {
		t.Skip("the race detector's runtime allocates on its own")
	}
	const segBytes, segments = 1 << 20, 8
	raw := testData(segments * segBytes / 8)
	var sink bytes.Buffer
	sink.Grow(len(raw))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	w, err := NewWriter(&sink, core.Options{Solver: "lzo", ChunkBytes: segBytes})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write(raw); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if st := w.Stats(); st.Chunks != segments || st.CompressedBytes != sink.Len()-len(magicV2)-8*segments-4 {
		t.Fatalf("stats %+v for a stream of %d bytes", st, sink.Len())
	}
	got, err := io.ReadAll(NewReader(&sink))
	if err != nil || !bytes.Equal(got, raw) {
		t.Fatalf("the stream did not round-trip: %v", err)
	}
	// Planes, ID matrix, both solver outputs, the segment and the sequence
	// counter: under four segments' worth; eight containers more before.
	alloc := after.TotalAlloc - before.TotalAlloc
	bound := uint64(4*segBytes + segments*(4*freq.SequenceSpace+16<<10))
	t.Logf("%d bytes allocated writing %d segments of %d", alloc, segments, segBytes)
	if alloc > bound {
		t.Errorf("writing %d segments allocated %d bytes, want at most %d", segments, alloc, bound)
	}
}

// TestReaderSegmentClaimBounded: the segment length is the sender's claim.
// A stream that announces a gigabyte and delivers forty bytes is corrupt, and
// finding that out costs no more than the first read's buffer.
func TestReaderSegmentClaimBounded(t *testing.T) {
	data := binary.LittleEndian.AppendUint32([]byte(magicV2), 1<<30)
	data = append(data, make([]byte, 4+40)...)
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := io.ReadAll(NewReader(bytes.NewReader(data)))
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("got %v, want ErrCorrupt", err)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; !testenv.RaceEnabled && alloc > 256<<10 {
		t.Errorf("a 48-byte stream claiming 1 GiB allocated %d bytes", alloc)
	}
}
