package stream

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"

	"primacy/internal/core"
	"primacy/internal/faultinject"
)

// encodeStream compresses raw into a v2 stream with the given chunk size.
func encodeStream(t *testing.T, raw []byte, chunkBytes int) []byte {
	t.Helper()
	var sink bytes.Buffer
	w, err := NewWriter(&sink, core.Options{ChunkBytes: chunkBytes})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write(raw); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return sink.Bytes()
}

// segmentFrames walks a v2 stream and returns each segment's frame start and
// payload end offsets.
func segmentFrames(t *testing.T, enc []byte) [][2]int {
	t.Helper()
	if string(enc[:4]) != magicV2 {
		t.Fatalf("stream magic %q, want v2", enc[:4])
	}
	var segs [][2]int
	pos := 4
	for {
		l := int(binary.LittleEndian.Uint32(enc[pos:]))
		if l == 0 {
			break
		}
		segs = append(segs, [2]int{pos, pos + 8 + l})
		pos += 8 + l
	}
	return segs
}

func salvageRead(t *testing.T, enc []byte) ([]byte, *core.CorruptionReport) {
	t.Helper()
	out, rep, err := DecompressSalvage(enc)
	if err != nil {
		t.Fatalf("salvage read errored: %v", err)
	}
	return out, rep
}

// TestV1StreamDecodes proves pre-checksum streams still decode
// byte-identically after the v2 format bump.
func TestV1StreamDecodes(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("testdata", "v1", "raw.bin"))
	if err != nil {
		t.Fatal(err)
	}
	enc, err := os.ReadFile(filepath.Join("testdata", "v1", "stream.prs"))
	if err != nil {
		t.Fatal(err)
	}
	if string(enc[:4]) != magicV1 {
		t.Fatalf("fixture magic %q, want v1", enc[:4])
	}
	dec, err := io.ReadAll(NewReader(bytes.NewReader(enc)))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dec, raw) {
		t.Fatal("v1 stream did not decode byte-identically")
	}
}

// TestTruncationAtEveryByte cuts a valid stream at every possible byte
// count: each truncation must surface an error — never a silent short read,
// a panic, or a hang.
func TestTruncationAtEveryByte(t *testing.T) {
	raw := testData(1024)
	enc := encodeStream(t, raw, 2048)
	for n := 0; n < len(enc); n++ {
		_, err := io.ReadAll(NewReader(bytes.NewReader(enc[:n])))
		if err == nil {
			t.Fatalf("truncation to %d of %d bytes read without error", n, len(enc))
		}
		if !errors.Is(err, ErrCorrupt) && !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("truncation to %d: error %v is neither ErrCorrupt nor ErrUnexpectedEOF", n, err)
		}
	}
}

// TestEveryBitFlipDetected: any single-bit flip in a v2 stream must error
// out of the strict reader, never decode silently wrong.
func TestEveryBitFlipDetected(t *testing.T) {
	raw := testData(512)
	enc := encodeStream(t, raw, 1024)
	for bit := 0; bit < len(enc)*8; bit++ {
		dec, err := io.ReadAll(NewReader(bytes.NewReader(faultinject.FlipBit(enc, bit))))
		if err == nil && !bytes.Equal(dec, raw) {
			t.Fatalf("bit flip %d decoded silently to wrong data", bit)
		}
		if err == nil {
			t.Fatalf("bit flip %d went completely undetected", bit)
		}
	}
}

// TestSalvageCorruptSegment damages one segment's payload: the salvage
// reader must deliver every other segment and name the damaged one.
func TestSalvageCorruptSegment(t *testing.T) {
	raw := testData(2048) // 16 KiB -> 8 segments of 2 KiB
	enc := encodeStream(t, raw, 2048)
	segs := segmentFrames(t, enc)
	if len(segs) < 4 {
		t.Fatalf("want ≥4 segments, got %d", len(segs))
	}
	victim := 2
	mid := (segs[victim][0] + 8 + segs[victim][1]) / 2
	mut := faultinject.FlipBit(enc, mid*8)
	if _, err := io.ReadAll(NewReader(bytes.NewReader(mut))); err == nil {
		t.Fatal("strict reader accepted corrupt segment")
	}
	out, rep := salvageRead(t, mut)
	if rep.Clean() {
		t.Fatal("salvage reported clean")
	}
	want := append(append([]byte(nil), raw[:victim*2048]...), raw[(victim+1)*2048:]...)
	if !bytes.Equal(out, want) {
		t.Fatalf("salvage recovered %d bytes, want %d (all but the corrupt segment)",
			len(out), len(want))
	}
}

// TestSalvageZeroedLengthRecoversAll zeroes a segment's length field. The
// framing is lost but the payload is intact, so resync (scanning for the
// embedded container magic) must recover every byte of the stream.
func TestSalvageZeroedLengthRecoversAll(t *testing.T) {
	raw := testData(2048)
	enc := encodeStream(t, raw, 2048)
	segs := segmentFrames(t, enc)
	mut := faultinject.ZeroRegion(enc, segs[2][0], 4)
	out, rep := salvageRead(t, mut)
	if rep.Clean() {
		t.Fatal("salvage reported clean despite destroyed length field")
	}
	if !bytes.Equal(out, raw) {
		t.Fatalf("salvage recovered %d bytes, want all %d (payloads were intact)",
			len(out), len(raw))
	}
}

// TestSalvageTruncatedTail cuts the stream mid-segment: salvage must
// deliver the complete segments before the cut and report the loss.
func TestSalvageTruncatedTail(t *testing.T) {
	raw := testData(2048)
	enc := encodeStream(t, raw, 2048)
	segs := segmentFrames(t, enc)
	cut := segs[3][0] + 13 // inside segment 3's frame
	out, rep := salvageRead(t, enc[:cut])
	if rep.Clean() {
		t.Fatal("salvage reported clean despite truncation")
	}
	if !bytes.Equal(out, raw[:3*2048]) {
		t.Fatalf("salvage recovered %d bytes, want the %d before the cut", len(out), 3*2048)
	}
}
