package stream

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"testing"

	"primacy/internal/core"
)

// v2FixtureOpts is the geometry of the committed v2 fixture: the v1
// fixture's 2 KiB segments.
var v2FixtureOpts = core.Options{ChunkBytes: 2048}

// writeV2 streams raw through a Writer in writes of size step.
func writeV2(t *testing.T, raw []byte, step int) []byte {
	t.Helper()
	var sink bytes.Buffer
	w, err := NewWriter(&sink, v2FixtureOpts)
	if err != nil {
		t.Fatal(err)
	}
	for off := 0; off < len(raw); off += step {
		if _, err := w.Write(raw[off:min(off+step, len(raw))]); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return sink.Bytes()
}

// TestWriteV2Fixture regenerates testdata/v2/stream.prs from
// testdata/v1/raw.bin when PRIMACY_WRITE_FIXTURES=1. The fixture is committed,
// not rebuilt: it pins the bytes the v2 writer emits.
func TestWriteV2Fixture(t *testing.T) {
	if os.Getenv("PRIMACY_WRITE_FIXTURES") != "1" {
		t.Skip("set PRIMACY_WRITE_FIXTURES=1 to regenerate committed fixtures")
	}
	raw, err := os.ReadFile(filepath.Join("testdata", "v1", "raw.bin"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Join("testdata", "v2"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join("testdata", "v2", "stream.prs"), writeV2(t, raw, len(raw)), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestV2StreamPinned: today's writer reproduces the committed v2 stream byte
// for byte, whatever the write sizes, and the strict reader and salvage
// decode it to raw.bin.
func TestV2StreamPinned(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("testdata", "v1", "raw.bin"))
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join("testdata", "v2", "stream.prs"))
	if err != nil {
		t.Fatal(err)
	}
	if string(want[:4]) != magicV2 {
		t.Fatalf("fixture magic %q, want v2", want[:4])
	}
	for _, step := range []int{len(raw), 2048, 1000, 8} {
		if enc := writeV2(t, raw, step); !bytes.Equal(enc, want) {
			t.Fatalf("writes of %d: writer emits %d bytes that differ from the %d-byte fixture", step, len(enc), len(want))
		}
	}
	dec, err := io.ReadAll(NewReader(bytes.NewReader(want)))
	if err != nil || !bytes.Equal(dec, raw) {
		t.Fatalf("strict read: err=%v identical=%v", err, bytes.Equal(dec, raw))
	}
	sal, rep := salvageRead(t, want)
	if !rep.Clean() || !bytes.Equal(sal, raw) {
		t.Fatalf("salvage read: report=%v identical=%v", rep, bytes.Equal(sal, raw))
	}
}
