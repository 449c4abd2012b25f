package stream

import (
	"bytes"
	"io"
	"testing"

	"primacy/internal/core"
	"primacy/internal/faultinject"
	"primacy/internal/precond"
)

// TestPrecondV3StreamSalvageResync: preconditioned segments embed v3 (PRM3)
// containers. The strict reader must round-trip them, and when a segment's
// length field is destroyed, salvage's magic-scan resync must
// recognize the v3 magic and recover every byte.
func TestPrecondV3StreamSalvageResync(t *testing.T) {
	raw := testData(2048)
	var sink bytes.Buffer
	w, err := NewWriter(&sink, core.Options{
		ChunkBytes: 2048,
		Precond:    core.PrecondOptions{Selection: precond.APriori},
	})
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
	if !bytes.Contains(enc, []byte("PRM3")) {
		t.Fatal("preconditioned segments did not produce v3 containers")
	}
	dec, err := io.ReadAll(NewReader(bytes.NewReader(enc)))
	if err != nil || !bytes.Equal(dec, raw) {
		t.Fatalf("strict v3 stream round trip: err=%v identical=%v", err, bytes.Equal(dec, raw))
	}
	segs := segmentFrames(t, enc)
	if len(segs) < 4 {
		t.Fatalf("want ≥4 segments, got %d", len(segs))
	}
	mut := faultinject.ZeroRegion(enc, segs[2][0], 4)
	out, rep := salvageRead(t, mut)
	if rep.Clean() {
		t.Fatal("salvage reported clean despite destroyed length field")
	}
	if !bytes.Equal(out, raw) {
		t.Fatalf("salvage recovered %d bytes, want all %d (v3 payloads were intact)",
			len(out), len(raw))
	}
}
