package stream

import (
	"bytes"
	"testing"

	"primacy/internal/core"
	"primacy/internal/telemetry"
)

func enableStreamTelemetry(t *testing.T) *telemetry.Registry {
	t.Helper()
	reg := telemetry.NewRegistry()
	EnableTelemetry(reg)
	t.Cleanup(func() { EnableTelemetry(nil) })
	return reg
}

// Writing a stream must account every emitted segment and its raw and
// compressed bytes.
func TestWriterTelemetry(t *testing.T) {
	reg := enableStreamTelemetry(t)

	const chunk = 8 << 10
	raw := testData(3 * chunk / 8) // 3 segments exactly
	var sink bytes.Buffer
	w, err := NewWriter(&sink, core.Options{ChunkBytes: chunk})
	if err != nil {
		t.Fatalf("NewWriter: %v", err)
	}
	if _, err := w.Write(raw); err != nil {
		t.Fatalf("Write: %v", err)
	}
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	snap := reg.Snapshot()
	if v, _ := snap.Counter("primacy_stream_segments_total"); v != 3 {
		t.Errorf("segments_total = %d, want 3", v)
	}
	if v, _ := snap.Counter("primacy_stream_raw_bytes_total"); v != int64(len(raw)) {
		t.Errorf("raw_bytes_total = %d, want %d", v, len(raw))
	}
	segBytes, _ := snap.Counter("primacy_stream_segment_bytes_total")
	if segBytes <= 0 || segBytes >= int64(sink.Len()) {
		t.Errorf("segment_bytes_total = %d, want in (0, %d)", segBytes, sink.Len())
	}
	if h, ok := snap.Histogram("primacy_stream_segment_seconds"); !ok || h.Count != 3 {
		t.Errorf("segment_seconds count = %d, want 3", h.Count)
	}
}

// Salvaging a damaged stream must count the recorded faults and resync
// scans.
func TestSalvageTelemetry(t *testing.T) {
	reg := enableStreamTelemetry(t)

	const chunk = 8 << 10
	raw := testData(3 * chunk / 8)
	var sink bytes.Buffer
	w, err := NewWriter(&sink, core.Options{ChunkBytes: chunk})
	if err != nil {
		t.Fatalf("NewWriter: %v", err)
	}
	if _, err := w.Write(raw); err != nil {
		t.Fatalf("Write: %v", err)
	}
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// Zero the second segment's length field: framing is lost there, forcing
	// a fault record and a resync scan.
	enc := sink.Bytes()
	firstSegLen := int(uint32(enc[4]) | uint32(enc[5])<<8 | uint32(enc[6])<<16 | uint32(enc[7])<<24)
	secondHdr := 4 + 8 + firstSegLen
	enc[secondHdr] ^= 0xFF

	_, rep, err := DecompressSalvage(enc)
	if err != nil {
		t.Fatalf("salvage read: %v", err)
	}
	if rep.Clean() {
		t.Fatal("corrupted stream salvaged with a clean report")
	}

	snap := reg.Snapshot()
	faults, _ := snap.Counter("primacy_stream_salvage_faults_total")
	if faults < 1 {
		t.Errorf("salvage_faults_total = %d, want >= 1", faults)
	}
	if int(faults) != len(rep.Corruptions) {
		t.Errorf("salvage_faults_total = %d, report has %d", faults, len(rep.Corruptions))
	}
	if v, _ := snap.Counter("primacy_stream_salvage_resyncs_total"); v < 1 {
		t.Errorf("salvage_resyncs_total = %d, want >= 1", v)
	}
}
