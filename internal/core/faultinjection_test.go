package core

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"testing"

	"primacy/internal/bytesplit"
	"primacy/internal/faultinject"
	"primacy/internal/solver"
	"primacy/internal/trace"
)

// The injected-solver tests verify the codec's fault behaviour: a
// compression-side solver fault degrades the affected chunks to raw
// passthrough (never a corrupt or incomplete container), while decode-side
// faults propagate as errors. The fault-injecting solver itself lives in
// internal/faultinject, shared with the other container formats.

func TestCompressSolverFailureDegradesToRaw(t *testing.T) {
	f, err := faultinject.New("faulty-c", "zlib")
	if err != nil {
		t.Fatal(err)
	}
	f.FailCompress = true
	raw := syntheticDoubles(1_000, 50)
	enc, stats, err := new(Codec).AppendCompressCtx(context.Background(), nil, bytesplit.Float64sToBytes(raw), Options{Solver: "faulty-c"})
	if err != nil {
		t.Fatalf("solver fault must degrade, not fail: %v", err)
	}
	if stats.DegradedChunks == 0 || stats.DegradedChunks != stats.Chunks {
		t.Fatalf("want every chunk degraded, got %d of %d", stats.DegradedChunks, stats.Chunks)
	}
	// The degraded container stores chunks raw and must decode bit-exactly
	// without touching the (still broken) solver's decompress path.
	f.FailDecompress = true
	dec, err := decompressFloat64s(enc)
	if err != nil {
		t.Fatal(err)
	}
	for i := range raw {
		if dec[i] != raw[i] {
			t.Fatalf("value %d mismatch after degraded round trip", i)
		}
	}
}

func TestDecompressSolverFailurePropagates(t *testing.T) {
	f, err := faultinject.New("faulty-d", "zlib")
	if err != nil {
		t.Fatal(err)
	}
	raw := syntheticDoubles(1_000, 51)
	enc, err := compressFloat64s(raw, Options{Solver: "faulty-d"})
	if err != nil {
		t.Fatal(err)
	}
	f.FailDecompress = true
	if _, err := Decompress(enc); err == nil {
		t.Fatal("decompression fault not propagated")
	}
}

func TestMangledSolverOutputDetected(t *testing.T) {
	// A solver that silently corrupts its output must surface as a decode
	// error (zlib's checksum catches it), never as silently wrong floats.
	f, err := faultinject.New("faulty-m", "zlib")
	if err != nil {
		t.Fatal(err)
	}
	f.Mangle = true
	raw := syntheticDoubles(5_000, 52)
	enc, err := compressFloat64s(raw, Options{Solver: "faulty-m"})
	if err != nil {
		t.Fatal(err)
	}
	f.Mangle = false // decode path uses the clean inner decompressor
	dec, err := Decompress(enc)
	if err == nil {
		// If zlib happened to accept it, the data must still round-trip
		// bit-exactly (mangle may have hit an unused byte), otherwise fail.
		if !bytes.Equal(dec, float64Bytes(raw)) {
			t.Fatal("mangled container decoded to wrong data without error")
		}
	}
}

// errorSpan is the flight recorder's anomaly-tagged span of the given name
// that ended with an error, if it kept one.
func errorSpan(tr *trace.Tracer, name string) (trace.SpanRecord, bool) {
	for _, r := range tr.Anomalies() {
		if r.Name == name && r.Anomaly && len(r.Events) > 0 && r.Events[len(r.Events)-1].Kind == trace.KindError {
			return r, true
		}
	}
	return trace.SpanRecord{}, false
}

// A solver error ends its stage span with the error, in both directions: the
// flight recorder keeps core.stage.solver for the fault that degraded a chunk
// and core.stage.dec_solver for a corrupt ID payload, the first of the two
// solver sections — a byte flipped in it before the record's CRC was taken, so
// the solver is the one to find it.
func TestSolverErrorEndsItsStageSpan(t *testing.T) {
	tr := trace.New(trace.Config{})
	EnableTracing(tr)
	defer EnableTracing(nil)
	f, err := faultinject.New("faulty-span", "zlib")
	if err != nil {
		t.Fatal(err)
	}
	raw := bytesplit.Float64sToBytes(syntheticDoubles(5_000, 53))

	f.Mangle = true
	enc, err := Compress(raw, Options{Solver: "faulty-span"})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := errorSpan(tr, "core.stage.dec_solver"); ok {
		t.Fatal("a decode stage span before any decode")
	}
	if _, err := Decompress(enc); !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), "ID payload") {
		t.Fatalf("mangled ID payload: %v, want ErrCorrupt naming it", err)
	}
	if r, ok := errorSpan(tr, "core.stage.dec_solver"); !ok || !strings.Contains(r.Events[len(r.Events)-1].Detail, "ID payload") {
		t.Fatalf("no error-tagged core.stage.dec_solver span among %d anomalies", len(tr.Anomalies()))
	}

	f.Mangle, f.FailCompress = false, true
	if _, err := Compress(raw, Options{Solver: "faulty-span"}); err != nil {
		t.Fatalf("solver fault must degrade, not fail: %v", err)
	}
	if _, ok := errorSpan(tr, "core.stage.solver"); !ok {
		t.Fatalf("no error-tagged core.stage.solver span among %d anomalies", len(tr.Anomalies()))
	}
}

// paddedZlib is zlib with one byte after every stream's checksum: what a
// wrong section length looks like to the solver.
type paddedZlib struct{ solver.Zlib }

func (paddedZlib) Name() string { return "zpad" }

func (p paddedZlib) CompressTo(dst, src []byte) ([]byte, error) {
	out, err := p.Zlib.CompressTo(dst, src)
	return append(out, 0), err
}

// Bytes after a solver section's zlib stream are corruption, not slack.
func TestTrailingBytesInSolverSectionAreCorrupt(t *testing.T) {
	solver.Register(paddedZlib{})
	enc, err := compressFloat64s(syntheticDoubles(5_000, 54), Options{Solver: "zpad"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Decompress(enc); !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), "trailing") {
		t.Fatalf("padded solver sections: %v, want ErrCorrupt", err)
	}
}

func float64Bytes(values []float64) []byte {
	out, err := compressFloat64s(values, Options{Solver: "none"})
	if err != nil {
		panic(err)
	}
	dec, err := Decompress(out)
	if err != nil {
		panic(err)
	}
	return dec
}

func TestNoneSolverEndToEnd(t *testing.T) {
	// The identity solver exercises the container framing with zero
	// compression, isolating framing bugs from solver behaviour.
	raw := syntheticDoubles(3_000, 53)
	enc, err := compressFloat64s(raw, Options{Solver: "none"})
	if err != nil {
		t.Fatal(err)
	}
	if len(enc) < len(raw)*8 {
		t.Fatalf("identity solver cannot shrink payload: %d < %d", len(enc), len(raw)*8)
	}
	dec, err := decompressFloat64s(enc)
	if err != nil {
		t.Fatal(err)
	}
	for i := range raw {
		if dec[i] != raw[i] {
			t.Fatalf("value %d mismatch", i)
		}
	}
}
