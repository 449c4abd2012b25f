package stream

import (
	"bytes"
	"context"
	"errors"
	"io"
	"testing"
	"time"

	"primacy/internal/core"
	"primacy/internal/fairshare"
	"primacy/internal/faultinject"
	"primacy/internal/retry"
)

func TestWriterStickyAfterFailedWrite(t *testing.T) {
	var sink bytes.Buffer
	// The magic write succeeds, then the sink dies: the first emitted segment
	// fails mid-write.
	flaky := &faultinject.FlakyWriter{W: &sink, FailFrom: 1}
	w, err := NewWriter(flaky, core.Options{ChunkBytes: 1024})
	if err != nil {
		t.Fatal(err)
	}
	data := testData(4096)
	_, firstErr := w.Write(data)
	if firstErr == nil {
		t.Fatal("write into a dead sink succeeded")
	}
	sunk := sink.Len()
	// Every later call returns the same error and nothing more reaches the
	// half-written stream.
	if _, err := w.Write(data); err != firstErr {
		t.Fatalf("second Write returned %v, want sticky %v", err, firstErr)
	}
	if err := w.Close(); err != firstErr {
		t.Fatalf("Close returned %v, want sticky %v", err, firstErr)
	}
	if err := w.Close(); err != firstErr {
		t.Fatalf("repeated Close returned %v, want sticky %v", err, firstErr)
	}
	if sink.Len() != sunk {
		t.Fatalf("sink grew %d -> %d bytes after the writer failed", sunk, sink.Len())
	}
}

func TestWriterStickyAfterFailedClose(t *testing.T) {
	var sink bytes.Buffer
	flaky := &faultinject.FlakyWriter{W: &sink, FailFrom: 1}
	w, err := NewWriter(flaky, core.Options{ChunkBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	// Small write: buffered only, the sink is first touched at Close.
	if _, err := w.Write(testData(256)); err != nil {
		t.Fatal(err)
	}
	firstErr := w.Close()
	if firstErr == nil {
		t.Fatal("Close into a dead sink succeeded")
	}
	if err := w.Close(); err != firstErr {
		t.Fatalf("second Close returned %v, want sticky %v", err, firstErr)
	}
	if _, err := w.Write(testData(8)); err != firstErr {
		t.Fatalf("Write after failed Close returned %v, want sticky %v", err, firstErr)
	}
}

func TestWriterRetryRecoversTransientSink(t *testing.T) {
	raw := testData(20_000)
	opts := core.Options{ChunkBytes: 2048}
	// Reference stream through a healthy sink.
	var want bytes.Buffer
	w, err := NewWriter(&want, opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write(raw); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	// Same stream through a sink that fails every third write transiently,
	// wrapped in a retrying writer: it must absorb every fault and produce
	// identical bytes.
	var got bytes.Buffer
	flaky := &faultinject.FlakyWriter{W: &got, FailEvery: 3}
	sink := retry.NewWriter(context.Background(), flaky, retry.Policy{Attempts: 4, Sleep: func(time.Duration) {}})
	w, err = NewWriter(sink, opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write(raw); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatal("retried stream differs from clean stream")
	}
}

func TestWriterCtxCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var sink bytes.Buffer
	w, err := NewWriterWith(ctx, &sink, WriterOptions{Core: core.Options{ChunkBytes: 1024}})
	if err != nil {
		t.Fatal(err)
	}
	cancel()
	if _, err := w.Write(testData(4096)); !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	// Cancellation is sticky on the writer: the stream was cut mid-sequence.
	if err := w.Close(); !errors.Is(err, context.Canceled) {
		t.Fatalf("Close after cancellation returned %v", err)
	}
}

func TestWriterGovernedStreamByteIdentical(t *testing.T) {
	raw := testData(30_000)
	opts := core.Options{ChunkBytes: 2048}
	var want bytes.Buffer
	w, err := NewWriter(&want, opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write(raw); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	adm := fairshare.New(fairshare.Config{MemBudget: 4096, MaxConcurrent: 1})
	var got bytes.Buffer
	w, err = NewWriterWith(context.Background(), &got, WriterOptions{Core: opts, Admitter: adm})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write(raw); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatal("admitted stream differs from unadmitted stream")
	}
	if n, b := adm.InFlight(); n != 0 || b != 0 {
		t.Fatalf("admitter capacity leaked: %d admissions, %d bytes", n, b)
	}
}

func TestReaderCtxCancelled(t *testing.T) {
	enc := roundTripEncode(t, testData(10_000), core.Options{ChunkBytes: 1024})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	r := NewReaderCtx(ctx, bytes.NewReader(enc))
	if _, err := io.ReadAll(r); !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
}

func TestReaderCtxHappyPath(t *testing.T) {
	raw := testData(10_000)
	enc := roundTripEncode(t, raw, core.Options{ChunkBytes: 1024})
	dec, err := io.ReadAll(NewReaderCtx(context.Background(), bytes.NewReader(enc)))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dec, raw) {
		t.Fatal("ctx reader round trip mismatched")
	}
}

// roundTripEncode encodes raw into a stream and returns the container bytes.
func roundTripEncode(t *testing.T, raw []byte, opts core.Options) []byte {
	t.Helper()
	var buf bytes.Buffer
	w, err := NewWriter(&buf, opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write(raw); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}
