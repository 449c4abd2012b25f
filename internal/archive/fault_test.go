package archive

import (
	"bytes"
	"context"
	"errors"
	"testing"
	"time"

	"primacy/internal/core"
	"primacy/internal/faultinject"
	"primacy/internal/retry"
)

func sampleValues(n int, seed float64) []float64 {
	out := make([]float64, n)
	v := seed
	for i := range out {
		v += 0.25
		out[i] = v
	}
	return out
}

func TestWriterStickyAfterFailedPut(t *testing.T) {
	var sink bytes.Buffer
	// The magic write succeeds; the first entry write dies.
	flaky := &faultinject.FlakyWriter{W: &sink, FailFrom: 1}
	w, err := NewWriter(flaky, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	firstErr := w.PutFloat64s("temperature", 0, sampleValues(500, 1))
	if firstErr == nil {
		t.Fatal("put into a dead sink succeeded")
	}
	sunk := sink.Len()
	if err := w.PutFloat64s("pressure", 0, sampleValues(500, 2)); err != firstErr {
		t.Fatalf("second Put returned %v, want sticky %v", err, firstErr)
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
	w, err := NewWriter(&failAfterN{w: &sink, allow: 2}, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Magic (1) and entry (2) go through; the TOC write at Close fails.
	if err := w.PutFloat64s("temperature", 0, sampleValues(500, 1)); err != nil {
		t.Fatal(err)
	}
	firstErr := w.Close()
	if firstErr == nil {
		t.Fatal("Close into a dead sink succeeded")
	}
	if err := w.Close(); err != firstErr {
		t.Fatalf("second Close returned %v, want sticky %v", err, firstErr)
	}
	if err := w.PutFloat64s("pressure", 0, sampleValues(10, 2)); err != firstErr {
		t.Fatalf("Put after failed Close returned %v, want sticky %v", err, firstErr)
	}
}

// failAfterN passes the first allow writes through, then fails permanently.
type failAfterN struct {
	w     *bytes.Buffer
	allow int
	calls int
}

func (f *failAfterN) Write(p []byte) (int, error) {
	f.calls++
	if f.calls > f.allow {
		return 0, errors.New("sink dead")
	}
	return f.w.Write(p)
}

func TestWriterSuccessfulCloseIdempotent(t *testing.T) {
	var sink bytes.Buffer
	w, err := NewWriter(&sink, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.PutFloat64s("temperature", 0, sampleValues(500, 1)); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	size := sink.Len()
	if err := w.Close(); err != nil {
		t.Fatalf("second Close returned %v", err)
	}
	if sink.Len() != size {
		t.Fatal("idempotent Close appended bytes")
	}
	if _, err := NewReader(bytes.NewReader(sink.Bytes()), int64(sink.Len())); err != nil {
		t.Fatal(err)
	}
}

func TestWriterValidationDoesNotPoison(t *testing.T) {
	var sink bytes.Buffer
	w, err := NewWriter(&sink, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.PutFloat64s("temperature", 0, sampleValues(100, 1)); err != nil {
		t.Fatal(err)
	}
	// Argument mistakes never touch the sink and must leave the writer usable.
	if err := w.PutFloat64s("", 1, nil); err == nil {
		t.Fatal("empty name accepted")
	}
	if err := w.PutFloat64s("temperature", 0, sampleValues(100, 2)); err == nil {
		t.Fatal("duplicate entry accepted")
	}
	if err := w.PutFloat64s("temperature", -1, nil); err == nil {
		t.Fatal("negative step accepted")
	}
	if err := w.PutFloat64s("temperature", 1, sampleValues(100, 3)); err != nil {
		t.Fatalf("writer poisoned by validation failure: %v", err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := NewReader(bytes.NewReader(sink.Bytes()), int64(sink.Len()))
	if err != nil {
		t.Fatal(err)
	}
	if got := r.Steps("temperature"); len(got) != 2 {
		t.Fatalf("archive holds %d steps, want 2", len(got))
	}
}

func TestWriterRetryRecoversTransientSink(t *testing.T) {
	values := sampleValues(2_000, 1)
	// Reference archive through a healthy sink.
	var want bytes.Buffer
	w, err := NewWriter(&want, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for step := 0; step < 4; step++ {
		if err := w.PutFloat64s("temperature", step, values); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	// Same archive through a flaky sink wrapped in a retrying writer.
	var got bytes.Buffer
	flaky := &faultinject.FlakyWriter{W: &got, FailEvery: 2}
	sink := retry.NewWriter(context.Background(), flaky, retry.Policy{Attempts: 4, Sleep: func(time.Duration) {}})
	w, err = NewWriter(sink, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for step := 0; step < 4; step++ {
		if err := w.PutFloat64s("temperature", step, values); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatal("retried archive differs from clean archive")
	}
	r, err := NewReader(bytes.NewReader(got.Bytes()), int64(got.Len()))
	if err != nil {
		t.Fatal(err)
	}
	dec, err := r.GetFloat64s("temperature", 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := range values {
		if dec[i] != values[i] {
			t.Fatalf("value %d mismatch", i)
		}
	}
}

func TestWriterCtxCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var sink bytes.Buffer
	w, err := ResumeWriterCtx(ctx, &sink, nil, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.PutFloat64s("temperature", 0, sampleValues(100, 1)); err != nil {
		t.Fatal(err)
	}
	cancel()
	if err := w.PutFloat64s("temperature", 1, sampleValues(100, 2)); !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	if err := w.Close(); !errors.Is(err, context.Canceled) {
		t.Fatalf("Close after cancellation returned %v", err)
	}
}
