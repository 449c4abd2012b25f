package stream

import (
	"bytes"
	"io"
	"testing"

	"primacy/internal/core"
)

// FuzzReader: neither the segment reader nor DecompressSalvage may panic on
// adversarial streams, and salvage never fails.
func FuzzReader(f *testing.F) {
	var sink bytes.Buffer
	w, err := NewWriter(&sink, core.Options{ChunkBytes: 512})
	if err != nil {
		f.Fatal(err)
	}
	if _, err := w.Write(make([]byte, 2048)); err != nil {
		f.Fatal(err)
	}
	if err := w.Close(); err != nil {
		f.Fatal(err)
	}
	f.Add(sink.Bytes())
	f.Add([]byte{})
	f.Add([]byte("PRS1"))
	f.Fuzz(func(t *testing.T, data []byte) {
		_, _ = io.ReadAll(NewReader(bytes.NewReader(data))) // must not panic
		if _, _, err := DecompressSalvage(data); err != nil {
			t.Fatalf("salvage read failed: %v", err)
		}
	})
}
