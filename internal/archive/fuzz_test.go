package archive

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"primacy/internal/bytesplit"
	"primacy/internal/core"
	"primacy/internal/core/hostile"
	"primacy/internal/datagen"
)

// hostileArchives builds one-entry archives around core containers whose
// chunk records lie about one field each (internal/core/hostile). Entry
// frame, TOC and trailer are the writer's own, so every archive-level
// checksum holds: damage only the chunk decoder can see.
func hostileArchives(tb testing.TB) map[string][]byte {
	tb.Helper()
	spec, _ := datagen.ByName("flash_velx")
	values := spec.Generate(300)
	enc, err := core.Compress(bytesplit.Float64sToBytes(values), core.Options{Solver: "lzo", ChunkBytes: 1600})
	if err != nil {
		tb.Fatal(err)
	}
	vs, err := hostile.Variants(enc)
	if err != nil {
		tb.Fatal(err)
	}
	out := map[string][]byte{}
	for _, v := range vs {
		var buf bytes.Buffer
		w, err := NewWriter(&buf, core.Options{})
		if err != nil {
			tb.Fatal(err)
		}
		if err := w.writeEntry("temp", 0, uint64(len(values)*8), v.Data); err != nil {
			tb.Fatal(err)
		}
		if err := w.Close(); err != nil {
			tb.Fatal(err)
		}
		out[v.Name] = buf.Bytes()
	}
	return out
}

// TestHostileEntriesRejected: an entry whose checksums hold but whose chunk
// record contradicts itself opens fine, fails its get as corruption, and is
// reported by Verify.
func TestHostileEntriesRejected(t *testing.T) {
	for name, data := range hostileArchives(t) {
		r, err := NewReader(bytes.NewReader(data), int64(len(data)))
		if err != nil {
			t.Errorf("%s: NewReader = %v; the archive framing is intact", name, err)
			continue
		}
		if _, err := r.GetFloat64s("temp", 0); !errors.Is(err, core.ErrCorrupt) && !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: GetFloat64s = %v, want corruption", name, err)
		}
		if rep, err := Verify(bytes.NewReader(data), int64(len(data))); err != nil || rep.Clean() {
			t.Errorf("%s: Verify = %v, %v; want a reported fault", name, rep, err)
		}
	}
}

// FuzzDecompress drives the archive reader, verifier, salvage scanner and
// writer resume over arbitrary bytes. None may panic, hang, or allocate
// proportionally to claimed (rather than actual) sizes, and resume may only
// accept an archive it can reproduce byte for byte.
func FuzzDecompress(f *testing.F) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf, core.Options{ChunkBytes: 1024})
	if err != nil {
		f.Fatal(err)
	}
	spec, _ := datagen.ByName("flash_velx")
	if err := w.PutFloat64s("temp", 0, spec.Generate(100)); err != nil {
		f.Fatal(err)
	}
	if err := w.Close(); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	// What resume must refuse: a truncated archive, one with a flipped bit in
	// an entry the TOC checksum does not cover, and a v1 archive.
	f.Add(buf.Bytes()[:buf.Len()-5])
	flipped := append([]byte(nil), buf.Bytes()...)
	flipped[len(flipped)/3] ^= 0x10
	f.Add(flipped)
	v1, err := os.ReadFile(filepath.Join("testdata", "v1", "archive.par"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(v1)
	for _, data := range hostileArchives(f) {
		f.Add(data)
	}
	f.Add([]byte(magicV1))
	f.Add([]byte(magicV2))
	f.Add([]byte("PAR2" + "PAE2\x04\x00temp\x01\x00\x00\x00xxxxxxxxcccc" +
		"\x10\x00\x00\x00\x00\x00\x00\x00PAR2"))
	f.Fuzz(func(t *testing.T, data []byte) {
		size := int64(len(data))
		if r, err := NewReader(bytes.NewReader(data), size); err == nil {
			for _, name := range r.Variables() {
				for _, step := range r.Steps(name) {
					_, _ = r.GetFloat64s(name, step)
				}
			}
		}
		if _, err := Verify(bytes.NewReader(data), size); err != nil {
			t.Fatalf("Verify must report via the CorruptionReport, got error: %v", err)
		}
		if r, _, err := OpenSalvage(bytes.NewReader(data), size); err == nil {
			for _, name := range r.Variables() {
				for _, step := range r.Steps(name) {
					_, _ = r.GetFloat64s(name, step)
				}
			}
		}
		var out bytes.Buffer
		if w, err := ResumeWriterCtx(context.Background(), &out, data, core.Options{}); err == nil {
			if err := w.Close(); err != nil {
				t.Fatalf("closing a resumed archive: %v", err)
			}
			if !bytes.Equal(out.Bytes(), data) {
				t.Fatal("resume accepted an archive it does not reproduce")
			}
		} else if out.Len() != 0 {
			t.Fatalf("resume refused the archive (%v) after writing %d bytes", err, out.Len())
		}
	})
}
