package archive

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"primacy/internal/bytesplit"
	"primacy/internal/checksum"
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
		rawLen := uint64(len(values) * 8)
		frame := append(appendEntryHeader(nil, "temp", 0, rawLen), v.Data...)
		if err := w.writeEntry("temp", 0, rawLen, frame, checksum.Sum(frame)); err != nil {
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
// dropped and reported by OpenSalvage.
func TestHostileEntriesRejected(t *testing.T) {
	for name, data := range hostileArchives(t) {
		r, err := NewReader(bytes.NewReader(data), int64(len(data)))
		if err != nil {
			t.Errorf("%s: NewReader = %v; the archive framing is intact", name, err)
			continue
		}
		if _, err := r.GetFloat64s("temp", 0); !errors.Is(err, core.ErrCorrupt) {
			t.Errorf("%s: GetFloat64s = %v, want corruption", name, err)
		}
		sal, rep, err := OpenSalvage(bytes.NewReader(data), int64(len(data)))
		if err != nil || rep.Clean() {
			t.Errorf("%s: OpenSalvage = %v, %v; want a reported fault", name, rep, err)
		} else if sal.NumEntries() != 0 {
			t.Errorf("%s: OpenSalvage lists %d entries, want none", name, sal.NumEntries())
		}
	}
}

// FuzzDecompress drives the archive reader, salvage open and writer resume
// over arbitrary bytes. None may panic, hang, or allocate proportionally to
// claimed (rather than actual) sizes. Every entry OpenSalvage lists decodes
// through GetFloat64s, so an archive it reports clean reads back whole:
// every entry NewReader lists decodes too. Resume may only accept an archive
// it can reproduce byte for byte.
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
		sal, rep, err := OpenSalvage(bytes.NewReader(data), size)
		if err != nil && rep.Clean() {
			t.Fatalf("OpenSalvage = %v with a clean report", err)
		}
		if err == nil {
			for _, name := range sal.Variables() {
				for _, step := range sal.Steps(name) {
					if _, err := sal.GetFloat64s(name, step); err != nil {
						t.Fatalf("OpenSalvage lists %s@%d, but GetFloat64s = %v", name, step, err)
					}
				}
			}
		}
		if r, err := NewReader(bytes.NewReader(data), size); err == nil {
			for _, name := range r.Variables() {
				for _, step := range r.Steps(name) {
					if _, err := r.GetFloat64s(name, step); err != nil && rep.Clean() {
						t.Fatalf("OpenSalvage reports %v, but GetFloat64s(%q, %d) = %v", rep, name, step, err)
					}
				}
			}
		}
		var out bytes.Buffer
		if w, err := ResumeWriterCtx(context.Background(), &out, bytes.NewReader(data), size, core.Options{}); err == nil {
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
