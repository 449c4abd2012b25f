package archive

import (
	"bytes"
	"context"
	"errors"
	"io"
	"math"
	"os"
	"path/filepath"
	"testing"

	"primacy/internal/core"
	"primacy/internal/datagen"
	"primacy/internal/precond"
)

type resumeEntry struct {
	name   string
	step   int
	values []float64
}

func resumeEntries(n int) []resumeEntry {
	spec, _ := datagen.ByName("flash_velx")
	out := make([]resumeEntry, n)
	for i := range out {
		s := spec
		s.Seed += int64(i)
		out[i] = resumeEntry{name: []string{"temp", "rho"}[i%2], step: i / 2, values: s.Generate(300 + 40*i)}
	}
	return out
}

// resumeOn resumes the archive held in prev (nil: a new archive).
func resumeOn(dst io.Writer, prev []byte, opts core.Options) (*Writer, error) {
	if prev == nil {
		return ResumeWriterCtx(context.Background(), dst, nil, 0, opts)
	}
	return ResumeWriterCtx(context.Background(), dst, bytes.NewReader(prev), int64(len(prev)), opts)
}

// buildOn resumes prev (nil: a new archive), puts entries and closes.
func buildOn(t *testing.T, prev []byte, entries []resumeEntry, opts core.Options) []byte {
	t.Helper()
	var buf bytes.Buffer
	w, err := resumeOn(&buf, prev, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if err := w.PutFloat64s(e.name, e.step, e.values); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// A resumed archive is the archive a single Writer would have produced, for
// every split point and codec option set, and the entries kept from prev are
// not encoded again.
func TestResumeIsByteIdenticalToOneBuild(t *testing.T) {
	entries := resumeEntries(5)
	for name, opts := range map[string]core.Options{
		"zlib":    {ChunkBytes: 2048},
		"lzo":     {Solver: "lzo", ChunkBytes: 1024},
		"precond": {ChunkBytes: 2048, Precond: core.PrecondOptions{Selection: precond.APosteriori}},
	} {
		t.Run(name, func(t *testing.T) {
			var sink bytes.Buffer
			ref, err := NewWriter(&sink, opts)
			if err != nil {
				t.Fatal(err)
			}
			for _, e := range entries {
				if err := ref.PutFloat64s(e.name, e.step, e.values); err != nil {
					t.Fatal(err)
				}
			}
			if err := ref.Close(); err != nil {
				t.Fatal(err)
			}
			want := sink.Bytes()

			// One entry at a time, each archive resuming the one before.
			var blob []byte
			for k, e := range entries {
				blob = buildOn(t, blob, []resumeEntry{e}, opts)
				if !bytes.Equal(blob, buildOn(t, nil, entries[:k+1], opts)) {
					t.Fatalf("archive resumed to %d entries differs from one build", k+1)
				}
			}
			if !bytes.Equal(blob, want) {
				t.Fatal("archive resumed entry by entry differs from NewWriter's")
			}
			// Every split point, including keeping nothing and adding nothing.
			for k := 0; k <= len(entries); k++ {
				prev := buildOn(t, nil, entries[:k], opts)
				if !bytes.Equal(buildOn(t, prev, entries[k:], opts), want) {
					t.Fatalf("resume after %d entries differs from one build", k)
				}
			}
			r, err := NewReader(bytes.NewReader(blob), int64(len(blob)))
			if err != nil {
				t.Fatal(err)
			}
			for _, e := range entries {
				got, err := r.GetFloat64s(e.name, e.step)
				if err != nil {
					t.Fatalf("%s@%d: %v", e.name, e.step, err)
				}
				for i := range got {
					if math.Float64bits(got[i]) != math.Float64bits(e.values[i]) {
						t.Fatalf("%s@%d differs at %d", e.name, e.step, i)
					}
				}
			}
		})
	}
}

func TestResumeKeepsEntriesAndRejectsTheirDuplicates(t *testing.T) {
	entries := resumeEntries(3)
	prev := buildOn(t, nil, entries[:2], core.Options{})
	before := append([]byte(nil), prev...)
	var buf bytes.Buffer
	w, err := resumeOn(&buf, prev, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if w.NumEntries() != 2 {
		t.Fatalf("NumEntries after resume = %d, want 2", w.NumEntries())
	}
	if err := w.PutFloat64s(entries[0].name, entries[0].step, entries[0].values); !errors.Is(err, errEntryInvalid) {
		t.Fatalf("put of an entry prev already holds: %v, want a duplicate refusal", err)
	}
	if err := w.PutFloat64s(entries[2].name, entries[2].step, entries[2].values); err != nil {
		t.Fatalf("put after a refused duplicate: %v", err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if w.NumEntries() != 3 {
		t.Fatalf("NumEntries = %d, want 3", w.NumEntries())
	}
	if !bytes.Equal(prev, before) {
		t.Fatal("resume wrote into prev")
	}
}

// Anything but an intact Writer-made v2 archive is refused before a byte
// reaches the sink: every container byte is under some check, so no single
// bit flip and no truncation gets through.
func TestResumeRefusesDamagedArchives(t *testing.T) {
	blob, _ := writeSmall(t)
	refused := func(what string, prev []byte) {
		t.Helper()
		var sink bytes.Buffer
		w, err := resumeOn(&sink, prev, core.Options{})
		if !errors.Is(err, ErrCorrupt) || w != nil {
			t.Fatalf("%s: resume returned (%v, %v), want ErrCorrupt", what, w, err)
		}
		if sink.Len() != 0 {
			t.Fatalf("%s: %d bytes written before the refusal", what, sink.Len())
		}
	}
	for n := 0; n < len(blob); n++ {
		refused("truncated", blob[:n])
	}
	flipped := make([]byte, len(blob))
	for i := range blob {
		for bit := 0; bit < 8; bit++ {
			copy(flipped, blob)
			flipped[i] ^= 1 << bit
			refused("bit flip", flipped)
		}
	}
	v1, err := os.ReadFile(filepath.Join("testdata", "v1", "archive.par"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewReader(bytes.NewReader(v1), int64(len(v1))); err != nil {
		t.Fatalf("v1 fixture no longer opens: %v", err)
	}
	refused("v1 archive", v1)
	refused("empty", []byte{})
}
