package durable

import (
	"bytes"
	"context"
	"math"
	"os"
	"path/filepath"
	"testing"
)

// The committed v1 fixture is one tenant directory as the store leaves it
// after seven puts and two compactions: sealed generation 2 holds steps 0–4
// (steps 0–2 were sealed first, 3–4 by the second compaction), and the
// journal holds the records of steps 5 and 6.
const (
	fixtureTenant = "fixture"
	fixtureDir    = "testdata/v1"
)

// fixtureValues is the payload of fixture step i: smooth enough to compress,
// with a few exact values (zero, negative zero, an integer) in every entry.
func fixtureValues(i int) []float64 {
	out := make([]float64, 512+64*i)
	for j := range out {
		out[j] = 273.15 + 20*math.Sin(float64(i)+float64(j)*0.013)
	}
	out[0], out[1], out[2] = 0, math.Copysign(0, -1), float64(i)
	return out
}

func fixtureName(i int) string { return []string{"temp", "rho"}[i%2] }

// writeFixtureStore runs the fixture script against a store rooted at dir.
func writeFixtureStore(t *testing.T, dir string) {
	t.Helper()
	s, _, err := Open(dir, Options{CompactEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for i := 0; i < 7; i++ {
		if err := s.Put(ctx, fixtureTenant, fixtureName(i), i, fixtureValues(i), 0); err != nil {
			t.Fatal(err)
		}
		if i == 2 || i == 4 {
			if err := s.Compact(fixtureTenant); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

var fixtureFiles = []string{journalName, "sealed-0000000000000002.par"}

// TestWriteDurableFixture regenerates testdata/v1 when
// PRIMACY_WRITE_FIXTURES=1. The fixture is committed, not rebuilt: it pins
// the journal and sealed-segment bytes the store writes.
func TestWriteDurableFixture(t *testing.T) {
	if os.Getenv("PRIMACY_WRITE_FIXTURES") != "1" {
		t.Skip("set PRIMACY_WRITE_FIXTURES=1 to regenerate committed fixtures")
	}
	dir := t.TempDir()
	writeFixtureStore(t, dir)
	dst := filepath.Join(fixtureDir, encodeTenant(fixtureTenant))
	if err := os.MkdirAll(dst, 0o755); err != nil {
		t.Fatal(err)
	}
	for _, name := range fixtureFiles {
		b, err := os.ReadFile(filepath.Join(dir, encodeTenant(fixtureTenant), name))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, name), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestDurableFixtureReadable: a store opened on the committed fixture
// recovers all seven entries, five sealed and two journaled, and gets every
// one of them back bit for bit.
func TestDurableFixtureReadable(t *testing.T) {
	dir := t.TempDir()
	tdir := filepath.Join(dir, encodeTenant(fixtureTenant))
	if err := os.MkdirAll(tdir, 0o755); err != nil {
		t.Fatal(err)
	}
	for _, name := range fixtureFiles {
		b, err := os.ReadFile(filepath.Join(fixtureDir, encodeTenant(fixtureTenant), name))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(tdir, name), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	s, rep, err := Open(dir, Options{CompactEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if rep.Dirty() || len(rep.Tenants) != 1 {
		t.Fatalf("fixture recovery: %s", rep.Summary())
	}
	if tr := rep.Tenants[0]; tr.SealedGen != 2 || tr.SealedEntries != 5 || tr.JournalEntries != 2 {
		t.Fatalf("fixture recovery split: gen %d, %d sealed, %d journaled", tr.SealedGen, tr.SealedEntries, tr.JournalEntries)
	}
	for i := 0; i < 7; i++ {
		got, err := s.Get(fixtureTenant, fixtureName(i), i)
		if err != nil {
			t.Fatalf("get %s@%d: %v", fixtureName(i), i, err)
		}
		want := fixtureValues(i)
		if len(got) != len(want) {
			t.Fatalf("get %s@%d: %d values, want %d", fixtureName(i), i, len(got), len(want))
		}
		for j := range want {
			if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
				t.Fatalf("get %s@%d: value %d = %v, want %v", fixtureName(i), i, j, got[j], want[j])
			}
		}
	}
}

// TestDurableFixtureReproduced: today's store, given the fixture's puts and
// compactions, writes the committed journal and sealed segment byte for
// byte.
func TestDurableFixtureReproduced(t *testing.T) {
	dir := t.TempDir()
	writeFixtureStore(t, dir)
	for _, name := range fixtureFiles {
		want, err := os.ReadFile(filepath.Join(fixtureDir, encodeTenant(fixtureTenant), name))
		if err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(filepath.Join(dir, encodeTenant(fixtureTenant), name))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: store writes %d bytes that differ from the %d-byte fixture", name, len(got), len(want))
		}
	}
}
