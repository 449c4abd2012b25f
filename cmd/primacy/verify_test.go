package main

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"primacy"
)

// runCLI parses args, runs the command, and returns its stdout and error.
func runCLI(t *testing.T, args ...string) (string, error) {
	t.Helper()
	c, err := parseArgs(args)
	if err != nil {
		t.Fatalf("parseArgs(%v): %v", args, err)
	}
	var out bytes.Buffer
	err = c.run(&out)
	return out.String(), err
}

func TestParseArgsVerifyAndSalvage(t *testing.T) {
	c, err := parseArgs([]string{"verify", "file.prm"})
	if err != nil || !c.verify || c.input != "file.prm" {
		t.Fatalf("verify subcommand: %+v, %v", c, err)
	}
	c, err = parseArgs([]string{"-d", "-salvage", "file.prm"})
	if err != nil || !c.salvage || !c.decompress {
		t.Fatalf("-d -salvage: %+v, %v", c, err)
	}
	for i, bad := range [][]string{
		{"verify", "-c", "file.prm"},
		{"verify", "-d", "file.prm"},
		{"-salvage", "file.prm"},
		{"-c", "-salvage", "file.prm"},
	} {
		if _, err := parseArgs(bad); err == nil {
			t.Errorf("case %d (%v): accepted", i, bad)
		}
	}
}

// TestVerifyCommand compresses a file, verifies it clean, corrupts it, and
// expects verify to fail with a located fault.
func TestVerifyCommand(t *testing.T) {
	dir := t.TempDir()
	in := writeTestInput(t, dir, 2_000)
	enc := in + ".prm"
	if _, err := runCLI(t, "-c", "-o", enc, in); err != nil {
		t.Fatal(err)
	}
	out, err := runCLI(t, "verify", enc)
	if err != nil {
		t.Fatalf("clean file failed verify: %v", err)
	}
	if !strings.Contains(out, "ok") {
		t.Fatalf("verify output %q does not report ok", out)
	}
	blob, err := os.ReadFile(enc)
	if err != nil {
		t.Fatal(err)
	}
	blob[len(blob)/2] ^= 0x10
	if err := os.WriteFile(enc, blob, 0o644); err != nil {
		t.Fatal(err)
	}
	out, err = runCLI(t, "verify", enc)
	if err == nil {
		t.Fatal("verify passed a corrupt file")
	}
	if !strings.Contains(out, "corruption") {
		t.Fatalf("verify output %q does not report the corruption", out)
	}
}

// TestVerifyRejectsGarbage: verify of a non-PRIMACY file errors out.
func TestVerifyRejectsGarbage(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "junk")
	if err := os.WriteFile(path, []byte("not a container"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := runCLI(t, "verify", path); err == nil {
		t.Fatal("verify accepted garbage")
	}
}

// TestArchiveDecodeAndSalvage: -d concatenates an archive's entries
// byte-exactly, and -d -salvage drops a corrupted entry while keeping the
// rest.
func TestArchiveDecodeAndSalvage(t *testing.T) {
	dir := t.TempDir()
	spec, ok := primacy.DatasetByName("flash_velx")
	if !ok {
		t.Fatal("dataset missing")
	}
	values := spec.Generate(4_000)
	raw := spec.GenerateBytes(4_000)

	var buf bytes.Buffer
	aw, err := primacy.NewArchiveWriter(context.Background(), &buf, primacy.Options{ChunkBytes: 8192})
	if err != nil {
		t.Fatal(err)
	}
	if err := aw.PutFloat64s("velx", 0, values[:2_000]); err != nil {
		t.Fatal(err)
	}
	if err := aw.PutFloat64s("velx", 1, values[2_000:]); err != nil {
		t.Fatal(err)
	}
	if err := aw.Close(); err != nil {
		t.Fatal(err)
	}
	arch := filepath.Join(dir, "data.par")
	if err := os.WriteFile(arch, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	dec := filepath.Join(dir, "dec.f64")
	if _, err := runCLI(t, "-d", "-o", dec, arch); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(dec)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, raw) {
		t.Fatalf("-d on archive: got %d bytes, want the %d raw bytes byte-exact", len(got), len(raw))
	}

	// Corrupt the first entry's payload: strict -d must refuse, salvage must
	// keep the intact second entry byte-exactly.
	blob := append([]byte(nil), buf.Bytes()...)
	blob[400] ^= 0x40
	if err := os.WriteFile(arch, blob, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := runCLI(t, "-d", "-o", dec, arch); err == nil {
		t.Fatal("strict -d accepted a corrupt archive")
	}
	rec := filepath.Join(dir, "rec.f64")
	out, err := runCLI(t, "-d", "-salvage", "-o", rec, arch)
	if err != nil {
		t.Fatalf("-d -salvage failed: %v", err)
	}
	if !strings.Contains(out, "salvage:") {
		t.Fatalf("salvage output %q does not include the report", out)
	}
	got, err = os.ReadFile(rec)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, raw[len(raw)/2:]) {
		t.Fatalf("salvage recovered %d bytes, want the intact entry's %d", len(got), len(raw)/2)
	}
}

// TestSalvageFlag corrupts a parallel container and recovers the intact
// portion via -d -salvage.
func TestSalvageFlag(t *testing.T) {
	dir := t.TempDir()
	in := writeTestInput(t, dir, 4_000)
	enc := in + ".prm"
	if _, err := runCLI(t, "-c", "-chunk", "4096", "-o", enc, in); err != nil {
		t.Fatal(err)
	}
	blob, err := os.ReadFile(enc)
	if err != nil {
		t.Fatal(err)
	}
	blob[len(blob)/2] ^= 0x10
	if err := os.WriteFile(enc, blob, 0o644); err != nil {
		t.Fatal(err)
	}
	// Strict decompression must refuse the damaged file.
	if _, err := runCLI(t, "-d", "-o", filepath.Join(dir, "strict.f64"), enc); err == nil {
		t.Fatal("strict -d accepted a corrupt file")
	}
	rec := filepath.Join(dir, "rec.f64")
	out, err := runCLI(t, "-d", "-salvage", "-o", rec, enc)
	if err != nil {
		t.Fatalf("-d -salvage failed: %v", err)
	}
	if !strings.Contains(out, "salvage:") {
		t.Fatalf("salvage output %q does not include the report", out)
	}
	raw, err := os.ReadFile(in)
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(rec)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) == 0 || len(got) >= len(raw) {
		t.Fatalf("salvage recovered %d of %d bytes; want a non-empty strict subset", len(got), len(raw))
	}
}
