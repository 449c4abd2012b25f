package pipeline

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"testing"

	"primacy/internal/core"
)

// v2FixtureOpts is the geometry of the committed v2 fixture: the v1 fixture's
// 4 shards of two 2 KiB chunks each.
var v2FixtureOpts = Options{ShardBytes: 4096, Core: core.Options{ChunkBytes: 2048}}

// TestWriteV2Fixture regenerates testdata/v2/container.prp from
// testdata/v1/raw.bin when PRIMACY_WRITE_FIXTURES=1. The fixture is committed,
// not rebuilt: it pins the bytes the v2 writer emits.
func TestWriteV2Fixture(t *testing.T) {
	if os.Getenv("PRIMACY_WRITE_FIXTURES") != "1" {
		t.Skip("set PRIMACY_WRITE_FIXTURES=1 to regenerate committed fixtures")
	}
	raw, err := os.ReadFile(filepath.Join("testdata", "v1", "raw.bin"))
	if err != nil {
		t.Fatal(err)
	}
	enc, err := CompressCtx(context.Background(), raw, v2FixtureOpts)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Join("testdata", "v2"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join("testdata", "v2", "container.prp"), enc, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestV2ContainerPinned: today's writer reproduces the committed v2 container
// byte for byte, and every read path decodes it to raw.bin.
func TestV2ContainerPinned(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("testdata", "v1", "raw.bin"))
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join("testdata", "v2", "container.prp"))
	if err != nil {
		t.Fatal(err)
	}
	if string(want[:4]) != magicV2 {
		t.Fatalf("fixture magic %q, want v2", want[:4])
	}
	for _, workers := range []int{1, 2, 4} {
		opts := v2FixtureOpts
		opts.Workers = workers
		enc, err := CompressCtx(context.Background(), raw, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(enc, want) {
			t.Fatalf("%d workers: writer emits %d bytes that differ from the %d-byte fixture", workers, len(enc), len(want))
		}
	}
	dec, err := Decompress(want, Options{})
	if err != nil || !bytes.Equal(dec, raw) {
		t.Fatalf("strict decode: err=%v identical=%v", err, bytes.Equal(dec, raw))
	}
	sal, rep, err := DecompressSalvage(want)
	if err != nil || !rep.Clean() || !bytes.Equal(sal, raw) {
		t.Fatalf("salvage: err=%v report=%v identical=%v", err, rep, bytes.Equal(sal, raw))
	}
	if _, rep, err := DecompressSalvage(want); err != nil || !rep.Clean() {
		t.Fatalf("verify: err=%v report=%v", err, rep)
	}
}
