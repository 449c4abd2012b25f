package pipeline

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"testing"

	"primacy/internal/core"
	"primacy/internal/faultinject"
)

// TestV1ContainerDecodes proves pre-checksum parallel containers still
// decompress byte-identically after the v2 format bump.
func TestV1ContainerDecodes(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("testdata", "v1", "raw.bin"))
	if err != nil {
		t.Fatal(err)
	}
	enc, err := os.ReadFile(filepath.Join("testdata", "v1", "container.prp"))
	if err != nil {
		t.Fatal(err)
	}
	if string(enc[:4]) != magicV1 {
		t.Fatalf("fixture magic %q, want v1", enc[:4])
	}
	dec, err := Decompress(enc, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dec, raw) {
		t.Fatal("v1 parallel container did not decompress byte-identically")
	}
}

// TestEveryBitFlipDetected: any single-bit flip in a v2 parallel container
// must error, never decode silently wrong.
func TestEveryBitFlipDetected(t *testing.T) {
	raw := testData(128)
	opts := Options{ShardBytes: 512, Core: core.Options{ChunkBytes: 256}}
	enc, err := CompressCtx(context.Background(), raw, opts)
	if err != nil {
		t.Fatal(err)
	}
	for bit := 0; bit < len(enc)*8; bit++ {
		dec, err := Decompress(faultinject.FlipBit(enc, bit), opts)
		if err == nil {
			if !bytes.Equal(dec, raw) {
				t.Fatalf("bit flip %d decoded silently to wrong data", bit)
			}
			t.Fatalf("bit flip %d went completely undetected", bit)
		}
	}
}

// TestCorruptionBattery: the shared mutator battery must never panic the
// decoder or yield silently wrong output.
func TestCorruptionBattery(t *testing.T) {
	raw := testData(512)
	opts := Options{ShardBytes: 1024, Core: core.Options{ChunkBytes: 512}}
	enc, err := CompressCtx(context.Background(), raw, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range faultinject.Battery(enc, 13, 7) {
		dec, err := Decompress(m.Data, opts)
		if err == nil && !bytes.Equal(dec, raw) {
			t.Fatalf("%s: decoded silently to wrong data", m.Name)
		}
	}
}

// TestSalvageCorruptShard: with one shard damaged, salvage recovers the
// rest (the damaged shard itself degrades to its intact chunks).
func TestSalvageCorruptShard(t *testing.T) {
	raw := testData(1024)
	opts := Options{ShardBytes: 2048, Core: core.Options{ChunkBytes: 512}}
	enc, err := CompressCtx(context.Background(), raw, opts)
	if err != nil {
		t.Fatal(err)
	}
	shards, err := walkShards(enc)
	if err != nil {
		t.Fatal(err)
	}
	if len(shards) < 3 {
		t.Fatalf("want ≥3 shards, got %d", len(shards))
	}
	// Flip a bit in the middle of shard 1's payload.
	mid := shards[1].off + len(shards[1].data)/2
	mut := faultinject.FlipBit(enc, mid*8)
	if _, err := Decompress(mut, opts); err == nil {
		t.Fatal("strict decode accepted corrupt shard")
	}
	dec, rep, err := DecompressSalvage(mut)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Clean() {
		t.Fatal("salvage reported clean")
	}
	// All of shard 0 and shard 2+ must be present verbatim.
	shard0, err := core.Decompress(shards[0].data)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(dec, shard0) {
		t.Fatal("salvage lost shard 0")
	}
	tail := raw[2*2048:]
	if !bytes.HasSuffix(dec, tail) {
		t.Fatal("salvage lost the shards after the corrupt one")
	}
}

// TestVerify flags corrupt containers and passes clean ones.
func TestVerify(t *testing.T) {
	raw := testData(256)
	enc, err := CompressCtx(context.Background(), raw, Options{ShardBytes: 1024, Core: core.Options{ChunkBytes: 512}})
	if err != nil {
		t.Fatal(err)
	}
	_, rep, err := DecompressSalvage(enc)
	if err != nil || !rep.Clean() {
		t.Fatalf("clean container flagged: %v / %v", err, rep)
	}
	_, rep, err = DecompressSalvage(faultinject.FlipBit(enc, len(enc)/2*8))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Clean() {
		t.Fatal("corrupt container reported clean")
	}
}

// TestShardCountClaimFailsFast: a tiny container claiming millions of
// shards must be rejected before any allocation proportional to the claim.
func TestShardCountClaimFailsFast(t *testing.T) {
	enc := []byte("PRP2\xff\xff\xff\x00" + "tiny")
	if _, err := Decompress(enc, Options{}); err == nil {
		t.Fatal("absurd shard count accepted")
	}
}
