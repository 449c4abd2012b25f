package pipeline

import (
	"bytes"
	"testing"

	"primacy/internal/core"
	"primacy/internal/precond"
)

// TestPrecondV3ShardSalvageResync: preconditioned shards embed v3 (PRM3)
// containers, which must round-trip through the parallel path and — after a
// framing fault destroys the first shard's frame header and container magic —
// still be findable by the lenient resync scan, which locks onto embedded
// container magics.
func TestPrecondV3ShardSalvageResync(t *testing.T) {
	const shardBytes = 64 << 10
	raw := testData(30_000)
	opts := Options{
		ShardBytes: shardBytes,
		Core: core.Options{
			ChunkBytes: 16 << 10,
			Precond:    core.PrecondOptions{Selection: precond.APriori},
		},
	}
	enc := roundTrip(t, raw, opts)
	if !bytes.Contains(enc, []byte("PRM3")) {
		t.Fatal("preconditioned shards did not produce v3 containers")
	}
	_, rep, err := DecompressSalvage(enc)
	if err != nil || !rep.Clean() {
		t.Fatalf("verify: err=%v report=%v", err, rep)
	}
	// Flip the first shard's frame header (len+CRC at offset 8) and the
	// embedded container magic behind it: resync can only recover the rest by
	// scanning for the next shard's PRM3 payload.
	mut := append([]byte(nil), enc...)
	for i := 8; i < 20; i++ {
		mut[i] ^= 0xFF
	}
	out, rep, err := DecompressSalvage(mut)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Clean() {
		t.Fatal("report clean despite destroyed shard frame")
	}
	if want := raw[shardBytes:]; !bytes.Equal(out, want) {
		t.Fatalf("salvage recovered %d bytes, want the %d after the damaged shard",
			len(out), len(want))
	}
}
