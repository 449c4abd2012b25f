package pipeline

import (
	"bytes"
	"testing"

	"primacy/internal/core"
	"primacy/internal/datagen"
)

// TestDefaultShardGeometryWorkerInvariant pins the default shard size to a
// pure function of chunk size: the same input must shard identically no
// matter how many workers the machine has. The server's result cache drops
// worker count from its key on the strength of this.
func TestDefaultShardGeometryWorkerInvariant(t *testing.T) {
	for _, total := range []int{0, 8, 8 << 10, 3 << 20, 10 << 20} {
		var want int
		for i, w := range []int{1, 2, 4, 7, 64} {
			o := Options{Workers: w, Core: core.Options{ChunkBytes: 8 << 10}}
			sb := o.shardBytes(total, 8)
			if i == 0 {
				want = sb
				continue
			}
			if sb != want {
				t.Fatalf("total=%d: shard size %d at %d workers, %d at 1 worker", total, sb, w, want)
			}
		}
	}
}

// TestDefaultOutputBytesWorkerInvariant is the end-to-end version: with
// ShardBytes left at its default, containers compressed at different worker
// counts must be byte-identical.
func TestDefaultOutputBytesWorkerInvariant(t *testing.T) {
	raw := testData(40_000)
	var want []byte
	for i, w := range []int{1, 2, 5, 16} {
		opts := Options{Workers: w, Core: core.Options{ChunkBytes: 16 << 10}}
		enc := roundTrip(t, raw, opts)
		if i == 0 {
			want = enc
			continue
		}
		if !bytes.Equal(enc, want) {
			t.Fatalf("%d workers produced different bytes than 1 worker", w)
		}
	}
}

// TestPooledCodecOutputStable guards the codec pool: back-to-back calls that
// reuse warmed scratch arenas must keep emitting byte-identical containers.
func TestPooledCodecOutputStable(t *testing.T) {
	raw := testData(20_000)
	opts := Options{Workers: 2, Core: core.Options{ChunkBytes: 8 << 10}}
	first := roundTrip(t, raw, opts)
	for i := 0; i < 3; i++ {
		if again := roundTrip(t, raw, opts); !bytes.Equal(again, first) {
			t.Fatalf("call %d diverged after pool reuse", i+2)
		}
	}
}

// TestZlibVerdictsWorkerInvariant is worker invariance where the default
// zlib level decides something: msg_sppm's solver inputs at this size hold
// segments of the order-0, the run and the level-6 class (solver's
// TestWorkerInvariancePayloadHasAllClasses pins that) — and each
// worker's pooled encoders arrive in whatever state the shard before left
// them. The verdicts read the input only, so 1, 2 and 7 workers must write
// the same container, call after call.
func TestZlibVerdictsWorkerInvariant(t *testing.T) {
	spec, _ := datagen.ByName("msg_sppm")
	raw := spec.GenerateBytes(256 << 10)
	var want []byte
	for round := 0; round < 2; round++ {
		for _, w := range []int{1, 2, 7} {
			enc := roundTrip(t, raw, Options{Workers: w, Core: core.Options{ChunkBytes: 512 << 10}})
			if want == nil {
				want = enc
			}
			if !bytes.Equal(enc, want) {
				t.Fatalf("round %d: %d workers produced different bytes than 1 worker", round, w)
			}
		}
	}
}
