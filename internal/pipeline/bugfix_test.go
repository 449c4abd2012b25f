package pipeline

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"testing"

	"primacy/internal/core"
)

// The default shard size must be a whole multiple of the effective chunk
// size, so interior shards contain only full chunks and sharding never
// manufactures runt chunks at shard seams.
func TestDefaultShardBytesIsChunkMultiple(t *testing.T) {
	cases := []struct {
		name       string
		chunkBytes int
		elemBytes  int
		workers    int
		total      int
	}{
		{"default_chunk", 0, 8, 4, 50 << 20},
		{"small_chunk", 8 << 10, 8, 3, 10*(8<<10) + 8},
		{"odd_chunk", 100001, 8, 5, 3 << 20}, // effective chunk 100000 after elem rounding
		{"float32", 4 << 10, 4, 7, 1<<20 + 4},
		{"tiny_input", 8 << 10, 8, 4, 16},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			opts := Options{Workers: tc.workers, Core: core.Options{ChunkBytes: tc.chunkBytes}}
			chunk := tc.chunkBytes
			if chunk == 0 {
				chunk = 3 << 20
			}
			chunk -= chunk % tc.elemBytes
			sb := opts.shardBytes(tc.total, tc.elemBytes)
			if sb%chunk != 0 {
				t.Fatalf("shardBytes(%d, %d) = %d, not a multiple of effective chunk %d",
					tc.total, tc.elemBytes, sb, chunk)
			}
			if sb < chunk {
				t.Fatalf("shardBytes(%d, %d) = %d, below one chunk %d", tc.total, tc.elemBytes, sb, chunk)
			}
		})
	}
}

// End to end: with an input that does not divide evenly by workers, every
// interior shard must still hold only full chunks — only the final shard may
// carry a partial chunk.
func TestInteriorShardsHoldFullChunks(t *testing.T) {
	const chunk = 8 << 10
	opts := Options{Workers: 3, Core: core.Options{ChunkBytes: chunk}}
	// 10.5 chunks: ceil(total/3) is not a chunk multiple before rounding.
	raw := testData((10*chunk + chunk/2) / 8)

	sb := opts.shardBytes(len(raw), 8)
	if sb%chunk != 0 {
		t.Fatalf("shard size %d is not a chunk multiple", sb)
	}
	for off := 0; off < len(raw); off += sb {
		end := off + sb
		if end > len(raw) {
			end = len(raw) // final shard: partial chunk allowed
		} else if (end-off)%chunk != 0 {
			t.Fatalf("interior shard [%d,%d) holds a partial chunk", off, end)
		}
	}

	// The parallel container must still round-trip and decode to the input.
	enc, err := CompressCtx(context.Background(), raw, opts)
	if err != nil {
		t.Fatalf("Compress: %v", err)
	}
	dec, err := Decompress(enc, opts)
	if err != nil {
		t.Fatalf("Decompress: %v", err)
	}
	if !bytes.Equal(dec, raw) {
		t.Fatalf("round trip mismatch: %d raw, %d decoded", len(raw), len(dec))
	}
}

// A shard whose compressed form would overflow the u32 frame length must
// fail with ErrTooLarge, not truncate the length and corrupt the container.
// The limit is lowered via the test shim so no multi-GiB buffer is needed.
func TestCompressRejectsOversizedShard(t *testing.T) {
	old := maxShardBytes
	maxShardBytes = 64
	defer func() { maxShardBytes = old }()

	_, err := CompressCtx(context.Background(), testData(4<<10), Options{Core: core.Options{ChunkBytes: 8 << 10}})
	if !errors.Is(err, ErrTooLarge) {
		t.Fatalf("Compress error = %v, want ErrTooLarge", err)
	}
}

// A shard whose frame checksum fails names the format once, and its error
// still matches both sentinels it wraps.
func TestShardErrorNamesFormatOnce(t *testing.T) {
	raw := make([]byte, 64<<10)
	for i := range raw {
		raw[i] = byte(i * 7 / 5)
	}
	opts := Options{Workers: 1, Core: core.Options{ChunkBytes: 16 << 10}}
	enc, err := CompressCtx(context.Background(), raw, opts)
	if err != nil {
		t.Fatal(err)
	}
	shards, err := walkShards(enc)
	if err != nil {
		t.Fatal(err)
	}
	enc[shards[0].off+len(shards[0].data)/2] ^= 0x10
	_, err = DecompressCtx(context.Background(), enc, opts)
	var se *ShardError
	if !errors.As(err, &se) || se.Shard != 0 {
		t.Fatalf("got %v, want a ShardError for shard 0", err)
	}
	if n := strings.Count(err.Error(), "pipeline:"); n != 1 {
		t.Fatalf("%q names the format %d times, want once", err, n)
	}
	if !errors.Is(err, core.ErrCorrupt) || !errors.Is(err, core.ErrChecksum) {
		t.Fatalf("%v does not match core.ErrCorrupt and core.ErrChecksum", err)
	}
}
