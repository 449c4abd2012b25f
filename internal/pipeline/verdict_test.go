package pipeline

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"testing"

	"primacy/internal/core"
	"primacy/internal/frame"
)

// verifyThenDecode is the strict decode as it stood while every shard's frame
// CRC was a pass of its own: each shard verified against its frame, then
// decoded, in shard order, the first failure the verdict. DecompressCtx must
// give every input the verdict and the output this gives it.
func verifyThenDecode(data []byte) ([]byte, error) {
	shards, err := walkShards(data)
	if err != nil {
		return nil, err
	}
	out := []byte{}
	for i, sh := range shards {
		if err := sh.frame.Verify(); err != nil {
			return nil, &ShardError{Shard: i, Err: fmt.Errorf("%w: %w", ErrCorrupt, err)}
		}
		dec, err := core.Decompress(sh.data)
		if err != nil {
			return nil, &ShardError{Shard: i, Err: err}
		}
		out = append(out, dec...)
	}
	return out, nil
}

// sameVerdict reports how DecompressCtx and verifyThenDecode disagree on data,
// or "" when they agree: on acceptance, on each sentinel, and on the output.
func sameVerdict(data []byte, opts Options) string {
	got, err := DecompressCtx(context.Background(), data, opts)
	want, werr := verifyThenDecode(data)
	for _, s := range []error{ErrCorrupt, core.ErrCorrupt, frame.ErrChecksum} {
		if errors.Is(err, s) != errors.Is(werr, s) {
			return fmt.Sprintf("on %q: %v, reference %v", s, err, werr)
		}
	}
	if (err == nil) != (werr == nil) {
		return fmt.Sprintf("%v, reference %v", err, werr)
	}
	if err == nil && !bytes.Equal(got, want) {
		return fmt.Sprintf("accepted with %d bytes, reference %d", len(got), len(want))
	}
	return ""
}

// verdictContainers is a small three-shard v2 container, two chunks a shard,
// and what the flips and cuts of TestDecompressVerdictMatchesVerifyFirst are
// made of; the same shards in a v1 container; and shard-length lies: shard 0's
// last bytes moved to the head of shard 1, each frame re-checksummed (only
// core can tell) or not.
func verdictContainers(tb testing.TB) map[string][]byte {
	tb.Helper()
	enc, err := CompressCtx(context.Background(), shardTestData(3*64, 7), Options{ShardBytes: 512, Core: core.Options{Solver: "lzo", ChunkBytes: 256}})
	if err != nil {
		tb.Fatal(err)
	}
	shards, err := walkShards(enc)
	if err != nil || len(shards) != 3 {
		tb.Fatalf("%d shards, %v; want 3", len(shards), err)
	}
	s0, s1, s2 := shards[0].data, shards[1].data, shards[2].data
	moved := func(k int) (a, b []byte) {
		return s0[:len(s0)-k], append(append([]byte(nil), s0[len(s0)-k:]...), s1...)
	}
	lie1a, lie1b := moved(1)
	lie8a, lie8b := moved(8)
	lie := frameShards(true, lie1a, lie1b, s2)
	copy(lie[8+4:], enc[8+4:8+8])                                  // shard 0's old CRC
	copy(lie[8+8+len(lie1a)+4:], enc[8+8+len(s0)+4:8+8+len(s0)+8]) // shard 1's
	return map[string][]byte{
		"v2":                    enc,
		"v1":                    frameShards(false, s0, s1, s2),
		"length lie, CRCs kept": lie,
		"length lie by 1":       frameShards(true, lie1a, lie1b, s2),
		"length lie by 8":       frameShards(true, lie8a, lie8b, s2),
		"length lie, v1":        frameShards(false, lie8a, lie8b, s2),
	}
}

// TestDecompressVerdictMatchesVerifyFirst: taking a shard's CRC from core
// changes no verdict. Over every single-byte flip and every cut of a small
// container, v2 and v1, and over shard-length lies, DecompressCtx agrees with
// verify-then-decode on ErrCorrupt, core.ErrCorrupt and frame.ErrChecksum, and
// on the output whenever the input is accepted.
func TestDecompressVerdictMatchesVerifyFirst(t *testing.T) {
	for name, data := range verdictContainers(t) {
		for _, opts := range []Options{{Workers: 1}, {Workers: 3}} {
			if d := sameVerdict(data, opts); d != "" {
				t.Fatalf("%s, %d workers: %s", name, opts.Workers, d)
			}
			if name != "v2" && name != "v1" {
				continue
			}
			for i := range data {
				for _, x := range []byte{0x01, 0x80} {
					flipped := append([]byte(nil), data...)
					flipped[i] ^= x
					if d := sameVerdict(flipped, opts); d != "" {
						t.Fatalf("%s, %d workers, byte %d ^ %#02x: %s", name, opts.Workers, i, x, d)
					}
				}
			}
			for n := 0; n < len(data); n++ {
				if d := sameVerdict(data[:n], opts); d != "" {
					t.Fatalf("%s, %d workers, cut to %d bytes: %s", name, opts.Workers, n, d)
				}
			}
		}
	}
}
