package pipeline

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"testing"

	"primacy/internal/checksum"
	"primacy/internal/core"
	"primacy/internal/core/hostile"
)

// hostileContainers wraps core containers whose chunk records lie about one
// field each (internal/core/hostile) as one-shard PRP2 containers with a
// valid shard checksum: damage only the chunk decoder can see.
func hostileContainers(tb testing.TB) map[string][]byte {
	tb.Helper()
	enc, err := core.Compress(testData(300), core.Options{Solver: "lzo", ChunkBytes: 1600})
	if err != nil {
		tb.Fatal(err)
	}
	vs, err := hostile.Variants(enc)
	if err != nil {
		tb.Fatal(err)
	}
	out := map[string][]byte{}
	for _, v := range vs {
		c := binary.LittleEndian.AppendUint32([]byte(magicV2), 1)
		c = binary.LittleEndian.AppendUint32(c, uint32(len(v.Data)))
		c = checksum.Append(c, v.Data)
		out[v.Name] = append(c, v.Data...)
	}
	return out
}

// TestHostileShardsRejected: a shard whose checksums hold but whose chunk
// record contradicts itself is corruption, from every entry point.
func TestHostileShardsRejected(t *testing.T) {
	for name, data := range hostileContainers(t) {
		if _, err := Decompress(data, Options{}); !errors.Is(err, core.ErrCorrupt) {
			t.Errorf("%s: Decompress = %v, want core.ErrCorrupt", name, err)
		}
		// Verify's report is salvage's, so one call serves both checks.
		_, rep, err := DecompressSalvage(data)
		if err != nil || rep.Clean() {
			t.Errorf("%s: Verify = %v, %v; want a reported fault", name, rep, err)
		}
		if err != nil || rep.Clean() {
			t.Errorf("%s: salvage = %v, %v; want a reported fault", name, rep, err)
		}
	}
}

// FuzzDecompress drives the strict decoder, the salvage decoder, and the
// verifier over arbitrary bytes. None may panic, hang, or allocate
// proportionally to claimed (rather than actual) sizes; whenever the strict
// decoder accepts an input, salvage must agree with it exactly; and on every
// input it gives the verdict and output of verify-then-decode.
func FuzzDecompress(f *testing.F) {
	raw := testData(64)
	enc, err := CompressCtx(context.Background(), raw, Options{ShardBytes: 256, Core: core.Options{ChunkBytes: 256}})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(enc)
	f.Add([]byte(magicV1))
	f.Add([]byte(magicV2))
	f.Add([]byte("PRP2\x02\x00\x00\x00\x08\x00\x00\x00xxxxPRM2"))
	f.Add([]byte("PRP1\xff\xff\xff\xfftiny"))
	for _, data := range hostileContainers(f) {
		f.Add(data)
	}
	// Shards whose re-checksummed headers lie about the decoded size, the
	// number the output windows are cut from.
	for _, c := range hostileWindows(f) {
		f.Add(c.data)
	}
	for _, data := range verdictContainers(f) {
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		opts := Options{Workers: 2}
		dec, err := Decompress(data, opts)
		sal, rep, serr := DecompressSalvage(data)
		if err == nil {
			if serr != nil {
				t.Fatalf("strict decode accepted input but salvage errored: %v", serr)
			}
			if !rep.Clean() {
				t.Fatalf("strict decode accepted input but salvage reported: %v", rep)
			}
			if !bytes.Equal(dec, sal) {
				t.Fatal("strict and salvage decode disagree on a valid input")
			}
		}
		// Verify's report is the salvage report above.
		if err == nil && (serr != nil || !rep.Clean()) {
			t.Fatalf("strict decode accepted input but Verify flagged it: %v / %v", serr, rep)
		}
		// One worker, so the first failing shard is the one reported, as in
		// the reference's walk.
		if d := sameVerdict(data, Options{Workers: 1}); d != "" {
			t.Fatalf("strict decode and verify-then-decode disagree: %s", d)
		}
	})
}
