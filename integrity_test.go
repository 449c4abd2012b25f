package primacy

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"testing"
)

// buildArtifacts produces one artifact of each container format from the
// same values.
func buildArtifacts(t *testing.T) map[string][]byte {
	t.Helper()
	spec, ok := DatasetByName("flash_velx")
	if !ok {
		t.Fatal("dataset missing")
	}
	values := spec.Generate(2_000)
	raw := spec.GenerateBytes(2_000)
	out := map[string][]byte{}

	enc, err := Compress(context.Background(), raw, Options{ChunkBytes: 4096})
	if err != nil {
		t.Fatal(err)
	}
	out["core"] = enc

	enc, err = ParallelCompress(context.Background(), raw, ParallelOptions{
		ShardBytes: 4096, Core: Options{ChunkBytes: 4096}})
	if err != nil {
		t.Fatal(err)
	}
	out["parallel"] = enc

	var stream bytes.Buffer
	sw, err := NewStreamWriter(context.Background(), &stream, StreamWriterOptions{Core: Options{ChunkBytes: 4096}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sw.Write(raw); err != nil {
		t.Fatal(err)
	}
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}
	out["stream"] = stream.Bytes()

	var arch bytes.Buffer
	aw, err := NewArchiveWriter(context.Background(), &arch, Options{ChunkBytes: 4096})
	if err != nil {
		t.Fatal(err)
	}
	if err := aw.PutFloat64s("var", 0, values); err != nil {
		t.Fatal(err)
	}
	if err := aw.Close(); err != nil {
		t.Fatal(err)
	}
	out["archive"] = arch.Bytes()
	return out
}

// TestFacadeVerifyAllFormats: Verify must dispatch on the magic of every
// container format, passing clean artifacts and flagging corrupted ones.
func TestFacadeVerifyAllFormats(t *testing.T) {
	for kind, enc := range buildArtifacts(t) {
		t.Run(kind, func(t *testing.T) {
			rep, err := Verify(enc)
			if err != nil || !rep.Clean() {
				t.Fatalf("clean %s artifact flagged: %v / %v", kind, err, rep)
			}
			mut := append([]byte(nil), enc...)
			mut[2*len(mut)/3] ^= 0x04
			rep, err = Verify(mut)
			if err == nil && rep.Clean() {
				t.Fatalf("corrupt %s artifact passed Verify", kind)
			}
		})
	}
	if _, err := Verify([]byte("garbage bytes here")); err == nil {
		t.Fatal("Verify accepted a non-PRIMACY input")
	}
}

// TestFacadeSalvage: DecompressSalvage recovers the intact remainder of a
// damaged sequential container through the facade.
func TestFacadeSalvage(t *testing.T) {
	spec, _ := DatasetByName("flash_velx")
	raw := spec.GenerateBytes(2_000)
	enc, err := Compress(context.Background(), raw, Options{ChunkBytes: 4096})
	if err != nil {
		t.Fatal(err)
	}
	mut := append([]byte(nil), enc...)
	mut[len(mut)/2] ^= 0x04
	if _, err := Decompress(context.Background(), mut); err == nil {
		t.Fatal("strict decode accepted corrupt container")
	}
	dec, rep, err := DecompressSalvage(mut)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Clean() {
		t.Fatal("salvage reported clean")
	}
	if len(dec) == 0 || len(dec) >= len(raw) {
		t.Fatalf("salvage recovered %d of %d bytes; want a non-empty strict subset",
			len(dec), len(raw))
	}
}

// salvageArtifacts builds one small artifact of each format salvage reads —
// a core v2 and an a-posteriori core v3 container, a parallel container and
// a stream — from 4 KiB of data in 1 KiB chunks, so each holds four chunks.
func salvageArtifacts(t *testing.T) map[string][]byte {
	t.Helper()
	spec, _ := DatasetByName("flash_velx")
	raw := spec.GenerateBytes(512)
	ctx := context.Background()
	opts := Options{ChunkBytes: 1024}
	v3 := Options{ChunkBytes: 1024, Precond: PrecondOptions{Selection: PrecondAPosteriori}}
	out := map[string][]byte{}
	var err error
	if out["PRM2"], err = Compress(ctx, raw, opts); err != nil {
		t.Fatal(err)
	}
	if out["PRM3"], err = Compress(ctx, raw, v3); err != nil {
		t.Fatal(err)
	}
	if out["PRP2"], err = ParallelCompress(ctx, raw, ParallelOptions{ShardBytes: 2048, Core: opts}); err != nil {
		t.Fatal(err)
	}
	var s bytes.Buffer
	sw, err := NewStreamWriter(ctx, &s, StreamWriterOptions{Core: opts})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sw.Write(raw); err != nil {
		t.Fatal(err)
	}
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}
	out["PRS2"] = s.Bytes()
	for magic, enc := range out {
		if string(enc[:4]) != magic {
			t.Fatalf("%s artifact starts %q", magic, enc[:4])
		}
	}
	return out
}

// strictDecode decodes an artifact of the given format without salvage.
func strictDecode(format string, data []byte) ([]byte, error) {
	ctx := context.Background()
	switch format[:3] {
	case "PRP":
		return ParallelDecompress(ctx, data, ParallelOptions{})
	case "PRS":
		return io.ReadAll(NewStreamReader(ctx, bytes.NewReader(data)))
	}
	return Decompress(ctx, data)
}

// TestSalvageAgreesWithStrictDecode: for every single-byte flip and every
// truncation of an artifact of each format, a strict decode that succeeds is
// matched byte for byte by salvage with a clean report, and one that fails
// leaves salvage refusing the input or reporting a fault.
func TestSalvageAgreesWithStrictDecode(t *testing.T) {
	for format, enc := range salvageArtifacts(t) {
		t.Run(format, func(t *testing.T) {
			t.Parallel()
			check := func(what string, data []byte) {
				want, serr := strictDecode(format, data)
				got, rep, err := DecompressSalvage(data)
				switch {
				case serr == nil && (err != nil || !rep.Clean() || !bytes.Equal(got, want)):
					t.Fatalf("%s: strict decode succeeds, salvage gives %d of %d bytes, %v, %v", what, len(got), len(want), err, rep)
				case serr != nil && err == nil && rep.Clean():
					t.Fatalf("%s: strict decode fails (%v), salvage reports clean", what, serr)
				}
			}
			check("intact", enc)
			mut := append([]byte(nil), enc...)
			for i := range mut {
				mut[i] ^= 0xff
				check(fmt.Sprintf("flip at %d", i), mut)
				mut[i] ^= 0xff
			}
			for n := range len(enc) {
				check(fmt.Sprintf("truncated to %d", n), enc[:n])
			}
		})
	}
}
