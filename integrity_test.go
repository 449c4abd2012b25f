package primacy

import (
	"bytes"
	"context"
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
