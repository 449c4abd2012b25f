package faultinject_test

import (
	"bytes"
	"context"
	"testing"

	"primacy/internal/core"
	"primacy/internal/faultinject"
	"primacy/internal/frame"
	"primacy/internal/pipeline"
	"primacy/internal/stream"
)

// frameChunk is both the shard and the segment size of the salvage table:
// every frame holds a one-chunk container, so a frame whose payload is hit
// loses exactly its chunk.
const frameChunk = 2048

// framedFormat is a container of frames of core containers, salvaged.
type framedFormat struct {
	name    string
	head    int // bytes before the first frame
	encode  func(t *testing.T, raw []byte) []byte
	salvage func(t *testing.T, enc []byte) ([]byte, *core.CorruptionReport)
}

var framedFormats = []framedFormat{
	{
		name: "pipeline",
		head: 8, // magic + shard count
		encode: func(t *testing.T, raw []byte) []byte {
			enc, err := pipeline.CompressCtx(context.Background(), raw, pipeline.Options{Core: core.Options{ChunkBytes: frameChunk}})
			if err != nil {
				t.Fatal(err)
			}
			return enc
		},
		salvage: func(t *testing.T, enc []byte) ([]byte, *core.CorruptionReport) {
			out, rep, err := pipeline.DecompressSalvage(enc)
			if err != nil {
				t.Fatal(err)
			}
			return out, rep
		},
	},
	{
		name: "stream",
		head: 4, // magic
		encode: func(t *testing.T, raw []byte) []byte {
			var sink bytes.Buffer
			w, err := stream.NewWriter(&sink, core.Options{ChunkBytes: frameChunk})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := w.Write(raw); err != nil {
				t.Fatal(err)
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			return sink.Bytes()
		},
		salvage: func(t *testing.T, enc []byte) ([]byte, *core.CorruptionReport) {
			out, rep, err := stream.DecompressSalvage(enc)
			if err != nil {
				t.Fatal(err)
			}
			return out, rep
		},
	},
}

// TestFramedSalvageTable damages one frame of a parallel container and of a
// stream the same four ways, and holds both salvage functions to the same
// answer: every intact frame is recovered, and so is a payload whose frame
// header alone was hit.
func TestFramedSalvageTable(t *testing.T) {
	const frames, victim = 6, 2
	raw := chaosData(frames*frameChunk/8, 36)
	without := func(lo, hi int) []byte { return append(append([]byte(nil), raw[:lo]...), raw[hi:]...) }
	cases := []struct {
		name   string
		damage func(enc []byte, at, end int) []byte // at: the victim's frame, end: the byte after it
		want   []byte
	}{
		{"zeroed length", func(enc []byte, at, _ int) []byte {
			return faultinject.ZeroRegion(enc, at, 4)
		}, raw},
		{"flipped CRC field", func(enc []byte, at, _ int) []byte {
			return faultinject.FlipBit(enc, (at+5)*8)
		}, raw},
		{"flipped payload bit", func(enc []byte, at, end int) []byte {
			return faultinject.FlipBit(enc, (at+frame.HeaderLen(true)+end)/2*8)
		}, without(victim*frameChunk, (victim+1)*frameChunk)},
		{"cut tail", func(enc []byte, at, end int) []byte {
			return enc[:(at+end)/2]
		}, raw[:victim*frameChunk]},
	}
	for _, format := range framedFormats {
		enc := format.encode(t, raw)
		// Find the victim's frame.
		at := format.head
		for i := 0; i < victim; i++ {
			_, next, err := frame.Next(enc, at, true)
			if err != nil {
				t.Fatalf("%s: frame %d: %v", format.name, i, err)
			}
			at = next
		}
		_, end, err := frame.Next(enc, at, true)
		if err != nil {
			t.Fatalf("%s: victim frame: %v", format.name, err)
		}
		for _, c := range cases {
			t.Run(format.name+"/"+c.name, func(t *testing.T) {
				out, rep := format.salvage(t, c.damage(enc, at, end))
				if rep.Clean() {
					t.Fatal("damage went unreported")
				}
				if !bytes.Equal(out, c.want) {
					t.Fatalf("salvage recovered %d bytes, want %d", len(out), len(c.want))
				}
			})
		}
	}
}
