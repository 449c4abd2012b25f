package primacy_test

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"log"
	"math"

	"primacy"
)

// The basic workflow: compress a slice of doubles, decompress it, and
// verify bit-exactness.
func Example() {
	values := []float64{3.14159, 2.71828, 1.41421, 0.57721}
	for i := 0; i < 10_000; i++ {
		values = append(values, float64(i)*0.001)
	}
	enc, err := primacy.CompressFloat64s(values, primacy.Options{})
	if err != nil {
		log.Fatal(err)
	}
	dec, err := primacy.DecompressFloat64s(enc)
	if err != nil {
		log.Fatal(err)
	}
	exact := true
	for i := range values {
		if math.Float64bits(dec[i]) != math.Float64bits(values[i]) {
			exact = false
		}
	}
	fmt.Println("values:", len(dec), "bit-exact:", exact)
	// Output:
	// values: 10004 bit-exact: true
}

// A Codec's AppendCompressCtx exposes the parameters of the paper's
// performance model alongside the compressed bytes, which it appends to a
// caller-owned destination (nil here).
func ExampleCodec_AppendCompressCtx() {
	spec, _ := primacy.DatasetByName("obs_temp")
	raw := spec.GenerateBytes(50_000)
	var c primacy.Codec
	_, stats, err := c.AppendCompressCtx(context.Background(), nil, raw, primacy.Options{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("alpha1=%.2f compresses=%v chunks=%d\n",
		stats.Alpha1, stats.Ratio() > 1, stats.Chunks)
	// Output:
	// alpha1=0.25 compresses=true chunks=1
}

// Streaming compression suits incremental producers like checkpoint
// writers: data is emitted as independent chunk segments.
func ExampleNewStreamWriter() {
	spec, _ := primacy.DatasetByName("msg_lu")
	raw := spec.GenerateBytes(20_000)

	var sink bytes.Buffer
	w, err := primacy.NewStreamWriter(context.Background(), &sink,
		primacy.StreamWriterOptions{Core: primacy.Options{ChunkBytes: 64 << 10}})
	if err != nil {
		log.Fatal(err)
	}
	for pos := 0; pos < len(raw); pos += 5_000 {
		end := pos + 5_000
		if end > len(raw) {
			end = len(raw)
		}
		if _, err := w.Write(raw[pos:end]); err != nil {
			log.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		log.Fatal(err)
	}

	dec, err := io.ReadAll(primacy.NewStreamReader(context.Background(), bytes.NewReader(sink.Bytes())))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("round trip:", bytes.Equal(dec, raw))
	// Output:
	// round trip: true
}

// The Section III model predicts end-to-end staging throughput on systems
// you do not have.
func ExampleModelParams() {
	p := primacy.ModelParams{
		ChunkBytes: 3 << 20,
		Alpha1:     0.25, Alpha2: 0.15,
		SigmaHo: 0.1, SigmaLo: 0.3,
		Rho: 8, Theta: 1200e6, MuWrite: 12e6,
		TPrec: 400e6, TComp: 50e6,
	}
	null, err := p.WriteNoCompression()
	if err != nil {
		log.Fatal(err)
	}
	prim, err := p.WritePRIMACY()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("PRIMACY wins on a slow shared disk:", prim.Throughput > null.Throughput)
	// Output:
	// PRIMACY wins on a slow shared disk: true
}
