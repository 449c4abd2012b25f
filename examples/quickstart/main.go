// Quickstart: compress and decompress a buffer of scientific doubles with
// the PRIMACY preconditioner and inspect the compression statistics.
package main

import (
	"context"
	"fmt"
	"log"
	"math"
	"math/rand"

	"primacy"
)

func main() {
	// Hard-to-compress scientific data: values in a narrow magnitude band
	// with fully random fractional parts (machine noise, roundoff).
	rng := rand.New(rand.NewSource(1))
	values := make([]float64, 200_000)
	for i := range values {
		values[i] = (1 + rng.Float64()) * math.Pow(10, float64(rng.Intn(3)))
	}

	enc, err := primacy.CompressFloat64s(values, primacy.Options{})
	if err != nil {
		log.Fatal(err)
	}
	dec, err := primacy.DecompressFloat64s(enc)
	if err != nil {
		log.Fatal(err)
	}
	for i := range values {
		if math.Float64bits(dec[i]) != math.Float64bits(values[i]) {
			log.Fatalf("value %d not restored bit-exactly", i)
		}
	}
	raw := len(values) * 8
	fmt.Printf("lossless: %d values restored bit-exactly\n", len(values))
	fmt.Printf("size: %d -> %d bytes (%.3fx)\n", raw, len(enc), float64(raw)/float64(len(enc)))

	// A Codec's AppendCompressCtx exposes the paper's performance-model inputs.
	data := make([]byte, 0, raw)
	for _, v := range values {
		bits := math.Float64bits(v)
		data = append(data,
			byte(bits>>56), byte(bits>>48), byte(bits>>40), byte(bits>>32),
			byte(bits>>24), byte(bits>>16), byte(bits>>8), byte(bits))
	}
	var codec primacy.Codec
	_, stats, err := codec.AppendCompressCtx(context.Background(), nil, data, primacy.Options{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("alpha1=%.2f (ID-mapped fraction)  alpha2=%.2f (compressible mantissa fraction)\n",
		stats.Alpha1, stats.Alpha2)
	fmt.Printf("sigma_ho=%.3f (high-order bytes compress to this fraction)\n", stats.SigmaHo)
	fmt.Printf("preconditioner %.0f MB/s, solver %.0f MB/s\n",
		stats.PrecThroughput()/1e6, stats.SolverThroughput()/1e6)
}
