// Insitu: drive the live staging transport — compute-node goroutines
// encode chunks in parallel and ship them through a rate-limited collective
// link and disk to a real file, then restart from it. This is the working
// (wall-clock) counterpart of the discrete-event simulation in the staging
// example: the same ordering — PRIMACY > vanilla zlib > null on writes —
// emerges from actual concurrent execution.
package main

import (
	"bytes"
	"context"
	"fmt"
	"log"
	"os"

	"primacy"
	"primacy/internal/core"
	"primacy/internal/datagen"
)

const (
	rho       = 8
	elemCount = 48 << 10 // doubles per compute node (384 KB)
)

func main() {
	spec, ok := datagen.ByName("num_comet")
	if !ok {
		log.Fatal("dataset missing")
	}
	chunks := make([][]byte, rho)
	for i := range chunks {
		s := spec
		s.Seed += int64(i)
		chunks[i] = s.GenerateBytes(elemCount)
	}
	raw := 0
	for _, c := range chunks {
		raw += len(c)
	}
	fmt.Printf("staging group: %d compute nodes × %d KB; link 512 MB/s, disk 6 MB/s\n",
		rho, len(chunks[0])>>10)

	base := Config{Rho: rho, LinkBps: 512e6, DiskBps: 6e6}
	codecs := []Codec{
		NullCodec{},
		VanillaCodec{Solver: "zlib"},
		PrimacyCodec{Opts: core.Options{ChunkBytes: 256 << 10}},
	}
	var prmFile string
	for _, codec := range codecs {
		cfg := base
		cfg.Codec = codec
		f, err := os.CreateTemp("", "insitu-*.ckpt")
		if err != nil {
			log.Fatal(err)
		}
		rep, err := WriteTimestep(cfg, chunks, f)
		if err != nil {
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-8s write: %6.2f MB/s  (%d -> %d KB shipped, %v)\n",
			codec.Name(), rep.Throughput/1e6, raw>>10, rep.ShippedBytes>>10,
			rep.Elapsed.Round(1e6))
		if codec.Name() == "primacy" {
			prmFile = f.Name()
		} else {
			os.Remove(f.Name())
		}
	}

	// Restart from the PRIMACY checkpoint and verify bit-exactness.
	f, err := os.Open(prmFile)
	if err != nil {
		log.Fatal(err)
	}
	defer os.Remove(prmFile)
	defer f.Close()
	cfg := base
	cfg.Codec = PrimacyCodec{Opts: core.Options{ChunkBytes: 256 << 10}}
	cfg.DiskBps = 60e6 // reads are faster on the paper's system too
	restored, rrep, err := ReadTimestep(cfg, f)
	if err != nil {
		log.Fatal(err)
	}
	for i := range chunks {
		if !bytes.Equal(restored[i], chunks[i]) {
			log.Fatalf("node %d state differs after restart", i)
		}
	}
	fmt.Printf("restart: %6.2f MB/s, all %d node states bit-exact\n",
		rrep.Throughput/1e6, rho)

	// The same chunks through the library's high-level API for reference.
	enc, err := primacy.Compress(context.Background(), chunks[0], primacy.Options{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("(single-chunk ratio for reference: %.2fx)\n",
		float64(len(chunks[0]))/float64(len(enc)))
}
