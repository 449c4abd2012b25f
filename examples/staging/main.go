// Staging: reproduce the paper's end-to-end experiment interactively. A
// staging group (8 compute nodes per I/O node, Jaguar-like parameters)
// writes checkpoints through a shared network and disk; the example measures
// the real codec on a chosen dataset, then simulates the null case, vanilla
// zlib/lzo, and PRIMACY, and prints the end-to-end throughput each achieves
// — the live version of Figure 4.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"time"

	"primacy"
)

func main() {
	log.SetFlags(0)
	dataset := flag.String("dataset", "flash_velx", "paper dataset to stage")
	n := flag.Int("n", 384<<10, "elements per compute-node chunk stream")
	flag.Parse()

	spec, ok := primacy.DatasetByName(*dataset)
	if !ok {
		log.Fatalf("unknown dataset %q (try -dataset obs_temp)", *dataset)
	}
	raw := spec.GenerateBytes(*n)
	fmt.Printf("dataset %s: %d MB of doubles per node\n", spec.Name, len(raw)>>20)

	// Measure the real codecs on this machine.
	var codec primacy.Codec
	prmEnc, stats, err := codec.AppendCompressCtx(context.Background(), nil, raw, primacy.Options{})
	if err != nil {
		log.Fatal(err)
	}
	prmCompBps := timeIt(len(raw), func() {
		if _, err := primacy.Compress(context.Background(), raw, primacy.Options{}); err != nil {
			log.Fatal(err)
		}
	})
	prmFraction := float64(len(prmEnc)) / float64(len(raw))

	// The staging environment (Sec. IV-A substitute): rho=8, 3MB chunks,
	// shared collective network, slow shared write path.
	base := primacy.SimConfig{
		Rho:        8,
		Timesteps:  4,
		ChunkBytes: 3 << 20,
		NetworkBps: 1200e6,
		DiskBps:    12e6,
		JitterFrac: 0.03,
		Seed:       42,
	}

	null := base
	null.CompressedFraction = 1
	nullRes, err := primacy.SimulateWrite(null)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\n%-22s %8.2f MB/s\n", "null (no compression):", nullRes.Throughput/1e6)

	prm := base
	prm.CompressedFraction = prmFraction
	prm.CodecBps = prmCompBps
	prmRes, err := primacy.SimulateWrite(prm)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%-22s %8.2f MB/s (%+.0f%%)  [fraction %.2f, codec %.0f MB/s, alpha2 %.2f]\n",
		"PRIMACY:", prmRes.Throughput/1e6,
		(prmRes.Throughput/nullRes.Throughput-1)*100, prmFraction, prmCompBps/1e6, stats.Alpha2)

	fmt.Printf("\nstage breakdown (PRIMACY write): codec %.2fs, network busy %.0f%%, disk busy %.0f%%\n",
		prmRes.CodecSeconds, prmRes.NetworkBusyFrac*100, prmRes.DiskBusyFrac*100)
	fmt.Println("\n(the shared disk is the bottleneck: shipping fewer bytes converts directly into end-to-end gain)")
}

func timeIt(bytes int, op func()) float64 {
	reps := 0
	start := time.Now()
	for time.Since(start) < 50*time.Millisecond {
		op()
		reps++
	}
	return float64(bytes) * float64(reps) / time.Since(start).Seconds()
}
