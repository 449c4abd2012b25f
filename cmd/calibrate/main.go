// Command calibrate prints per-dataset vanilla-zlib vs PRIMACY compression
// ratios plus the measured model parameters (alpha2, sigma_ho). It is the
// tuning loop used to keep the synthetic dataset generators aligned with the
// shape of the paper's Table III.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"

	"primacy/internal/core"
	"primacy/internal/datagen"
	"primacy/internal/solver"
)

func main() {
	n := flag.Int("n", 256<<10, "elements per dataset")
	flag.Parse()
	z, err := solver.Get("zlib")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%-15s %8s %8s %8s %8s\n", "dataset", "zlibCR", "prmCR", "alpha2", "sigmaHo")
	for _, s := range datagen.Specs() {
		raw := s.GenerateBytes(*n)
		enc, err := z.CompressTo(nil, raw)
		if err != nil {
			log.Fatal(err)
		}
		zcr := float64(len(raw)) / float64(len(enc))
		_, st, err := new(core.Codec).AppendCompressCtx(context.Background(), nil, raw, core.Options{})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-15s %8.3f %8.3f %8.2f %8.3f\n", s.Name, zcr, st.Ratio(), st.Alpha2, st.SigmaHo)
	}
}
