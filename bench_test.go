// Benchmarks regenerating every table and figure of the paper's evaluation.
// Each benchmark maps to one experiment (see DESIGN.md's per-experiment
// index); run them all with:
//
//	go test -bench=. -benchmem
package primacy

import (
	"context"
	"fmt"
	"testing"

	"primacy/internal/bytesplit"
	"primacy/internal/core"
	"primacy/internal/datagen"
	"primacy/internal/experiments"
	"primacy/internal/fpc"
	"primacy/internal/fpzip"
	"primacy/internal/solver"
	"primacy/internal/stats"
)

// benchN is the per-dataset element count for codec benchmarks: 256Ki
// doubles = 2 MiB, enough to exercise the chunked pipeline.
const benchN = 256 << 10

// expN is the element count for full-experiment benchmarks (smaller: each
// iteration runs all 20 datasets).
const expN = 32 << 10

// --- Table III: per-dataset CR / CTP / DTP -------------------------------

func BenchmarkTableIIICompress(b *testing.B) {
	for _, spec := range datagen.Specs() {
		raw := spec.GenerateBytes(benchN)
		b.Run("primacy/"+spec.Name, func(b *testing.B) {
			b.SetBytes(int64(len(raw)))
			for i := 0; i < b.N; i++ {
				if _, err := core.Compress(raw, core.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkTableIIICompressZlib(b *testing.B) {
	z, err := solver.Get("zlib")
	if err != nil {
		b.Fatal(err)
	}
	for _, spec := range datagen.Specs() {
		raw := spec.GenerateBytes(benchN)
		b.Run("zlib/"+spec.Name, func(b *testing.B) {
			b.SetBytes(int64(len(raw)))
			for i := 0; i < b.N; i++ {
				if _, err := z.Compress(raw); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkTableIIIDecompress(b *testing.B) {
	for _, spec := range datagen.Specs() {
		raw := spec.GenerateBytes(benchN)
		enc, err := core.Compress(raw, core.Options{})
		if err != nil {
			b.Fatal(err)
		}
		b.Run("primacy/"+spec.Name, func(b *testing.B) {
			b.SetBytes(int64(len(raw)))
			for i := 0; i < b.N; i++ {
				if _, err := core.Decompress(enc); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTableIIITable regenerates the whole table per iteration.
func BenchmarkTableIIITable(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.TableIII(expN); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Figure 1: bit-position profiles --------------------------------------

func BenchmarkFig1BitProfile(b *testing.B) {
	raws := make(map[string][]byte)
	for _, name := range experiments.Fig1Datasets {
		spec, _ := datagen.ByName(name)
		raws[name] = spec.GenerateBytes(benchN)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, raw := range raws {
			if _, err := stats.BitPositionProfile(raw); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// --- Figure 3: byte-pair histograms ---------------------------------------

func BenchmarkFig3PairHistogram(b *testing.B) {
	raws := make(map[string][]byte)
	for _, name := range experiments.Fig3Datasets {
		spec, _ := datagen.ByName(name)
		raws[name] = spec.GenerateBytes(benchN)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, raw := range raws {
			if _, err := stats.PairHistogram(raw, stats.ExponentPair); err != nil {
				b.Fatal(err)
			}
			if _, err := stats.PairHistogram(raw, stats.MantissaPairs); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// --- Figure 4: end-to-end staging throughput ------------------------------

func BenchmarkFig4Write(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig4Write(expN, experiments.DefaultEnv()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig4Read(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig4Read(expN, experiments.DefaultEnv()); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Model validation (Sec. III / IV-D consistency claim) -----------------

func BenchmarkModelValidation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.ModelValidation(expN, experiments.DefaultEnv()); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Sec. II-C repeatability claim ----------------------------------------

func BenchmarkRepeatabilityGain(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RepeatabilityGain(expN); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Sec. IV-H / DESIGN.md ablations --------------------------------------

func BenchmarkLinearizationAblation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.LinearizationAblation(expN); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkIDMappingAblation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.IDMappingAblation(expN); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkISOBARAblation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.ISOBARAblation(expN); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkChunkSizeSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.ChunkSizeSweep(expN); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkIndexReuseStudy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.IndexReuseStudy(expN); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Sec. V: predictive-coder baselines -----------------------------------

func BenchmarkPredictiveBaselines(b *testing.B) {
	spec, _ := datagen.ByName("msg_sweep3d")
	values := spec.Generate(benchN)
	raw := bytesplit.Float64sToBytes(values)
	b.Run("primacy", func(b *testing.B) {
		b.SetBytes(int64(len(raw)))
		for i := 0; i < b.N; i++ {
			if _, err := core.Compress(raw, core.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("fpc", func(b *testing.B) {
		b.SetBytes(int64(len(raw)))
		for i := 0; i < b.N; i++ {
			if _, err := fpc.CompressFloat64s(values, fpc.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("fpzip", func(b *testing.B) {
		b.SetBytes(int64(len(raw)))
		for i := 0; i < b.N; i++ {
			if _, err := fpzip.Compress(values, fpzip.Dims{NX: len(values)}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkSec5Comparison regenerates the full Sec. V table per iteration.
func BenchmarkSec5Comparison(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.PredictiveComparison(expN); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Parallel in-situ pipeline (multi-core scaling) ------------------------

func BenchmarkParallelPipeline(b *testing.B) {
	spec, _ := datagen.ByName("flash_velx")
	raw := spec.GenerateBytes(benchN)
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers-%d", workers), func(b *testing.B) {
			b.SetBytes(int64(len(raw)))
			for i := 0; i < b.N; i++ {
				if _, err := ParallelCompress(context.Background(), raw, ParallelOptions{
					Workers:    workers,
					ShardBytes: 256 << 10,
					Core:       Options{ChunkBytes: 256 << 10},
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Sec. V solver families and the related-work contrast ----------------

func BenchmarkSolverSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.SolverSweep(expN); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRelatedWorkStudy regenerates the Filgueira two-phase-I/O contrast.
func BenchmarkRelatedWorkStudy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RelatedWorkStudy(expN, experiments.DefaultEnv()); err != nil {
			b.Fatal(err)
		}
	}
}
