// Package experiments regenerates every table and figure of the paper's
// evaluation (Sec. IV-V) on the synthetic dataset stand-ins: Table III
// (compression ratio and throughput), Figures 1 and 3 (bit/byte statistics),
// Figure 4 (end-to-end staging throughput, theoretical vs empirical), the
// Section V predictive-coder comparison, and the ablations DESIGN.md calls
// out. cmd/benchtab and the repository benchmarks are thin wrappers over
// this package.
package experiments

import (
	"context"
	"fmt"
	"time"

	"primacy/internal/bytesplit"
	"primacy/internal/core"
	"primacy/internal/datagen"
	"primacy/internal/solver"
)

// DefaultN is the per-dataset element count used when callers pass 0 —
// large enough for several 3 MB chunks without making regeneration slow.
const DefaultN = 512 << 10

// minTiming is the minimum cumulative wall time per throughput measurement;
// short operations are repeated until it is reached.
const minTiming = 30 * time.Millisecond

func elemCount(n int) int {
	if n <= 0 {
		return DefaultN
	}
	return n
}

// Env describes the simulated staging environment (the Jaguar XK6
// substitute). Defaults follow Sec. IV-A: 8:1 compute to I/O nodes, 3 MB
// chunks, a shared collective network, and a slow shared write path.
type Env struct {
	Rho        int
	ChunkBytes int
	ThetaBps   float64
	MuWriteBps float64
	MuReadBps  float64
	Timesteps  int
	JitterFrac float64
	Seed       int64
}

// DefaultEnv returns the environment used for Figure 4.
func DefaultEnv() Env {
	return Env{
		Rho:        8,
		ChunkBytes: 3 << 20,
		ThetaBps:   1200e6,
		MuWriteBps: 12e6,
		MuReadBps:  200e6,
		Timesteps:  4,
		JitterFrac: 0.03,
		Seed:       7,
	}
}

// timeOp measures the throughput of op over bytes processed per call,
// repeating until minTiming has elapsed.
func timeOp(bytesPerCall int, op func() error) (bps float64, err error) {
	reps := 0
	start := time.Now()
	for time.Since(start) < minTiming {
		if err := op(); err != nil {
			return 0, err
		}
		reps++
	}
	elapsed := time.Since(start).Seconds()
	return float64(bytesPerCall) * float64(reps) / elapsed, nil
}

// PrimacyRates holds everything measured about PRIMACY on one dataset: the
// model parameters and the end-to-end codec throughputs.
type PrimacyRates struct {
	Stats              core.Stats
	CompressBps        float64 // CTP over raw bytes
	DecompressBps      float64 // DTP over raw bytes
	PrecBps            float64 // T_prec (write side)
	SolverBps          float64 // T_comp over solver input
	DecompPrecBps      float64 // T_prec (read side)
	DecompSolverBps    float64 // T_decomp over solver output
	CompressedFraction float64
}

// MeasurePRIMACY compresses raw once for stats, then times compression and
// decompression.
func MeasurePRIMACY(raw []byte, opts core.Options) (PrimacyRates, error) {
	var r PrimacyRates
	var codec core.Codec
	enc, stats, err := codec.AppendCompressCtx(context.Background(), nil, raw, opts)
	if err != nil {
		return r, err
	}
	r.Stats = stats
	if stats.RawBytes > 0 {
		r.CompressedFraction = float64(stats.CompressedBytes) / float64(stats.RawBytes)
	}
	r.PrecBps = stats.PrecThroughput()
	r.SolverBps = stats.SolverThroughput()
	r.CompressBps, err = timeOp(len(raw), func() error {
		_, err := core.Compress(raw, opts)
		return err
	})
	if err != nil {
		return r, err
	}
	_, dstats, err := codec.AppendDecompressCtx(context.Background(), nil, enc)
	if err != nil {
		return r, err
	}
	r.DecompPrecBps = dstats.PrecThroughput()
	r.DecompSolverBps = dstats.SolverThroughput()
	r.DecompressBps, err = timeOp(len(raw), func() error {
		_, err := core.Decompress(enc)
		return err
	})
	return r, err
}

// VanillaRates holds measurements for a whole-chunk standard compressor.
type VanillaRates struct {
	Sigma         float64 // compressed/original
	CompressBps   float64
	DecompressBps float64
}

// CR returns original/compressed.
func (v VanillaRates) CR() float64 {
	if v.Sigma == 0 {
		return 0
	}
	return 1 / v.Sigma
}

// MeasureVanilla times a registered solver on the whole byte stream.
func MeasureVanilla(raw []byte, solverName string) (VanillaRates, error) {
	var r VanillaRates
	sv, err := solver.Get(solverName)
	if err != nil {
		return r, err
	}
	enc, err := sv.CompressTo(nil, raw)
	if err != nil {
		return r, err
	}
	if len(raw) > 0 {
		r.Sigma = float64(len(enc)) / float64(len(raw))
	}
	// Each direction appends into one buffer reused across the timed calls,
	// as the codec's per-chunk scratch is.
	buf := make([]byte, 0, max(len(enc), len(raw)))
	r.CompressBps, err = timeOp(len(raw), func() error {
		_, err := sv.CompressTo(buf[:0], raw)
		return err
	})
	if err != nil {
		return r, err
	}
	r.DecompressBps, err = timeOp(len(raw), func() error {
		_, err := sv.DecompressTo(buf[:0], enc)
		return err
	})
	return r, err
}

// Table3Row is one dataset line of the paper's Table III.
type Table3Row struct {
	Dataset string
	// Original-order compression ratios.
	ZlibCR, PrimacyCR float64
	// Permuted ("Linearization CR") compression ratios.
	ZlibPermCR, PrimacyPermCR float64
	// Compression / decompression throughputs in MB/s.
	ZlibCTP, PrimacyCTP float64
	ZlibDTP, PrimacyDTP float64
}

// TableIII regenerates the paper's Table III over all 20 datasets with n
// elements each (0 = DefaultN).
func TableIII(n int) ([]Table3Row, error) {
	n = elemCount(n)
	rows := make([]Table3Row, 0, 20)
	for _, spec := range datagen.Specs() {
		values := spec.Generate(n)
		raw := bytesplit.Float64sToBytes(values)
		perm := bytesplit.Float64sToBytes(datagen.Permute(values, spec.Seed+1))

		z, err := MeasureVanilla(raw, "zlib")
		if err != nil {
			return nil, fmt.Errorf("%s: zlib: %w", spec.Name, err)
		}
		p, err := MeasurePRIMACY(raw, core.Options{})
		if err != nil {
			return nil, fmt.Errorf("%s: primacy: %w", spec.Name, err)
		}
		zp, err := MeasureVanilla(perm, "zlib")
		if err != nil {
			return nil, fmt.Errorf("%s: zlib perm: %w", spec.Name, err)
		}
		pp, err := core.Compress(perm, core.Options{})
		if err != nil {
			return nil, fmt.Errorf("%s: primacy perm: %w", spec.Name, err)
		}
		rows = append(rows, Table3Row{
			Dataset:       spec.Name,
			ZlibCR:        z.CR(),
			PrimacyCR:     1 / p.CompressedFraction,
			ZlibPermCR:    zp.CR(),
			PrimacyPermCR: float64(len(perm)) / float64(len(pp)),
			ZlibCTP:       z.CompressBps / 1e6,
			PrimacyCTP:    p.CompressBps / 1e6,
			ZlibDTP:       z.DecompressBps / 1e6,
			PrimacyDTP:    p.DecompressBps / 1e6,
		})
	}
	return rows, nil
}

// Table3Summary condenses Table III into the paper's headline claims.
type Table3Summary struct {
	// PrimacyCRWins counts datasets where PRIMACY beats zlib on CR.
	PrimacyCRWins int
	// MeanCRGain is the average PRIMACY/zlib CR ratio minus 1.
	MeanCRGain float64
	// MaxCRGain is the best per-dataset gain.
	MaxCRGain float64
	// MeanCTPSpeedup and MeanDTPSpeedup are PRIMACY/zlib throughput ratios.
	MeanCTPSpeedup float64
	MeanDTPSpeedup float64
	// PermWins counts permuted-order CR wins.
	PermWins int
}

// Summarize computes the headline aggregates over Table III rows.
func Summarize(rows []Table3Row) Table3Summary {
	var s Table3Summary
	if len(rows) == 0 {
		return s
	}
	for _, r := range rows {
		if r.PrimacyCR > r.ZlibCR {
			s.PrimacyCRWins++
		}
		if r.PrimacyPermCR > r.ZlibPermCR {
			s.PermWins++
		}
		gain := r.PrimacyCR/r.ZlibCR - 1
		s.MeanCRGain += gain
		if gain > s.MaxCRGain {
			s.MaxCRGain = gain
		}
		s.MeanCTPSpeedup += r.PrimacyCTP / r.ZlibCTP
		s.MeanDTPSpeedup += r.PrimacyDTP / r.ZlibDTP
	}
	n := float64(len(rows))
	s.MeanCRGain /= n
	s.MeanCTPSpeedup /= n
	s.MeanDTPSpeedup /= n
	return s
}
