package experiments

import (
	"fmt"

	"primacy/internal/core"
	"primacy/internal/datagen"
	"primacy/internal/hpcsim"
	"primacy/internal/model"
	"primacy/internal/stats"
)

// Fig1Datasets are the four representative datasets of Figure 1.
var Fig1Datasets = []string{"gts_phi_l", "num_plasma", "obs_temp", "msg_sweep3d"}

// Fig3Datasets are the four datasets of Figure 3 (phi, info, temp, zeon).
var Fig3Datasets = []string{"gts_phi_l", "obs_info", "obs_temp", "gts_chkp_zeon"}

// Fig1Series is one dataset's curve in Figure 1.
type Fig1Series struct {
	Dataset string
	// P[i] is the probability of the most frequent bit value at bit
	// position i (0 = sign bit) — 64 points.
	P []float64
}

// Fig1 regenerates Figure 1: per-bit-position dominant-bit probability.
func Fig1(n int) ([]Fig1Series, error) {
	n = elemCount(n)
	out := make([]Fig1Series, 0, len(Fig1Datasets))
	for _, name := range Fig1Datasets {
		spec, ok := datagen.ByName(name)
		if !ok {
			return nil, fmt.Errorf("fig1: unknown dataset %q", name)
		}
		p, err := stats.BitPositionProfile(spec.GenerateBytes(n))
		if err != nil {
			return nil, err
		}
		out = append(out, Fig1Series{Dataset: name, P: p})
	}
	return out, nil
}

// Fig3Row summarizes one dataset's exponent vs mantissa byte-pair
// distributions (Figure 3a vs 3b).
type Fig3Row struct {
	Dataset  string
	Exponent stats.HistogramSummary
	Mantissa stats.HistogramSummary
	// ExponentHist and MantissaHist are the full 65536-bin normalized
	// frequencies for callers that want to plot the series.
	ExponentHist []float64
	MantissaHist []float64
}

// Fig3 regenerates Figure 3's distributions and their summaries.
func Fig3(n int) ([]Fig3Row, error) {
	n = elemCount(n)
	out := make([]Fig3Row, 0, len(Fig3Datasets))
	for _, name := range Fig3Datasets {
		spec, ok := datagen.ByName(name)
		if !ok {
			return nil, fmt.Errorf("fig3: unknown dataset %q", name)
		}
		raw := spec.GenerateBytes(n)
		exp, err := stats.PairHistogram(raw, stats.ExponentPair)
		if err != nil {
			return nil, err
		}
		man, err := stats.PairHistogram(raw, stats.MantissaPairs)
		if err != nil {
			return nil, err
		}
		out = append(out, Fig3Row{
			Dataset:      name,
			Exponent:     stats.Summarize(exp, 100),
			Mantissa:     stats.Summarize(man, 100),
			ExponentHist: exp,
			MantissaHist: man,
		})
	}
	return out, nil
}

// Fig4Datasets are the three datasets spanning the compressibility spectrum
// (Sec. IV-C).
var Fig4Datasets = []string{"num_comet", "flash_velx", "obs_temp"}

// Fig4Row is one dataset's bars in Figure 4: theoretical (model) and
// empirical (simulated with measured codec rates) end-to-end throughput in
// MB/s for PRIMACY (P), zlib (Z), lzo (L), plus the null case.
type Fig4Row struct {
	Dataset                string
	PT, PE, ZT, ZE, LT, LE float64
	NullT, NullE           float64
}

// Fig4Rates is everything Figure 4 measures on one dataset: PRIMACY's model
// parameters and codec rates, and the rates of vanilla zlib and lzo over the
// whole stream. The bars are a function of these and of the Env alone.
type Fig4Rates struct {
	Dataset string
	PRIMACY PrimacyRates
	Zlib    VanillaRates
	LZO     VanillaRates
}

// Fig4Write regenerates Figure 4(a).
func Fig4Write(n int, env Env) ([]Fig4Row, error) {
	rates, err := MeasureFig4(n, env)
	if err != nil {
		return nil, err
	}
	return fig4(rates, env, true)
}

// Fig4Read regenerates Figure 4(b).
func Fig4Read(n int, env Env) ([]Fig4Row, error) {
	rates, err := MeasureFig4(n, env)
	if err != nil {
		return nil, err
	}
	return fig4(rates, env, false)
}

// MeasureFig4 measures PRIMACY, vanilla zlib and vanilla lzo on each of
// Fig4Datasets with n elements (0 = DefaultN).
func MeasureFig4(n int, env Env) ([]Fig4Rates, error) {
	n = elemCount(n)
	out := make([]Fig4Rates, 0, len(Fig4Datasets))
	for _, name := range Fig4Datasets {
		spec, ok := datagen.ByName(name)
		if !ok {
			return nil, fmt.Errorf("fig4: unknown dataset %q", name)
		}
		raw := spec.GenerateBytes(n)
		r := Fig4Rates{Dataset: name}
		var err error
		if r.PRIMACY, err = MeasurePRIMACY(raw, core.Options{ChunkBytes: env.ChunkBytes}); err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		if r.Zlib, err = MeasureVanilla(raw, "zlib"); err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		if r.LZO, err = MeasureVanilla(raw, "lzo"); err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		out = append(out, r)
	}
	return out, nil
}

// fig4 computes Figure 4's bars from measured rates through the Section III
// model and the staging simulator. It reads no clock: the same rates give
// the same bars.
func fig4(rates []Fig4Rates, env Env, write bool) ([]Fig4Row, error) {
	rows := make([]Fig4Row, 0, len(rates))
	for _, r := range rates {
		row := Fig4Row{Dataset: r.Dataset}
		var err error
		row.PT, row.PE, err = primacyEndToEnd(env, r.PRIMACY, write)
		if err != nil {
			return nil, fmt.Errorf("%s: primacy: %w", r.Dataset, err)
		}
		row.ZT, row.ZE, err = vanillaEndToEnd(env, r.Zlib, write)
		if err != nil {
			return nil, fmt.Errorf("%s: zlib: %w", r.Dataset, err)
		}
		row.LT, row.LE, err = vanillaEndToEnd(env, r.LZO, write)
		if err != nil {
			return nil, fmt.Errorf("%s: lzo: %w", r.Dataset, err)
		}
		row.NullT, row.NullE, err = nullEndToEnd(env, write)
		if err != nil {
			return nil, fmt.Errorf("%s: null: %w", r.Dataset, err)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

func (e Env) modelParams() model.Params {
	return model.Params{
		ChunkBytes: float64(e.ChunkBytes),
		Rho:        float64(e.Rho),
		Theta:      e.ThetaBps,
		MuWrite:    e.MuWriteBps,
		MuRead:     e.MuReadBps,
	}
}

func (e Env) simConfig() hpcsim.Config {
	return hpcsim.Config{
		Rho:                e.Rho,
		Timesteps:          e.Timesteps,
		ChunkBytes:         float64(e.ChunkBytes),
		CompressedFraction: 1,
		NetworkBps:         e.ThetaBps,
		DiskBps:            e.MuWriteBps,
		JitterFrac:         e.JitterFrac,
		Seed:               e.Seed,
	}
}

// primacyEndToEnd returns (theoretical, empirical) MB/s.
func primacyEndToEnd(env Env, r PrimacyRates, write bool) (float64, float64, error) {
	p := env.modelParams()
	p.MetaBytes = float64(r.Stats.IndexBytes)
	if r.Stats.Chunks > 0 {
		p.MetaBytes /= float64(r.Stats.Chunks)
	}
	p.Alpha1 = r.Stats.Alpha1
	p.Alpha2 = r.Stats.Alpha2
	p.SigmaHo = r.Stats.SigmaHo
	p.SigmaLo = r.Stats.SigmaLo
	// The model charges the preconditioner twice — C/T_prec for PRIMACY and
	// (1-α1)C/T_prec for ISOBAR (Eqs. 7-8) — while the measured throughput
	// already covers both stages over C bytes once. Scale the measured rate
	// by (2-α1) so the model's total preconditioner time matches reality.
	precScale := 2 - r.Stats.Alpha1
	p.TPrec = r.PrecBps * precScale
	p.TComp = r.SolverBps
	p.TDecomp = r.DecompSolverBps
	var (
		b   model.Breakdown
		err error
	)
	if write {
		b, err = p.WritePRIMACY()
	} else {
		p.TPrec = r.DecompPrecBps * precScale
		b, err = p.ReadPRIMACY()
	}
	if err != nil {
		return 0, 0, err
	}
	cfg := env.simConfig()
	cfg.CompressedFraction = r.CompressedFraction
	var sim hpcsim.Result
	if write {
		cfg.CodecBps = r.CompressBps
		sim, err = hpcsim.SimulateWrite(cfg)
	} else {
		cfg.DiskBps = env.MuReadBps
		cfg.CodecBps = r.DecompressBps
		sim, err = hpcsim.SimulateRead(cfg)
	}
	if err != nil {
		return 0, 0, err
	}
	return b.Throughput / 1e6, sim.Throughput / 1e6, nil
}

// vanillaEndToEnd returns (theoretical, empirical) MB/s for a whole-chunk
// standard compressor.
func vanillaEndToEnd(env Env, r VanillaRates, write bool) (float64, float64, error) {
	p := env.modelParams()
	var (
		b   model.Breakdown
		err error
	)
	if write {
		p.TComp = r.CompressBps
		b, err = p.WriteVanilla(r.Sigma)
	} else {
		p.TDecomp = r.DecompressBps
		b, err = p.ReadVanilla(r.Sigma)
	}
	if err != nil {
		return 0, 0, err
	}
	cfg := env.simConfig()
	cfg.CompressedFraction = r.Sigma
	var sim hpcsim.Result
	if write {
		cfg.CodecBps = r.CompressBps
		sim, err = hpcsim.SimulateWrite(cfg)
	} else {
		cfg.DiskBps = env.MuReadBps
		cfg.CodecBps = r.DecompressBps
		sim, err = hpcsim.SimulateRead(cfg)
	}
	if err != nil {
		return 0, 0, err
	}
	return b.Throughput / 1e6, sim.Throughput / 1e6, nil
}

func nullEndToEnd(env Env, write bool) (float64, float64, error) {
	p := env.modelParams()
	var (
		b   model.Breakdown
		err error
	)
	if write {
		b, err = p.WriteNoCompression()
	} else {
		b, err = p.ReadNoCompression()
	}
	if err != nil {
		return 0, 0, err
	}
	cfg := env.simConfig()
	var sim hpcsim.Result
	if write {
		sim, err = hpcsim.SimulateWrite(cfg)
	} else {
		cfg.DiskBps = env.MuReadBps
		sim, err = hpcsim.SimulateRead(cfg)
	}
	if err != nil {
		return 0, 0, err
	}
	return b.Throughput / 1e6, sim.Throughput / 1e6, nil
}

// ModelValidationRow compares the analytic model against the simulator.
type ModelValidationRow struct {
	Dataset       string
	WriteModelMBs float64
	WriteSimMBs   float64
	ReadModelMBs  float64
	ReadSimMBs    float64
}

// RelErrWrite is |model-sim|/sim for writes.
func (r ModelValidationRow) RelErrWrite() float64 {
	return relErr(r.WriteModelMBs, r.WriteSimMBs)
}

// RelErrRead is |model-sim|/sim for reads.
func (r ModelValidationRow) RelErrRead() float64 {
	return relErr(r.ReadModelMBs, r.ReadSimMBs)
}

func relErr(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	d := a - b
	if d < 0 {
		d = -d
	}
	return d / b
}

// ModelValidation quantifies theoretical-vs-empirical agreement for PRIMACY
// on the Figure 4 datasets (the paper's claim that the two are consistent).
func ModelValidation(n int, env Env) ([]ModelValidationRow, error) {
	n = elemCount(n)
	rates := make([]Fig4Rates, 0, len(Fig4Datasets))
	for _, name := range Fig4Datasets {
		spec, _ := datagen.ByName(name)
		prim, err := MeasurePRIMACY(spec.GenerateBytes(n), core.Options{ChunkBytes: env.ChunkBytes})
		if err != nil {
			return nil, err
		}
		rates = append(rates, Fig4Rates{Dataset: name, PRIMACY: prim})
	}
	return modelValidation(rates, env)
}

// modelValidation puts PRIMACY's measured rates through the model and the
// simulator in both directions; like fig4 it reads no clock.
func modelValidation(rates []Fig4Rates, env Env) ([]ModelValidationRow, error) {
	rows := make([]ModelValidationRow, 0, len(rates))
	for _, r := range rates {
		wT, wE, err := primacyEndToEnd(env, r.PRIMACY, true)
		if err != nil {
			return nil, err
		}
		rT, rE, err := primacyEndToEnd(env, r.PRIMACY, false)
		if err != nil {
			return nil, err
		}
		rows = append(rows, ModelValidationRow{
			Dataset:       r.Dataset,
			WriteModelMBs: wT, WriteSimMBs: wE,
			ReadModelMBs: rT, ReadSimMBs: rE,
		})
	}
	return rows, nil
}
