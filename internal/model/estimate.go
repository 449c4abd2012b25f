package model

import (
	"fmt"

	"primacy/internal/telemetry"
)

// This file turns a live telemetry snapshot into a fully-populated Params —
// the bridge between the observability layer and the Section III analytic
// model. Where the experiments package fits the model to a controlled
// measurement pass (internal/experiments.MeasurePRIMACY), EstimateFromSnapshot
// fits it to whatever the process actually did: the codec's byte-split
// counters give the structural parameters (α₁, α₂, σ_ho, σ_lo, δ) and the
// per-stage wall-time histograms give the rate parameters (T_prec, T_comp,
// T_decomp). A histogram's Sum holds every observation, and the codec
// observes the same seconds it adds to core.Stats, so the fitted rates are
// the ones Stats reports. Evaluating the model with those parameters and
// comparing the predicted compute-side throughput against the observed one
// yields a residual: how much of the run the Section III decomposition
// explains.

// Telemetry series consumed by the estimator (registered by
// internal/core.EnableTelemetry).
const (
	mRawBytes       = "primacy_core_raw_bytes_total"
	mCompBytes      = "primacy_core_compressed_bytes_total"
	mChunks         = "primacy_core_chunks_total"
	mDegraded       = "primacy_core_degraded_chunks_total"
	mHiRaw          = "primacy_core_hi_raw_bytes_total"
	mHiComp         = "primacy_core_hi_compressed_bytes_total"
	mLoCompIn       = "primacy_core_lo_compressible_bytes_total"
	mLoCompOut      = "primacy_core_lo_compressed_bytes_total"
	mIndexBytes     = "primacy_core_index_bytes_total"
	mSolverIn       = "primacy_core_solver_input_bytes_total"
	mDecBytes       = "primacy_core_decompressed_bytes_total"
	mDecSolverBytes = "primacy_core_decompress_solver_bytes_total"
	hSplitSecs      = "primacy_core_bytesplit_seconds"
	hFreqmapSecs    = "primacy_core_freqmap_seconds"
	hIsobarSecs     = "primacy_core_isobar_seconds"
	hPrecondSecs    = "primacy_core_precond_seconds"
	hSolverSecs     = "primacy_core_solver_seconds"
	hDecSolverSecs  = "primacy_core_decompress_solver_seconds"
	hDecPrecSecs    = "primacy_core_decompress_prec_seconds"
)

// ErrNoData indicates the snapshot records no codec activity to fit.
var ErrNoData = fmt.Errorf("model: telemetry snapshot has no codec activity")

// Estimate is a live evaluation of the Section III model against measured
// telemetry.
type Estimate struct {
	// Params is the fully-populated symbol table: structural parameters
	// measured from byte counters, rates from stage timings, environment
	// (ρ, θ, μ) from the caller.
	Params Params

	// Measured totals the fit is based on.
	RawBytes, CompressedBytes int64
	Chunks, DegradedChunks    int64
	DecompressedBytes         int64

	// Measured stage rates in bytes/second. PrecBps is raw-bytes-over-
	// preconditioner-seconds (before the (2-α₁) model scaling, mirroring
	// core.Stats.PrecThroughput); SolverBps is over solver input bytes,
	// DecompSolverBps over solver output bytes, DecompPrecBps over raw
	// bytes reconstructed.
	PrecBps, SolverBps             float64
	DecompPrecBps, DecompSolverBps float64

	// Write and Read are the predicted end-to-end breakdowns (Eqs. 7-13 and
	// the read inverse) under the caller's environment.
	Write, Read Breakdown

	// Compute-side comparison: the model's predicted preconditioner+solver
	// throughput for one compute node versus what the process measured. The
	// residual |predicted-observed|/observed is the fraction of compute-side
	// behavior the Section III decomposition fails to explain.
	PredictedWriteComputeBps float64
	ObservedWriteComputeBps  float64
	WriteResidual            float64

	// Read-side counterpart; populated only when HasRead (the snapshot
	// recorded decompression activity).
	HasRead                 bool
	PredictedReadComputeBps float64
	ObservedReadComputeBps  float64
	ReadResidual            float64
}

// EstimateFromSnapshot fits the Section III model to a telemetry snapshot.
// env supplies the environment parameters the process cannot measure about
// itself — Rho, Theta, MuWrite, MuRead, and optionally ChunkBytes (when
// env.ChunkBytes <= 0 the measured mean chunk size is used). Structural and
// rate parameters are taken from the snapshot's codec series.
func EstimateFromSnapshot(snap telemetry.Snapshot, env Params) (Estimate, error) {
	var e Estimate
	counter := func(name string) int64 { v, _ := snap.Counter(name); return v }
	histSum := func(name string) float64 {
		h, ok := snap.Histogram(name)
		if !ok {
			return 0
		}
		return h.Sum
	}

	e.RawBytes = counter(mRawBytes)
	e.CompressedBytes = counter(mCompBytes)
	e.Chunks = counter(mChunks)
	e.DegradedChunks = counter(mDegraded)
	e.DecompressedBytes = counter(mDecBytes)
	if e.RawBytes <= 0 || e.Chunks <= 0 {
		return e, fmt.Errorf("%w: raw_bytes=%d chunks=%d", ErrNoData, e.RawBytes, e.Chunks)
	}

	raw := float64(e.RawBytes)
	hiRaw := float64(counter(mHiRaw))
	hiComp := float64(counter(mHiComp)) // includes index metadata (σ_ho convention)
	loIn := float64(counter(mLoCompIn))
	loOut := float64(counter(mLoCompOut))
	index := float64(counter(mIndexBytes))

	p := env
	if p.ChunkBytes <= 0 {
		p.ChunkBytes = raw / float64(e.Chunks)
	}
	p.MetaBytes = index / float64(e.Chunks)
	p.Alpha1 = hiRaw / raw
	if loRaw := raw - hiRaw; loRaw > 0 {
		// Aggregate α₂ over all bytes, versus core.Stats' per-chunk mean —
		// identical for equal-size chunks, and the right weighting here.
		p.Alpha2 = loIn / loRaw
	}
	if hiRaw > 0 {
		p.SigmaHo = hiComp / hiRaw
	}
	if loIn > 0 {
		p.SigmaLo = loOut / loIn
	}

	precSecs := histSum(hPrecondSecs) + histSum(hSplitSecs) +
		histSum(hFreqmapSecs) + histSum(hIsobarSecs)
	solverSecs := histSum(hSolverSecs)
	if precSecs <= 0 || solverSecs <= 0 {
		return e, fmt.Errorf("%w: prec_seconds=%v solver_seconds=%v (stage timings missing)",
			ErrNoData, precSecs, solverSecs)
	}
	e.PrecBps = raw / precSecs
	solverIn := float64(counter(mSolverIn))
	if solverIn <= 0 {
		solverIn = raw
	}
	e.SolverBps = solverIn / solverSecs

	// The model charges the preconditioner twice — C/T_prec for PRIMACY and
	// (1-α₁)C/T_prec for ISOBAR (Eqs. 7-8) — while the measured rate covers
	// both stages over C bytes once; scale by (2-α₁) so the model's total
	// preconditioner time matches the measurement (the same convention as
	// internal/experiments).
	precScale := 2 - p.Alpha1
	p.TPrec = e.PrecBps * precScale
	p.TComp = e.SolverBps
	p.TDecomp = e.SolverBps // placeholder until read-side data refines it

	// Read side, when the process decompressed anything.
	decPrecSecs := histSum(hDecPrecSecs)
	decSolverSecs := histSum(hDecSolverSecs)
	decSolverOut := float64(counter(mDecSolverBytes))
	if e.DecompressedBytes > 0 && decPrecSecs > 0 && decSolverSecs > 0 {
		e.HasRead = true
		e.DecompPrecBps = float64(e.DecompressedBytes) / decPrecSecs
		if decSolverOut <= 0 {
			decSolverOut = float64(e.DecompressedBytes)
		}
		e.DecompSolverBps = decSolverOut / decSolverSecs
		p.TDecomp = e.DecompSolverBps
	}

	e.Params = p

	wb, err := p.WritePRIMACY()
	if err != nil {
		return e, err
	}
	e.Write = wb
	computePred := wb.TPrec1 + wb.TPrec2 + wb.TCompress1 + wb.TCompress2
	if computePred > 0 {
		e.PredictedWriteComputeBps = p.ChunkBytes / computePred
	}
	e.ObservedWriteComputeBps = raw / (precSecs + solverSecs)
	e.WriteResidual = residual(e.PredictedWriteComputeBps, e.ObservedWriteComputeBps)

	if e.HasRead {
		rp := p
		rp.TPrec = e.DecompPrecBps * precScale
		rb, err := rp.ReadPRIMACY()
		if err != nil {
			return e, err
		}
		e.Read = rb
		computePred := rb.TPrec1 + rb.TPrec2 + rb.TCompress1 + rb.TCompress2
		if computePred > 0 {
			e.PredictedReadComputeBps = p.ChunkBytes / computePred
		}
		e.ObservedReadComputeBps = float64(e.DecompressedBytes) / (decPrecSecs + decSolverSecs)
		e.ReadResidual = residual(e.PredictedReadComputeBps, e.ObservedReadComputeBps)
	}
	return e, nil
}

// residual is |predicted-observed|/observed, 0 when observed is 0.
func residual(pred, obs float64) float64 {
	if obs == 0 {
		return 0
	}
	d := pred - obs
	if d < 0 {
		d = -d
	}
	return d / obs
}
