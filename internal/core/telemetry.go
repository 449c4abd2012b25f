package core

import (
	"sync/atomic"
	"time"

	"primacy/internal/precond"
	"primacy/internal/telemetry"
	"primacy/internal/trace"
)

// coreMetrics bundles the codec's telemetry handles. The bundle pointer is
// loaded once per Compress/Decompress call and threaded to the per-chunk
// functions, so the disabled path costs one atomic load + nil check per call.
type coreMetrics struct {
	// Compression accounting.
	chunks    *telemetry.Counter
	degraded  *telemetry.Counter
	rawBytes  *telemetry.Counter
	compBytes *telemetry.Counter
	solverIn  *telemetry.Counter
	// Byte-level split accounting — the measured inputs of the Section-III
	// model estimator (α₁ = hiRaw/raw, σ_ho = hiComp/hiRaw, α₂ and σ_lo from
	// the low-order pair, δ = indexBytes/chunks).
	hiRawBytes  *telemetry.Counter
	hiCompBytes *telemetry.Counter
	loCompIn    *telemetry.Counter
	loCompOut   *telemetry.Counter
	indexBytes  *telemetry.Counter
	// Per-stage wall time (see stageDefs), the same seconds Stats and
	// DecompStats add up.
	stages [numStages]*telemetry.Histogram
	// Decompression accounting.
	decBytes       *telemetry.Counter
	decSolverBytes *telemetry.Counter
	// Salvage accounting: faults recorded while recovering damaged input.
	salvageFaults *telemetry.Counter
	// Preconditioner selection accounting: chunks written per transform,
	// one counter per registered transform (the registry has no labels, so
	// the transform name is baked into the metric name).
	precondSelected map[precond.TransformID]*telemetry.Counter
}

var tmet atomic.Pointer[coreMetrics]

// EnableTelemetry registers the codec's metrics on r and starts recording; a
// nil r disables recording.
func EnableTelemetry(r *telemetry.Registry) {
	if r == nil {
		tmet.Store(nil)
		return
	}
	precondSel := map[precond.TransformID]*telemetry.Counter{}
	for _, id := range precond.IDs() {
		name := precond.Name(id)
		precondSel[id] = r.Counter("primacy_core_precond_"+name+"_chunks_total",
			"Chunks written with the "+name+" preconditioner transform.")
	}
	m := &coreMetrics{
		precondSelected: precondSel,
		chunks:          r.Counter("primacy_core_chunks_total", "Chunks compressed."),
		degraded:        r.Counter("primacy_core_degraded_chunks_total", "Chunks stored raw after a solver fault."),
		rawBytes:        r.Counter("primacy_core_raw_bytes_total", "Input bytes compressed."),
		compBytes:       r.Counter("primacy_core_compressed_bytes_total", "Container bytes produced."),
		solverIn:        r.Counter("primacy_core_solver_input_bytes_total", "Bytes handed to the standard solver."),
		hiRawBytes:      r.Counter("primacy_core_hi_raw_bytes_total", "High-order bytes entering the ID mapper (α₁ share of the input)."),
		hiCompBytes:     r.Counter("primacy_core_hi_compressed_bytes_total", "Compressed high-order bytes including index metadata (σ_ho numerator)."),
		loCompIn:        r.Counter("primacy_core_lo_compressible_bytes_total", "Low-order bytes ISOBAR classified compressible (α₂ share)."),
		loCompOut:       r.Counter("primacy_core_lo_compressed_bytes_total", "Compressed low-order bytes (σ_lo numerator)."),
		indexBytes:      r.Counter("primacy_core_index_bytes_total", "Frequency-index metadata bytes emitted (δ numerator)."),
		decBytes:        r.Counter("primacy_core_decompressed_bytes_total", "Bytes decompressed."),
		decSolverBytes:  r.Counter("primacy_core_decompress_solver_bytes_total", "Raw bytes produced by solver decompression (T_decomp denominator)."),
		salvageFaults:   r.Counter("primacy_core_salvage_faults_total", "Faults recorded while salvaging damaged containers."),
	}
	for id, def := range stageDefs {
		m.stages[id] = r.Histogram(def.metric, def.help, nil)
	}
	tmet.Store(m)
}

// stageID names one timed codec stage: the paper's decomposition of a chunk
// into the α₁ share (byte split, frequency-ranked ID mapping), the α₂ share
// (ISOBAR analysis and partitioning), the transform choice, and solver time
// proper. One pair of clock reads gives its seconds to both Stats/DecompStats
// and its histogram; its span brackets the same interval.
type stageID uint8

const (
	stBytesplit stageID = iota
	stFreqmap
	stIsobar
	stPrecond
	stSolver
	stDecSolver
	stDecPrec
	numStages
)

var stageDefs = [numStages]struct{ span, metric, help string }{
	stBytesplit: {"core.stage.bytesplit", "primacy_core_bytesplit_seconds", "Per-chunk byte-split stage time."},
	stFreqmap:   {"core.stage.freqmap", "primacy_core_freqmap_seconds", "Per-chunk ID-mapping and linearization time."},
	stIsobar:    {"core.stage.isobar", "primacy_core_isobar_seconds", "Per-chunk ISOBAR analysis and partitioning time."},
	stPrecond:   {"core.stage.precond", "primacy_core_precond_seconds", "Per-chunk preconditioner transform selection and forward transform time."},
	stSolver:    {"core.stage.solver", "primacy_core_solver_seconds", "Per-call solver compression time."},
	stDecSolver: {"core.stage.dec_solver", "primacy_core_decompress_solver_seconds", "Per-call solver decompression time."},
	stDecPrec:   {"core.stage.dec_prec", "primacy_core_decompress_prec_seconds", "Per-chunk inverse-preconditioner time."},
}

// stage is one open codec stage.
type stage struct {
	span  trace.Span
	h     *telemetry.Histogram
	start time.Time
}

// openStage opens stage id as a child of the chunk span cs and reads the
// clock; m may be nil (telemetry off).
func openStage(cs trace.Span, m *coreMetrics, id stageID) stage {
	s := stage{span: cs.Child(stageDefs[id].span)}
	if m != nil {
		s.h = m.stages[id]
	}
	s.start = time.Now()
	return s
}

// end reads the clock, ends the span with err, observes the histogram and
// returns the stage's seconds. A stage left un-ended on an error path drops
// its span and records nothing.
func (s stage) end(err error) float64 {
	d := time.Since(s.start).Seconds()
	s.span.End(err)
	s.h.Observe(d)
	return d
}
