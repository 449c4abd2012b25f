// Package primacy is the public API of this repository's reproduction of
// "Improving I/O Throughput with PRIMACY: Preconditioning ID-Mapper for
// Compressing Incompressibility" (Shah et al., IEEE CLUSTER 2012).
//
// PRIMACY is a preconditioner for standard lossless compressors applied to
// hard-to-compress double-precision scientific data: it splits each value
// into exponent-carrying high-order bytes and noisy mantissa bytes, remaps
// the high-order byte pairs to frequency-ranked IDs, column-linearizes the
// result, and lets ISOBAR-style analysis keep incompressible mantissa bytes
// away from the solver. The package exposes the codec, a multi-core in-situ
// pipeline, the paper's Section III performance model, the staging-I/O
// simulator used as the hardware-testbed substitute, and the synthetic
// stand-ins for the paper's 20 evaluation datasets.
//
// Quick start:
//
//	enc, err := primacy.CompressFloat64s(values, primacy.Options{})
//	...
//	dec, err := primacy.DecompressFloat64s(enc)
//
// Every operation has one entry point. The long-running ones take a context
// first — Compress, Decompress, ParallelCompress, ParallelDecompress,
// NewStreamWriter, NewStreamReader and NewArchiveWriter — and return ctx.Err()
// within one chunk of a cancellation. Underneath them is Codec: its
// AppendCompressCtx and AppendDecompressCtx append to a caller-owned
// destination (nil for a new one) and return the model's Stats and
// DecompStats.
package primacy

import (
	"bytes"
	"context"
	"fmt"
	"io"

	"primacy/internal/archive"
	"primacy/internal/bytesplit"
	"primacy/internal/core"
	"primacy/internal/datagen"
	"primacy/internal/durable"
	"primacy/internal/fairshare"
	"primacy/internal/hpcsim"
	"primacy/internal/model"
	"primacy/internal/pipeline"
	"primacy/internal/precond"
	"primacy/internal/retry"
	"primacy/internal/stream"
	"primacy/internal/telemetry"
	"primacy/internal/trace"
)

// Options configures the codec. The zero value selects the paper's
// configuration: zlib solver, 3 MB chunks, frequency-ranked ID mapping,
// column linearization, per-chunk indexes, ISOBAR enabled.
type Options = core.Options

// Stats reports compression-side accounting and performance-model inputs.
type Stats = core.Stats

// DecompStats reports decompression-side stage timing.
type DecompStats = core.DecompStats

// Linearization selects the ID-matrix layout fed to the solver.
type Linearization = core.Linearization

// IDMapping selects how high-order byte pairs become IDs.
type IDMapping = core.IDMapping

// IndexMode selects when chunk indexes are emitted.
type IndexMode = core.IndexMode

// Codec option constants (see the Options fields of the same names).
const (
	LinearizeColumns = core.LinearizeColumns
	LinearizeRows    = core.LinearizeRows
	MapRanked        = core.MapRanked
	MapIdentity      = core.MapIdentity
	IndexPerChunk    = core.IndexPerChunk
	IndexReuse       = core.IndexReuse
)

// PrecondOptions configures per-chunk preconditioner selection (Options'
// Precond field). Any non-zero configuration switches the writer to the v3
// container, which records the chosen transform per chunk; the zero value
// keeps today's fixed chain and the v2 container.
type PrecondOptions = core.PrecondOptions

// PrecondSelectionMode selects how the preconditioner transform is chosen
// per chunk: fixed, a-priori (cheap sampled classifier), or a-posteriori
// (trial compression of a sample per candidate).
type PrecondSelectionMode = precond.SelectionMode

// PrecondTransformID is the stable wire identifier of a registered
// preconditioner transform.
type PrecondTransformID = precond.TransformID

// Preconditioner selection modes and registered transform IDs.
const (
	PrecondFixed        = precond.Fixed
	PrecondAPriori      = precond.APriori
	PrecondAPosteriori  = precond.APosteriori
	TransformIDChain    = precond.IDChain
	TransformPredictXOR = precond.IDPredictXOR
)

// ParsePrecondMode parses a selection-mode name: "fixed" (or empty),
// "apriori", "aposteriori".
func ParsePrecondMode(s string) (PrecondSelectionMode, error) {
	return precond.ParseSelectionMode(s)
}

// Codec is a reusable compressor/decompressor that carries its scratch
// buffers across calls, making repeated per-chunk work allocation-light.
// The zero value is ready to use; output is byte-identical to the
// package-level functions. A Codec is not safe for concurrent use — give
// each worker its own.
type Codec = core.Codec

// Compress compresses a byte stream of float64 data (length must be a
// multiple of 8; use CompressFloat64s for values). ctx is checked between
// chunks, so a cancelled or timed-out call returns ctx.Err() within one chunk
// boundary. A chunk whose solver faults (error or panic) is stored
// raw-passthrough instead of failing the call; for that count and the other
// model parameters, use Codec.AppendCompressCtx, which returns Stats.
func Compress(ctx context.Context, data []byte, opts Options) ([]byte, error) {
	var c Codec
	out, _, err := c.AppendCompressCtx(ctx, nil, data, opts)
	return out, err
}

// Decompress reverses Compress, checking ctx between chunks. For read-side
// stage timing, use Codec.AppendDecompressCtx, which returns DecompStats.
func Decompress(ctx context.Context, data []byte) ([]byte, error) {
	var c Codec
	out, _, err := c.AppendDecompressCtx(ctx, nil, data)
	return out, err
}

// CompressFloat64s serializes values big-endian and compresses them.
func CompressFloat64s(values []float64, opts Options) ([]byte, error) {
	return core.Compress(bytesplit.Float64sToBytes(values), opts)
}

// DecompressFloat64s reverses CompressFloat64s.
func DecompressFloat64s(data []byte) ([]float64, error) {
	raw, err := core.Decompress(data)
	if err != nil {
		return nil, err
	}
	return bytesplit.BytesToFloat64s(raw)
}

// CompressFloat32s compresses single-precision values (the Float32 layout,
// whatever opts.Precision says).
func CompressFloat32s(values []float32, opts Options) ([]byte, error) {
	opts.Precision = core.Float32
	return core.Compress(bytesplit.Float32sToBytes(values), opts)
}

// DecompressFloat32s reverses CompressFloat32s.
func DecompressFloat32s(data []byte) ([]float32, error) {
	raw, err := core.Decompress(data)
	if err != nil {
		return nil, err
	}
	return bytesplit.BytesToFloat32s(raw)
}

// Corruption locates one fault detected during a verify or salvage pass.
type Corruption = core.Corruption

// CorruptionReport aggregates the faults found by a verify or salvage pass
// over one container, stream, or archive.
type CorruptionReport = core.CorruptionReport

// DecompressSalvage decompresses as much of a damaged core container,
// parallel container or stream as possible, skipping corrupt chunks and
// reporting what was lost; an intact one gives its decoded bytes and a clean
// report. It dispatches on the magic: input that is neither a parallel
// container nor a stream is read as a core container. The error is non-nil
// only when nothing is recoverable. Archives are salvaged by
// OpenArchiveSalvage.
func DecompressSalvage(data []byte) ([]byte, *CorruptionReport, error) {
	if len(data) >= 4 {
		switch string(data[:3]) {
		case "PRP":
			return pipeline.DecompressSalvage(data)
		case "PRS":
			return stream.DecompressSalvage(data)
		}
	}
	return core.DecompressSalvage(data)
}

// Verify checks the integrity of any PRIMACY artifact — core container,
// parallel container, stream, or archive, either format version — without
// producing output. The report lists every detected fault; the error is
// non-nil only when the input is not a recognizable PRIMACY artifact.
func Verify(data []byte) (*CorruptionReport, error) {
	if len(data) < 4 {
		return nil, fmt.Errorf("primacy: %d-byte input is not a PRIMACY artifact", len(data))
	}
	switch string(data[:4]) {
	case "PRM1", "PRM2", "PRM3", "PRP1", "PRP2", "PRS1", "PRS2":
		_, rep, err := DecompressSalvage(data)
		return rep, err
	case "PAR1", "PAR2":
		_, rep, err := archive.OpenSalvage(bytes.NewReader(data), int64(len(data)))
		if err != nil {
			rep.Add(0, -1, err)
		}
		return rep, nil
	default:
		return nil, fmt.Errorf("primacy: unrecognized magic %q", data[:4])
	}
}

// ParallelOptions configures the multi-core in-situ pipeline.
type ParallelOptions = pipeline.Options

// ParallelCompress compresses data across multiple cores, the way an
// in-situ integration uses the cores of a compute node. ctx is checked before
// each shard starts and between the chunks inside each shard, the first
// worker failure cancels the remaining shards, worker panics surface as
// *ShardError wrapping *PanicError, and opts.Admitter (when set) bounds
// in-flight memory and concurrency.
func ParallelCompress(ctx context.Context, data []byte, opts ParallelOptions) ([]byte, error) {
	return pipeline.CompressCtx(ctx, data, opts)
}

// ParallelDecompress reverses ParallelCompress, with the same cancellation
// and resource governance.
func ParallelDecompress(ctx context.Context, data []byte, opts ParallelOptions) ([]byte, error) {
	return pipeline.DecompressCtx(ctx, data, opts)
}

// ShardError attributes a parallel-path failure to one shard.
type ShardError = pipeline.ShardError

// PanicError is a worker or codec panic recovered into a structured error,
// so one faulting chunk or shard can never crash the process hosting the
// compressor.
type PanicError = core.PanicError

// Admitter admits units of work against an in-flight memory budget and a
// concurrency cap, so a burst of large inputs degrades to queuing at the
// admission gate instead of unbounded allocation. Share one Admitter across
// the parallel and stream paths that contend for the same node: both queue
// as one tenant, in one FIFO. A nil *Admitter admits everything; construct
// any other with NewAdmitter.
type Admitter = fairshare.Admitter

// AdmitterConfig bounds an Admitter: MemBudget caps total admitted input
// bytes, MaxConcurrent concurrent admissions, MaxQueuedPerTenant and
// MaxQueued the waiters.
type AdmitterConfig = fairshare.Config

// NewAdmitter returns an Admitter enforcing cfg. Zero fields take the
// defaults — 256 MiB, 64 concurrent, 32 queued per tenant, 256 queued in
// total — not "unlimited". A request arriving at a full queue fails with
// fairshare.ErrQueueFull, and a queued one dropped under overload with
// fairshare.ErrShed; either reaches the caller inside *ShardError or as the
// stream writer's sticky error.
func NewAdmitter(cfg AdmitterConfig) *Admitter { return fairshare.New(cfg) }

// RetryPolicy retries transient sink/source I/O failures with exponential
// backoff: up to Attempts tries, sleeping Backoff, 2·Backoff, ... between
// them, retrying only errors Classify accepts (nil Classify retries
// everything except context cancellation). The zero value performs no
// retries.
type RetryPolicy = retry.Policy

// NewRetryWriter wraps w so transient write failures are retried under the
// policy; bytes the sink already consumed are never re-sent. ctx bounds
// retry waits.
func NewRetryWriter(ctx context.Context, w io.Writer, p RetryPolicy) io.Writer {
	return retry.NewWriter(ctx, w, p)
}

// NewRetryReader wraps r so transient read failures are retried under the
// policy. ctx bounds retry waits.
func NewRetryReader(ctx context.Context, r io.Reader, p RetryPolicy) io.Reader {
	return retry.NewReader(ctx, r, p)
}

// StreamWriter compresses data written to it incrementally, emitting
// independent chunk segments (see internal/stream).
type StreamWriter = stream.Writer

// StreamReader decompresses a stream produced by a StreamWriter.
type StreamReader = stream.Reader

// StreamWriterOptions bundles the streaming compressor's codec options with
// an optional Admitter (segment admission control). For sink retries, wrap
// dst with NewRetryWriter.
type StreamWriterOptions = stream.WriterOptions

// NewStreamWriter returns a streaming compressor over dst. ctx is checked
// before each segment is compressed and emitted; wopts.Core is the codec
// configuration and wopts.Admitter, when set, admits each segment.
func NewStreamWriter(ctx context.Context, dst io.Writer, wopts StreamWriterOptions) (*StreamWriter, error) {
	return stream.NewWriterWith(ctx, dst, wopts)
}

// NewStreamReader returns a streaming decompressor over src. ctx is checked
// before each segment is read and decoded.
func NewStreamReader(ctx context.Context, src io.Reader) *StreamReader {
	return stream.NewReaderCtx(ctx, src)
}

// Precision selects the floating-point element width.
type Precision = core.Precision

// Precision constants.
const (
	Float64 = core.Float64
	Float32 = core.Float32
)

// ArchiveWriter appends named variables per timestep to an ADIOS-style
// archive file built on the PRIMACY codec.
type ArchiveWriter = archive.Writer

// ArchiveReader opens archives for random per-variable access.
type ArchiveReader = archive.Reader

// NewArchiveWriter starts an archive on dst; ctx is checked before each
// entry is compressed and emitted. For sink retries, wrap dst with
// NewRetryWriter.
func NewArchiveWriter(ctx context.Context, dst io.Writer, opts Options) (*ArchiveWriter, error) {
	return archive.ResumeWriterCtx(ctx, dst, nil, 0, opts)
}

// NewArchiveReader parses an archive's table of contents for random access.
func NewArchiveReader(src io.ReaderAt, size int64) (*ArchiveReader, error) {
	return archive.NewReader(src, size)
}

// OpenArchiveSalvage opens a damaged archive best-effort, dropping every
// entry that does not read back and rebuilding a lost table of contents by
// scanning for entry magics. Its report is the archive's Verify.
func OpenArchiveSalvage(src io.ReaderAt, size int64) (*ArchiveReader, *CorruptionReport, error) {
	return archive.OpenSalvage(src, size)
}

// ChunkReader provides random access to individual chunks of a compressed
// container (time-slice reads over large archives).
type ChunkReader = core.ChunkReader

// NewChunkReader parses container framing for random access; no payload is
// decompressed until DecodeChunk / DecodeFloat64Range.
func NewChunkReader(data []byte) (*ChunkReader, error) {
	return core.NewChunkReader(data)
}

// ModelParams is the paper's Section III performance-model symbol table.
type ModelParams = model.Params

// CheckpointParams parameterizes the checkpoint/restart economics extension
// (Young's optimal interval).
type CheckpointParams = model.CheckpointParams

// CheckpointPlan is the derived checkpoint operating point.
type CheckpointPlan = model.CheckpointPlan

// CheckpointSpeedup converts end-to-end I/O gains into application
// efficiency improvement.
func CheckpointSpeedup(base CheckpointParams, writeGain, readGain float64) (float64, error) {
	return model.CheckpointSpeedup(base, writeGain, readGain)
}

// ModelBreakdown itemizes modeled end-to-end times and throughput.
type ModelBreakdown = model.Breakdown

// SimConfig configures the staging-environment simulator.
type SimConfig = hpcsim.Config

// SimResult summarizes one simulation.
type SimResult = hpcsim.Result

// SimulateWrite runs the bulk-synchronous write pipeline simulation.
func SimulateWrite(cfg SimConfig) (SimResult, error) {
	return hpcsim.SimulateWrite(cfg)
}

// SimulateRead runs the inverse (read) pipeline simulation.
func SimulateRead(cfg SimConfig) (SimResult, error) {
	return hpcsim.SimulateRead(cfg)
}

// DatasetSpec parameterizes one synthetic stand-in for a paper dataset.
type DatasetSpec = datagen.Spec

// Datasets returns the 20 synthetic datasets in the paper's Table III order.
func Datasets() []DatasetSpec {
	return datagen.Specs()
}

// DatasetByName looks a dataset up by its paper name (e.g. "gts_phi_l").
func DatasetByName(name string) (DatasetSpec, bool) {
	return datagen.ByName(name)
}

// PermuteValues returns a seeded random permutation of values (the paper's
// user-controlled linearization experiment).
func PermuteValues(values []float64, seed int64) []float64 {
	return datagen.Permute(values, seed)
}

// Metrics is a telemetry registry: a set of named counters, gauges, and
// histograms every subsystem reports into once EnableTelemetry routes them
// there. Safe for concurrent use; expose it over HTTP with its
// MetricsHandler method, dump it with WriteText/WritePrometheus, or read it
// programmatically with Snapshot.
type Metrics = telemetry.Registry

// MetricsSnapshot is a point-in-time, sorted copy of every metric in a
// registry.
type MetricsSnapshot = telemetry.Snapshot

// NewMetrics returns an empty metrics registry.
func NewMetrics() *Metrics { return telemetry.NewRegistry() }

// EnableTelemetry routes every subsystem's metrics — codec stage timers
// (the paper's α₁/α₂ decomposition), byte throughput, degraded-chunk and
// salvage-fault counts, pipeline shard timing, stream segment accounting,
// archive entry accounting, durable-store journal appends, fsync latency,
// compactions and recovery salvage counts, admission waits and queue depth
// (primacy_fairshare_*, for the in-situ paths and primacyd alike), and retry
// attempts/backoff — to m. A nil m disables recording; the disabled hot path
// costs one atomic load and nil check, with no allocation.
//
// The routing is process-wide (one registry at a time), matching how a
// metrics endpoint is deployed; call EnableTelemetry(nil) to stop recording.
func EnableTelemetry(m *Metrics) {
	core.EnableTelemetry(m)
	pipeline.EnableTelemetry(m)
	stream.EnableTelemetry(m)
	archive.EnableTelemetry(m)
	durable.EnableTelemetry(m)
	fairshare.EnableTelemetry(m)
	retry.EnableTelemetry(m)
}

// Tracer is a structured tracer: spans with parent/child nesting, typed
// events, and attributes, recorded into a bounded in-memory flight recorder
// (the last spans plus every anomaly-tagged span) and optionally streamed
// to a JSONL sink. Safe for concurrent use.
type Tracer = trace.Tracer

// TraceConfig configures a Tracer's flight-recorder capacities and optional
// JSONL output.
type TraceConfig = trace.Config

// TraceSpanRecord is one completed span in the flight recorder.
type TraceSpanRecord = trace.SpanRecord

// TraceDumpOptions filters a flight-recorder dump.
type TraceDumpOptions = trace.DumpOptions

// NewTracer returns a Tracer with the given configuration (zero value:
// default capacities, no JSONL sink).
func NewTracer(cfg TraceConfig) *Tracer { return trace.New(cfg) }

// EnableTracing routes every subsystem's spans — per-chunk codec stage
// spans, pipeline shard spans, stream segment spans, archive entry spans,
// durable-store journal appends, compactions and recovery, blocked
// admissions (fairshare.wait), and retry attempts — to t. Every subsystem
// reads the one process-wide tracer, so this is a single switch. A nil t
// disables tracing; the disabled hot path costs one atomic load and nil
// check, with no allocation.
//
// Like EnableTelemetry, the routing is process-wide (one tracer at a time);
// call EnableTracing(nil) to stop recording.
func EnableTracing(t *Tracer) { trace.Enable(t) }

// ModelEstimate is a live evaluation of the Section III model against
// measured telemetry: fully-populated parameters, predicted write/read
// breakdowns, and the compute-side residual between prediction and
// observation.
type ModelEstimate = model.Estimate

// EstimateModel fits the Section III performance model to a telemetry
// snapshot: structural parameters (α₁, α₂, σ_ho, σ_lo, δ) from the codec's
// byte counters, rates (T_prec, T_comp, T_decomp) from its stage timers,
// environment (ρ, θ, μ) from env.
func EstimateModel(snap MetricsSnapshot, env ModelParams) (ModelEstimate, error) {
	return model.EstimateFromSnapshot(snap, env)
}
