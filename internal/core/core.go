// Package core implements the PRIMACY compression pipeline — the paper's
// primary contribution. Per 3 MB chunk it (1) splits each double into 2
// high-order and 6 low-order bytes, (2) maps high-order byte pairs to
// frequency-ranked IDs, (3) column-linearizes the ID matrix, (4) compresses
// it with a standard solver, and (5) routes the mantissa bytes through the
// ISOBAR analyzer so only compressible byte columns reach the solver.
// The inverse pipeline reconstructs the input bit-exactly.
package core

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
	"slices"

	"primacy/internal/bytesplit"
	"primacy/internal/checksum"
	"primacy/internal/chunker"
	"primacy/internal/frame"
	"primacy/internal/freq"
	"primacy/internal/isobar"
	"primacy/internal/precond"
	"primacy/internal/solver"
	"primacy/internal/trace"
)

// Linearization selects how the ID matrix is laid out before the solver.
type Linearization uint8

const (
	// LinearizeColumns compresses the ID matrix column-by-column
	// (the paper's choice, Sec. II-D).
	LinearizeColumns Linearization = iota
	// LinearizeRows keeps row-major order (ablation baseline, Sec. IV-H).
	LinearizeRows
)

// IDMapping selects how high-order byte pairs become IDs.
type IDMapping uint8

const (
	// MapRanked assigns IDs by descending frequency (the paper's mapper).
	MapRanked IDMapping = iota
	// MapIdentity passes high-order bytes through unmapped
	// (ablation baseline isolating the mapper's contribution).
	MapIdentity
)

// IndexMode selects when chunk indexes are emitted (Sec. II-F).
type IndexMode uint8

const (
	// IndexPerChunk emits a fresh index with every chunk (paper default).
	IndexPerChunk IndexMode = iota
	// IndexReuse emits an index only when the previous one no longer covers
	// the chunk's sequences (the "more intelligent indexing scheme" the
	// paper sketches as future work).
	IndexReuse
)

// Precision selects the floating-point element width.
type Precision uint8

const (
	// Float64 is the paper's double-precision layout (2+6 byte split).
	Float64 Precision = iota
	// Float32 handles single-precision data (2+2 byte split) — the
	// generalization the paper notes in Sec. II-A.
	Float32
)

// layout maps the precision to its byte-split geometry.
func (p Precision) layout() (bytesplit.Layout, error) {
	switch p {
	case Float64:
		return bytesplit.Float64Layout, nil
	case Float32:
		return bytesplit.Float32Layout, nil
	default:
		return bytesplit.Layout{}, fmt.Errorf("core: unknown precision %d", p)
	}
}

// Layout returns the byte-split geometry for the precision — the element
// width containers like pipeline and stream must use for input validation
// and shard/chunk rounding instead of assuming float64.
func (p Precision) Layout() (bytesplit.Layout, error) { return p.layout() }

// PrecondOptions configures the pluggable preconditioner layer. The zero
// value — Fixed selection of the classic chain — reproduces the historical
// pipeline byte-for-byte in a v2 container; any other setting switches the
// writer to the v3 container, whose chunk records carry the transform each
// chunk was written with (readers accept all versions regardless).
type PrecondOptions struct {
	// Selection picks how the per-chunk transform is chosen (default
	// Fixed: always Transform, no per-chunk work).
	Selection precond.SelectionMode
	// Transform is the transform applied in Fixed mode (default the
	// classic chain). Ignored by the auto-selecting modes.
	Transform precond.TransformID
	// Candidates restricts the auto-selecting modes' candidate set
	// (default: every registered transform). Must be empty in Fixed mode.
	Candidates []precond.TransformID
	// SampleElems caps the per-chunk selection sample in elements
	// (precond.DefaultSampleElems when 0).
	SampleElems int
}

// enabled reports whether the preconditioner layer departs from the classic
// fixed chain — the condition under which the writer emits a v3 container.
func (p PrecondOptions) enabled() bool {
	return p.Selection != precond.Fixed || p.Transform != precond.IDChain || len(p.Candidates) > 0
}

// Options configures the codec.
type Options struct {
	// Solver names the registered standard compressor (default "zlib").
	Solver string
	// ChunkBytes is the in-situ chunk size (default 3 MB).
	ChunkBytes int
	// Linearization of the ID matrix (default columns).
	Linearization Linearization
	// Mapping of high-order bytes (default ranked).
	Mapping IDMapping
	// IndexMode controls index emission (default per chunk).
	IndexMode IndexMode
	// Precision selects the element width (default Float64).
	Precision Precision
	// DisableISOBAR compresses all six mantissa byte columns through the
	// solver unconditionally (ablation).
	DisableISOBAR bool
	// ISOBAR tunes the mantissa analyzer.
	ISOBAR isobar.Options
	// Precond configures the pluggable preconditioner registry: which
	// transform precedes the chain, and whether it is fixed or chosen per
	// chunk (a priori sampling or a posteriori trial compression). The
	// zero value keeps the classic chain and the v2 container.
	Precond PrecondOptions
}

func (o Options) solverName() string {
	if o.Solver == "" {
		return "zlib"
	}
	return o.Solver
}

// Stats reports what the compressor did — the inputs of the paper's
// performance model (Table I) plus size accounting.
type Stats struct {
	// RawBytes and CompressedBytes give the end-to-end ratio.
	RawBytes        int
	CompressedBytes int
	// Chunks processed.
	Chunks int
	// Alpha1 is the fraction of each chunk handled by the ID mapper
	// (the high-order 2 of 8 bytes).
	Alpha1 float64
	// Alpha2 is the mean fraction of the low-order bytes classified
	// compressible by ISOBAR.
	Alpha2 float64
	// SigmaHo is compressed/original for the high-order part (IDs+index).
	SigmaHo float64
	// SigmaLo is compressed/original for the compressible low-order part.
	SigmaLo float64
	// IndexBytes is the total metadata overhead.
	IndexBytes int
	// IndexesEmitted counts chunks that carried a fresh index.
	IndexesEmitted int
	// PrecSeconds is wall time spent in preconditioner stages (transform
	// selection and forward transform, byte split, frequency analysis, ID
	// mapping, linearization, ISOBAR analysis and partitioning) — the T_prec
	// input of the performance model.
	PrecSeconds float64
	// SolverSeconds is wall time spent inside the standard compressor —
	// the T_comp input of the performance model.
	SolverSeconds float64
	// SolverInputBytes is how many bytes were handed to the solver
	// (α1·C + α2·(1-α1)·C summed over chunks).
	SolverInputBytes int
	// DegradedChunks counts chunks stored raw-passthrough because the
	// solver faulted (error or panic) while compressing them. Zero on a
	// healthy run; a non-zero value means the container is complete and
	// decompressible, but those chunks carry no compression.
	DegradedChunks int
	// TransformChunks counts chunks by the preconditioner transform they
	// were written with, keyed by registry name. Nil unless the
	// preconditioner layer is enabled (Options.Precond non-zero).
	TransformChunks map[string]int
}

// PrecThroughput reports raw preconditioner throughput in bytes/second.
func (s Stats) PrecThroughput() float64 {
	if s.PrecSeconds <= 0 {
		return 0
	}
	return float64(s.RawBytes) / s.PrecSeconds
}

// SolverThroughput reports solver throughput over its input bytes.
func (s Stats) SolverThroughput() float64 {
	if s.SolverSeconds <= 0 {
		return 0
	}
	return float64(s.SolverInputBytes) / s.SolverSeconds
}

// Ratio returns original/compressed (the paper's Equation 1; >1 is good).
func (s Stats) Ratio() float64 {
	if s.CompressedBytes == 0 {
		return 0
	}
	return float64(s.RawBytes) / float64(s.CompressedBytes)
}

var (
	// ErrCorrupt indicates a malformed container.
	ErrCorrupt = errors.New("core: corrupt stream")
	// ErrBadInput indicates input that is not whole float64 elements.
	ErrBadInput = errors.New("core: input not a multiple of 8 bytes")
)

// Codec carries reusable scratch buffers across Compress/Decompress calls so
// the per-chunk hot path (byte split, ID encode, linearization, ISOBAR
// partitioning, and the solvers' pooled writer/reader state) is
// allocation-free in steady state. The zero value is ready to use. A Codec
// is not safe for concurrent use; give each worker goroutine its own (see
// internal/pipeline).
type Codec struct{ sc scratch }

// scratch holds the per-chunk working buffers. The chunk crosses the codec
// as byte planes (bytesplit.AppendPlanes): one buffer holds all of them, and
// the stages read or slice it instead of copying into buffers of their own.
// Buffers are recycled via [:0] between chunks.
type scratch struct {
	// planes is the chunk as ElemBytes byte planes (compress); on decompress
	// it receives the decoded high-order planes followed by the solver's
	// mantissa output, which already is the compressible planes.
	planes []byte
	ids    []byte // column-linearized ID matrix (compress) / solver ID output (decompress)
	// aux is touched off the common path only, by two uses that never
	// overlap: the row-major ID matrix of the LinearizeRows ablation, and the
	// compressible planes gathered for an ISOBAR mask whose set bits are not
	// adjacent (adjacent ones alias planes).
	aux    []byte
	idsCmp []byte // solver output for the ID matrix (compress)
	cmpOut []byte // solver output for the mantissa part (compress)
	enc    []byte // record of an a-posteriori trial; a live one is assembled in the container

	// empty caches the solver's compressed representation of zero input for
	// the ISOBAR no-waste fallback, so clearing the mask never re-runs the
	// solver (the old double-compress). Keyed by the compressor value.
	empty    []byte
	emptyFor solver.Compressor

	// tf caches preconditioner transform instances by wire ID on the
	// decompress side, so a container full of same-transform chunks builds
	// each inverse transform (and its predictor tables) once.
	tf map[precond.TransformID]precond.Transform

	// counts is the 64Ki flat sequence counter the fused split+histogram
	// pass fills; one arena per codec, zeroed between chunks, so ranked
	// mapping never allocates a fresh histogram.
	counts []uint32
}

// countsArena returns the zeroed flat counter, allocating it on first use.
func (s *scratch) countsArena() []uint32 {
	if s.counts == nil {
		s.counts = make([]uint32, freq.SequenceSpace)
	} else {
		clear(s.counts)
	}
	return s.counts
}

// transform returns the cached inverse-transform instance for id, building
// it on first use.
func (s *scratch) transform(id precond.TransformID) (precond.Transform, error) {
	if t, ok := s.tf[id]; ok {
		return t, nil
	}
	t, err := precond.New(id)
	if err != nil {
		return nil, err
	}
	if s.tf == nil {
		s.tf = map[precond.TransformID]precond.Transform{}
	}
	s.tf[id] = t
	return t, nil
}

// compressedEmpty returns sv's compressed form of empty input, computing it
// once per solver and caching it in the scratch.
func (s *scratch) compressedEmpty(sv solver.Compressor) ([]byte, error) {
	if s.emptyFor != sv {
		out, err := solver.CompressTo(sv, s.empty[:0], nil)
		if err != nil {
			return nil, err
		}
		s.empty = out
		s.emptyFor = sv
	}
	return s.empty, nil
}

// room returns dst with capacity for n more bytes. An empty dst (recycled
// scratch, or none) carries nothing over and gets exactly n; one holding data
// grows as append does, so outrunning a pre-size stays O(1) copies per byte.
func room(dst []byte, n int) []byte {
	switch {
	case cap(dst)-len(dst) >= n:
		return dst
	case len(dst) == 0:
		return make([]byte, 0, n)
	}
	return slices.Grow(dst, n)
}

// Compress compresses a byte stream of big-endian-serializable float64 data
// (any []byte whose length is a multiple of 8 works; the pipeline is
// lossless regardless of content). For cancellation, Stats or a caller-owned
// destination, use Codec.AppendCompressCtx.
func Compress(data []byte, opts Options) ([]byte, error) {
	var c Codec
	return c.Compress(data, opts)
}

// Compress is the Codec variant of the package-level Compress; output is
// byte-identical, but scratch persists across calls.
func (c *Codec) Compress(data []byte, opts Options) ([]byte, error) {
	out, _, err := c.AppendCompressCtx(context.Background(), nil, data, opts)
	return out, err
}

// AppendCompressCtx is the one encode implementation: it appends the container
// of data to dst, every chunk record assembled once, where it stays, behind a
// length+CRC slot that is filled in when the record is complete. The caller
// owns the destination. With room for the container behind len(dst) nothing is
// allocated and the result shares dst's array; a nil or short dst is grown,
// sized from the first record that does not fit (see openRecord). dst must not
// alias data. Stats.CompressedBytes counts the container, not what dst held.
// On error the result is nil and the bytes behind len(dst) are unspecified.
// ctx is checked between chunks, so a cancelled call returns ctx.Err() within
// one chunk boundary.
//
// Degraded-mode fault tolerance: a chunk whose solver faults — an error or a
// panic — is stored raw-passthrough instead of failing the call, and
// Stats.DegradedChunks reports how many chunks took that path.
// Input-validation errors (bad length, unknown solver or mapping) still fail
// up front.
func (c *Codec) AppendCompressCtx(ctx context.Context, dst, data []byte, opts Options) ([]byte, Stats, error) {
	var stats Stats
	lay, err := opts.Precision.layout()
	if err != nil {
		return nil, stats, err
	}
	switch opts.Mapping {
	case MapRanked, MapIdentity:
	default:
		return nil, stats, fmt.Errorf("core: unknown mapping %d", opts.Mapping)
	}
	if len(data)%lay.ElemBytes != 0 {
		return nil, stats, fmt.Errorf("%w: %d %% %d", ErrBadInput, len(data), lay.ElemBytes)
	}
	sv, err := solver.Get(opts.solverName())
	if err != nil {
		return nil, stats, err
	}
	plan, err := chunker.NewPlan(len(data), opts.ChunkBytes, lay.ElemBytes)
	if err != nil {
		return nil, stats, err
	}
	chunks, err := plan.Split(data)
	if err != nil {
		return nil, stats, err
	}
	// The preconditioner layer: only built when Options.Precond departs from
	// the classic fixed chain, which also switches the container to v3 so
	// every chunk record can carry its transform ID.
	var ps *precondState
	magic := magicV2
	if opts.Precond.enabled() {
		sel, err := precond.NewSelector(opts.Precond.Selection, opts.Precond.Transform,
			opts.Precond.Candidates, opts.Precond.SampleElems)
		if err != nil {
			return nil, stats, err
		}
		ps = &precondState{sel: sel, sv: sv, opts: opts, lay: lay}
		magic = magicV3
	}
	m := tmet.Load()
	// The call span nests under a container span (pipeline shard, stream
	// segment) when the context carries one; each chunk gets a child span
	// with per-stage children inside compressChunk.
	cs := trace.Start(trace.SpanFromContext(ctx), "core.compress").
		Attr("raw_bytes", int64(len(data)))

	name := opts.solverName()
	base := len(dst)
	out := room(dst, len(magic)+4+1+1+len(name)+12+4)
	out = append(out, magic...)
	out = append(out, byte(opts.Linearization), byte(opts.Mapping), byte(opts.IndexMode), boolByte(opts.DisableISOBAR))
	out = append(out, byte(opts.Precision))
	out = append(out, byte(len(name)))
	out = append(out, name...)
	out = binary.LittleEndian.AppendUint64(out, uint64(len(data)))
	out = binary.LittleEndian.AppendUint32(out, uint32(plan.ChunkBytes()))
	out = checksum.Append(out, out[base:])

	stats.RawBytes = len(data)
	stats.Alpha1 = float64(lay.HiBytes) / float64(lay.ElemBytes)
	var (
		prevIndex *freq.Index
		hiRaw     int
		hiComp    int
		loCompIn  int
		loCompOut int
		alpha2Sum float64
		// rest is the input from the chunk in hand on: what a record that
		// does not fit sizes the container for.
		rest = len(data)
	)
	for _, chunk := range chunks {
		if err := ctx.Err(); err != nil {
			cs.End(err)
			return nil, stats, err
		}
		chunkSpan := cs.Child("core.chunk").
			Attr("chunk", int64(stats.Chunks)).
			Attr("bytes", int64(len(chunk)))
		slot := len(out)
		grown, ci, err := compressChunkSafe(out, chunk, rest, sv, opts, lay, prevIndex, &c.sc, ps, m, chunkSpan)
		if err != nil {
			// Degraded mode: the solver faulted on this chunk (error or
			// panic). Store the chunk raw so the container stays complete
			// and decompressible; the fault is visible via DegradedChunks.
			// out still ends at the slot, so the raw record is written over
			// whatever the faulting chunk assembled behind it.
			// The compress-side prevIndex is left untouched, matching the
			// decode side where a raw record passes the live index through.
			// Raw records never carry a transform ID — the payload is the
			// original, untransformed chunk in every container version.
			grown, ci = appendRawChunkRecord(out, chunk, rest), chunkInfo{index: prevIndex}
			stats.DegradedChunks++
			chunkSpan.Anomaly(trace.KindDegradedChunk, err.Error())
		} else if ps != nil {
			name := precond.Name(ci.tid)
			if stats.TransformChunks == nil {
				stats.TransformChunks = map[string]int{}
			}
			stats.TransformChunks[name]++
			chunkSpan.AttrStr("transform", name)
			if m != nil {
				if sel := m.precondSelected[ci.tid]; sel != nil {
					sel.Add(1)
				}
			}
		}
		prevIndex = ci.index
		out = grown
		// Fill the slot openRecord reserved in front of the record.
		rec := out[slot+recSlot:]
		frame.AppendHeader(out[:slot], len(rec), checksum.Sum(rec))
		rest -= len(chunk)
		stats.Chunks++
		stats.IndexBytes += ci.indexBytes
		if ci.indexBytes > 0 {
			stats.IndexesEmitted++
		}
		hiRaw += ci.hiRaw
		hiComp += ci.hiComp + ci.indexBytes
		loCompIn += ci.loCompIn
		loCompOut += ci.loCompOut
		alpha2Sum += ci.alpha2
		stats.PrecSeconds += ci.precSecs
		stats.SolverSeconds += ci.solverSecs
		stats.SolverInputBytes += ci.solverInput
		chunkSpan.End(nil)
	}
	stats.CompressedBytes = len(out) - base
	if stats.Chunks > 0 {
		stats.Alpha2 = alpha2Sum / float64(stats.Chunks)
	}
	if hiRaw > 0 {
		stats.SigmaHo = float64(hiComp) / float64(hiRaw)
	}
	if loCompIn > 0 {
		stats.SigmaLo = float64(loCompOut) / float64(loCompIn)
	}
	if m != nil {
		m.chunks.Add(int64(stats.Chunks))
		m.degraded.Add(int64(stats.DegradedChunks))
		m.rawBytes.Add(int64(stats.RawBytes))
		m.compBytes.Add(int64(stats.CompressedBytes))
		m.solverIn.Add(int64(stats.SolverInputBytes))
		m.hiRawBytes.Add(int64(hiRaw))
		m.hiCompBytes.Add(int64(hiComp))
		m.loCompIn.Add(int64(loCompIn))
		m.loCompOut.Add(int64(loCompOut))
		m.indexBytes.Add(int64(stats.IndexBytes))
	}
	cs.Attr("compressed_bytes", int64(stats.CompressedBytes)).
		Attr("chunks", int64(stats.Chunks)).
		Attr("degraded", int64(stats.DegradedChunks)).
		End(nil)
	return out, stats, nil
}

func boolByte(b bool) byte {
	if b {
		return 1
	}
	return 0
}

type chunkInfo struct {
	index       *freq.Index
	indexBytes  int
	hiRaw       int
	hiComp      int
	loCompIn    int
	loCompOut   int
	alpha2      float64
	precSecs    float64
	solverSecs  float64
	solverInput int
	// tid is the preconditioner transform the chunk was written with
	// (meaningful only when the preconditioner layer is enabled).
	tid precond.TransformID
}

// compressChunk appends one chunk's record to out, the container so far,
// behind the record's length+CRC slot, which it leaves for the caller to fill
// in; rest is what openRecord sizes a short out by.
// m may be nil (telemetry disabled); when set, per-stage wall times and the
// paper's α₁/α₂ stage decomposition are recorded as histograms. cs is the
// chunk's trace span (inert when tracing is off); stage child spans hang off
// it. A stage span on an error path is never ended — an un-ended span is
// dropped, and the chunk-level degraded anomaly carries the fault — except the
// solver's, which ends with the solver's error: that stage is where an
// operator looks first.
// tid is the preconditioner transform ID to record after the flag byte (v3
// containers); -1 writes the v1/v2 record layout with no transform byte.
// chunk must already be transformed; its length equals the original because
// transforms are length-preserving.
//
// The chunk is transposed once, into byte planes; every later stage reads
// planes. Planes 0–1 feed the ID mapper, whose plane encoder emits the ID
// matrix already column-linearized; planes 2… are the mantissa columns, so
// ISOBAR's partition is a choice of planes, not a copy. The record is the
// one the split → columnize → partition chain of exported stage functions
// produces, byte for byte (planar_test.go holds the two together).
func compressChunk(out, chunk []byte, rest int, sv solver.Compressor, opts Options, lay bytesplit.Layout, prev *freq.Index, sc *scratch, m *coreMetrics, cs trace.Span, tid int) ([]byte, chunkInfo, error) {
	var ci chunkInfo
	// solve runs the solver on src as a stage and books the time and the
	// input size.
	solve := func(dst, src []byte) ([]byte, error) {
		st := openStage(cs, m, stSolver)
		out, err := solver.CompressTo(sv, dst, src)
		d := st.end(err)
		if err != nil {
			return nil, err
		}
		ci.solverSecs += d
		ci.solverInput += len(src)
		return out, nil
	}
	st := openStage(cs, m, stBytesplit)
	// When a fresh per-chunk index is certain (ranked mapping with no prior
	// index to reuse), the transposition also fills the 64Ki flat counter, so
	// BuildIndex never re-reads the high-order planes. The reuse path can't
	// fuse — whether it needs a histogram depends on CoversPlanes.
	fused := opts.Mapping == MapRanked && !(opts.IndexMode == IndexReuse && prev != nil)
	var counts []uint32
	if fused {
		counts = sc.countsArena()
	}
	pl, err := lay.AppendPlanes(sc.planes[:0], chunk, counts)
	if err != nil {
		return nil, ci, err
	}
	ci.precSecs += st.end(nil)
	sc.planes = pl
	n := len(chunk) / lay.ElemBytes
	p0, p1, lo := pl[:n], pl[n:2*n], pl[lay.HiBytes*n:]
	ci.hiRaw = lay.HiBytes * n

	// High-order path: ID mapping + linearization + solver. Under
	// MapIdentity planes 0–1 already are the column-linearized matrix.
	st = openStage(cs, m, stFreqmap)
	ids := pl[:lay.HiBytes*n]
	var indexBlob []byte
	if opts.Mapping == MapRanked {
		idx := prev
		reuse := false
		if opts.IndexMode == IndexReuse && prev != nil {
			if reuse, err = prev.CoversPlanes(p0, p1); err != nil {
				return nil, ci, err
			}
		}
		if !reuse {
			if !fused {
				counts = sc.countsArena()
				if err := freq.HistogramPlanes(counts, p0, p1); err != nil {
					return nil, ci, err
				}
			}
			if n > 0 {
				idx, err = freq.BuildIndex(counts)
				if err != nil {
					return nil, ci, err
				}
				indexBlob = idx.Marshal()
			}
		}
		if idx != nil {
			ids, err = idx.AppendEncodePlanes(sc.ids[:0], p0, p1)
			if err != nil {
				return nil, ci, err
			}
			sc.ids = ids
		}
		ci.index = idx
	}
	if opts.Linearization != LinearizeColumns && n > 0 {
		ids, err = bytesplit.AppendDecolumnize(sc.aux[:0], ids, lay.HiBytes)
		if err != nil {
			return nil, ci, err
		}
		sc.aux = ids
	}
	ci.precSecs += st.end(nil)
	idsComp, err := solve(sc.idsCmp[:0], ids)
	if err != nil {
		return nil, ci, err
	}
	sc.idsCmp = idsComp
	ci.hiComp = len(idsComp)
	ci.indexBytes = len(indexBlob)

	// Low-order path: ISOBAR picks the compressible planes, the solver takes
	// them, the rest go into the record as they are.
	st = openStage(cs, m, stIsobar)
	lb := lay.LoBytes()
	mask := uint64(1)<<uint(lb) - 1
	ci.alpha2 = 1
	if !opts.DisableISOBAR {
		analysis, err := isobar.AnalyzePlanes(lo, lb, opts.ISOBAR)
		if err != nil {
			return nil, ci, err
		}
		mask = analysis.Mask
		ci.alpha2 = analysis.CompressibleFraction()
	}
	comp, copied, err := isobar.CompressiblePlanes(sc.aux[:0], lo, lb, mask)
	if err != nil {
		return nil, ci, err
	}
	if copied {
		sc.aux = comp
	}
	ci.precSecs += st.end(nil)
	compOut, err := solve(sc.cmpOut[:0], comp)
	if err != nil {
		return nil, ci, err
	}
	sc.cmpOut = compOut
	// Guard: if the solver expanded the compressible part, store it raw and
	// clear the mask so decode knows (ISOBAR's no-waste principle). Clearing
	// the mask is all it takes: every mantissa plane then counts as
	// incompressible and is written from the plane buffer below, and the
	// solver output for the now-empty compressible part is the cached
	// compressed-empty constant — no data moves, no second solver run.
	if len(compOut) >= len(comp) && len(comp) > 0 {
		mask = 0
		comp = comp[:0]
		compOut, err = sc.compressedEmpty(sv)
		if err != nil {
			return nil, ci, err
		}
		ci.alpha2 = 0
	}
	ci.loCompIn = len(comp)
	ci.loCompOut = len(compOut)

	// Assemble the chunk record, where it stays.
	incompLen := len(lo) - len(comp)
	enc := openRecord(out, len(idsComp)+len(compOut)+incompLen+len(indexBlob)+32, len(chunk), rest)
	enc = binary.LittleEndian.AppendUint32(enc, uint32(len(chunk)))
	enc = append(enc, boolByte(len(indexBlob) > 0))
	if tid >= 0 {
		enc = append(enc, byte(tid))
		ci.tid = precond.TransformID(tid)
	}
	if len(indexBlob) > 0 {
		enc = binary.LittleEndian.AppendUint32(enc, uint32(len(indexBlob)))
		enc = append(enc, indexBlob...)
	}
	enc = binary.LittleEndian.AppendUint32(enc, uint32(len(idsComp)))
	enc = append(enc, idsComp...)
	enc = append(enc, byte(mask))
	enc = binary.LittleEndian.AppendUint32(enc, uint32(len(compOut)))
	enc = append(enc, compOut...)
	enc = binary.LittleEndian.AppendUint32(enc, uint32(incompLen))
	enc, err = isobar.AppendIncompressiblePlanes(enc, lo, lb, mask)
	if err != nil {
		return nil, ci, err
	}
	return enc, ci, nil
}

// recSlot is the frame header in front of every chunk record.
var recSlot = frame.HeaderLen(true)

// openRecord reserves, behind out, the slot of a chunk record of at most n
// bytes. An out without room for slot and record is grown for the rest of the
// input at once — rest raw bytes, this chunk's chunkLen included: chunks of one
// input compress alike, so this record prices the others by the byte. A last
// chunk gets its exact size, one with more behind it 1/16 of slack for the
// records that come out larger, and append covers whatever is left.
func openRecord(out []byte, n, chunkLen, rest int) []byte {
	if n += recSlot; cap(out)-len(out) < n {
		if rest > chunkLen {
			n = int(int64(n) * int64(rest) / int64(chunkLen))
			n += n / 16
		}
		out = room(out, n)
	}
	return out[:len(out)+recSlot]
}

// DecompStats reports read-side stage timing.
type DecompStats struct {
	// RawBytes is the decompressed size.
	RawBytes int
	// PrecSeconds is wall time spent inverting preconditioner stages
	// (ID decode, delinearization, unpartition, merge, inverse transform).
	PrecSeconds float64
	// SolverSeconds is wall time spent in solver decompression.
	SolverSeconds float64
	// SolverOutputBytes is how many raw bytes the solver produced.
	SolverOutputBytes int
}

// PrecThroughput reports inverse-preconditioner throughput in bytes/second.
func (s DecompStats) PrecThroughput() float64 {
	if s.PrecSeconds <= 0 {
		return 0
	}
	return float64(s.RawBytes) / s.PrecSeconds
}

// SolverThroughput reports solver decompression throughput over its output.
func (s DecompStats) SolverThroughput() float64 {
	if s.SolverSeconds <= 0 {
		return 0
	}
	return float64(s.SolverOutputBytes) / s.SolverSeconds
}

// Decompress reverses Compress. All container versions are accepted; v2+
// inputs have their header and per-chunk CRC32C checksums verified, and any
// mismatch fails the decode with an error wrapping both ErrCorrupt and
// ErrChecksum. For cancellation, DecompStats or a caller-owned destination,
// use Codec.AppendDecompressCtx.
func Decompress(data []byte) ([]byte, error) {
	var c Codec
	return c.Decompress(data)
}

// Decompress is the Codec variant of the package-level Decompress.
func (c *Codec) Decompress(data []byte) ([]byte, error) {
	out, _, err := c.AppendDecompressCtx(context.Background(), nil, data)
	return out, err
}

// AppendDecompressCtx is the one decode implementation: it appends the decoded
// container to dst, every chunk written once, at its final position. The
// caller owns the destination. With room for the decoded size (DecodedLen)
// behind len(dst) nothing is allocated and the result shares dst's array; a
// capacity that ends exactly there is a window the decode cannot leave, since
// no chunk may claim more than the header's total still has open. A nil or
// short dst is grown: by the header's claim up to MaxExpansion times the
// container, by append's doubling past that. dst must not alias data. On
// error the result is nil and the bytes behind len(dst) are unspecified. ctx
// is checked between chunks, like AppendCompressCtx.
func (c *Codec) AppendDecompressCtx(ctx context.Context, dst, data []byte) ([]byte, DecompStats, error) {
	var ds DecompStats
	h, err := parseVerifiedHeader(data)
	if err != nil {
		return nil, ds, err
	}
	sv, err := solver.Get(string(h.solverName))
	if err != nil {
		return nil, ds, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}

	m := tmet.Load()
	cs := trace.Start(trace.SpanFromContext(ctx), "core.decompress").
		Attr("container_bytes", int64(len(data)))
	base := len(dst)
	out := room(dst, h.preSize(len(data)))
	pos := h.end
	var prevIndex *freq.Index
	chunkNo := int64(0)
	for uint64(len(out)-base) < h.total {
		open := h.total - uint64(len(out)-base)
		if err := ctx.Err(); err != nil {
			cs.End(err)
			return nil, ds, err
		}
		rec, next, err := h.frame(data, pos)
		if err != nil {
			cs.End(err)
			return nil, ds, err
		}
		chunkSpan := cs.Child("core.chunk.decode").Attr("chunk", chunkNo)
		chunkNo++
		before := len(out)
		var idx *freq.Index
		out, idx, err = decompressChunk(out, rec, int(min(open, maxChunkRaw)), &h, sv, prevIndex, &ds, &c.sc, m, chunkSpan)
		if err != nil {
			chunkSpan.End(err)
			cs.End(err)
			return nil, ds, err
		}
		chunkSpan.Attr("bytes", int64(len(out)-before)).End(nil)
		prevIndex = idx
		pos = next
	}
	ds.RawBytes = len(out) - base
	if m != nil {
		m.decBytes.Add(int64(ds.RawBytes))
		m.decSolverBytes.Add(int64(ds.SolverOutputBytes))
	}
	cs.Attr("raw_bytes", int64(ds.RawBytes)).End(nil)
	return out, ds, nil
}

// decompressChunk decodes one chunk record and appends the chunk to dst: the
// interleave (or the copy of a raw record) writes it there, once, and a
// non-chain transform's inverse rewrites it in place. limit is the most the
// record may claim to decode to — what the container's total still has open,
// so a window sized by that total is never outgrown. h is the container's
// header: v3 records carry a preconditioner transform-ID byte after the flag.
// m may be nil (telemetry disabled); cs is the chunk's trace span (inert when
// tracing is off) — stage spans on error paths are dropped un-ended, except
// the solver's, which ends with its error; the caller records the error on the
// chunk span too.
//
// The record is parsed and cross-checked in full before any solver runs.
// Then the planes are put together where the bytes already are — decoded
// high-order planes and the solver's mantissa output in sc.planes, the raw
// columns still inside rec — and dst is grown and written only once all of
// them have the sizes the record promised. On error dst's length is
// untouched and nil is returned.
func decompressChunk(dst, rec []byte, limit int, h *header, sv solver.Compressor, prev *freq.Index, ds *DecompStats, sc *scratch, m *coreMetrics, cs trace.Span) ([]byte, *freq.Index, error) {
	ver, lin, mapping, lay := h.version, h.lin, h.mapping, h.lay
	pos := 0
	readU32 := func() (int, error) {
		if pos+4 > len(rec) {
			return 0, fmt.Errorf("%w: truncated chunk record", ErrCorrupt)
		}
		v := int(binary.LittleEndian.Uint32(rec[pos:]))
		pos += 4
		return v, nil
	}
	// field reads a u32 length and the bytes it announces.
	field := func(what string) ([]byte, error) {
		l, err := readU32()
		if err != nil {
			return nil, err
		}
		if l < 0 || l > len(rec)-pos {
			return nil, fmt.Errorf("%w: truncated %s", ErrCorrupt, what)
		}
		pos += l
		return rec[pos-l : pos], nil
	}
	rawLen, err := readU32()
	if err != nil {
		return nil, nil, err
	}
	// Bound checks come first: rawLen is attacker-controlled, so it must be
	// rejected before any arithmetic uses it.
	if rawLen < 0 || rawLen > limit || rawLen%lay.ElemBytes != 0 {
		return nil, nil, fmt.Errorf("%w: chunk raw length %d (at most %d expected)", ErrCorrupt, rawLen, limit)
	}
	n := rawLen / lay.ElemBytes
	if pos >= len(rec) {
		return nil, nil, fmt.Errorf("%w: missing index flag", ErrCorrupt)
	}
	flag := rec[pos]
	pos++
	if flag == rawChunkFlag {
		// Degraded raw-passthrough record: the payload is the chunk itself,
		// stored when the solver faulted at compression time. The live
		// index passes through untouched for later IndexReuse chunks.
		if len(rec)-pos != rawLen {
			return nil, nil, fmt.Errorf("%w: raw chunk claims %d bytes, record holds %d",
				ErrCorrupt, rawLen, len(rec)-pos)
		}
		return append(dst, rec[pos:]...), prev, nil
	}
	// v3 records name the preconditioner transform right after the flag;
	// earlier versions predate the layer and always used the classic chain.
	tid := precond.IDChain
	if ver >= 3 {
		if pos >= len(rec) {
			return nil, nil, fmt.Errorf("%w: missing transform ID", ErrCorrupt)
		}
		tid = precond.TransformID(rec[pos])
		pos++
	}
	idx := prev
	if flag == 1 {
		blob, err := field("index")
		if err != nil {
			return nil, nil, err
		}
		idx, err = freq.UnmarshalIndex(blob)
		if err != nil {
			return nil, nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
		}
	}
	idsEnc, err := field("ID payload")
	if err != nil {
		return nil, nil, err
	}
	if pos >= len(rec) {
		return nil, nil, fmt.Errorf("%w: missing ISOBAR mask", ErrCorrupt)
	}
	mask := uint64(rec[pos])
	pos++
	compEnc, err := field("mantissa payload")
	if err != nil {
		return nil, nil, err
	}
	incomp, err := field("raw payload")
	if err != nil {
		return nil, nil, err
	}
	if pos != len(rec) {
		return nil, nil, fmt.Errorf("%w: %d trailing bytes in chunk record", ErrCorrupt, len(rec)-pos)
	}
	// The writer sets a mask bit only for a mantissa column that exists, so
	// a bit at or beyond the low-order width is damage, not a column to
	// ignore. With the mask known good, the raw columns' size is determined.
	hb, lb := lay.HiBytes, lay.LoBytes()
	if mask>>uint(lb) != 0 {
		return nil, nil, fmt.Errorf("%w: ISOBAR mask %#x names columns beyond %d", ErrCorrupt, mask, lb)
	}
	nComp := bits.OnesCount64(mask)
	if len(incomp) != (lb-nComp)*n {
		return nil, nil, fmt.Errorf("%w: raw payload %d bytes, want %d", ErrCorrupt, len(incomp), (lb-nComp)*n)
	}
	if mapping == MapRanked && idx == nil && n > 0 {
		return nil, nil, fmt.Errorf("%w: chunk needs index but none present", ErrCorrupt)
	}

	// inflate appends the solver's output for src to dst as a stage and books
	// the time and the output size.
	inflate := func(dst, src []byte, what string) ([]byte, error) {
		st := openStage(cs, m, stDecSolver)
		out, err := solver.DecompressTo(sv, dst, src)
		if err != nil {
			err = fmt.Errorf("%w: %s: %v", ErrCorrupt, what, err)
		}
		d := st.end(err)
		if err != nil {
			return nil, err
		}
		ds.SolverSeconds += d
		ds.SolverOutputBytes += len(out) - len(dst)
		return out, nil
	}
	// The ID matrix size is known up front (n*HiBytes), so the pooled solver
	// reader decompresses into pre-sized scratch without growth doubling.
	ids, err := inflate(room(sc.ids[:0], n*hb), idsEnc, "ID payload")
	if err != nil {
		return nil, nil, err
	}
	sc.ids = ids
	if len(ids) != n*hb {
		return nil, nil, fmt.Errorf("%w: ID matrix %d bytes, want %d", ErrCorrupt, len(ids), n*hb)
	}
	st := openStage(cs, m, stDecPrec)
	// hi becomes planes 0–1: the ID planes themselves under MapIdentity,
	// their decoding at the head of sc.planes under MapRanked.
	hi := ids
	if lin != LinearizeColumns && n > 0 {
		hi, err = bytesplit.AppendColumnize(sc.aux[:0], ids, hb)
		if err != nil {
			return nil, nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
		}
		sc.aux = hi
	}
	// sc.planes gets the same capacity compressChunk gives it, not the
	// (hb+nComp)*n this record needs: a pooled codec that alternates
	// directions, or meets masks in a different order, then sizes the buffer
	// once instead of once per wider mask.
	pl := room(sc.planes[:0], lay.ElemBytes*n)
	switch mapping {
	case MapIdentity:
	case MapRanked:
		if idx != nil {
			pl, err = idx.AppendDecodePlanes(pl, hi[:n], hi[n:])
			if err != nil {
				return nil, nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
			}
			hi = pl
		}
	default:
		return nil, nil, fmt.Errorf("%w: unknown mapping %d", ErrCorrupt, mapping)
	}
	ds.PrecSeconds += st.end(nil)

	// The solver appends one n-byte column per mask bit right behind the
	// high-order planes; sc.planes was sized for both.
	filled, err := inflate(pl, compEnc, "mantissa payload")
	if err != nil {
		return nil, nil, err
	}
	sc.planes = filled
	comp := filled[len(pl):]
	st = openStage(cs, m, stDecPrec)
	var views [16][]byte // Layout.Valid caps ElemBytes at 16
	planes := views[:lay.ElemBytes]
	planes[0], planes[1] = hi[:n], hi[n:]
	if err := isobar.RoutePlanes(planes[hb:], comp, incomp, mask, n); err != nil {
		return nil, nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	out, err := lay.AppendMergePlanes(room(dst, rawLen), planes)
	if err != nil {
		return nil, nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	if tid != precond.IDChain {
		// The inverse runs over the interleaved chunk where it is, in place.
		t, err := sc.transform(tid)
		if err != nil {
			return nil, nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
		}
		if out, err = t.Inverse(out[:len(dst)], out[len(dst):], lay.ElemBytes); err != nil {
			return nil, nil, fmt.Errorf("%w: inverse %s: %v", ErrCorrupt, t.Name(), err)
		}
	}
	ds.PrecSeconds += st.end(nil)
	return out, idx, nil
}
