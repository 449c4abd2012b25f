// Package stream provides io.Writer/io.Reader adapters over the PRIMACY
// codec for in-situ pipelines that produce data incrementally (checkpoint
// writers, staging transports). Data is buffered to chunk granularity and
// emitted as independent self-describing segments, so a reader can start
// decoding as soon as the first chunk arrives and a truncated stream fails
// cleanly at a segment boundary.
//
// Stream layout (v2, written by Writer):
//
//	"PRS2" | segment* | 0u32
//	segment = u32 length | u32 crc32c | core container (one chunk group)
//
// v1 streams ("PRS1", no per-segment CRC) are still read:
//
//	"PRS1" | segment* | 0u32
//	segment = u32 length | core container
package stream

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"

	"primacy/internal/bytesplit"
	"primacy/internal/checksum"
	"primacy/internal/core"
	"primacy/internal/governor"
	"primacy/internal/retry"
	"primacy/internal/telemetry"
	"primacy/internal/trace"
)

// Stream magics: v1 is the original checksum-less layout, v2 adds a CRC32C
// per segment. Writers emit v2; Reader accepts both.
const (
	magicV1 = "PRS1"
	magicV2 = "PRS2"
)

// ErrCorrupt indicates a malformed stream.
var ErrCorrupt = errors.New("stream: corrupt stream")

// ErrChecksum indicates a CRC32C mismatch on a v2 segment; it is wrapped
// together with ErrCorrupt.
var ErrChecksum = errors.New("checksum mismatch")

// ErrTooLarge indicates a segment whose compressed form exceeds the u32
// frame length, which the stream format cannot represent. Without this check
// the uint32 cast would silently truncate the length and corrupt the stream.
var ErrTooLarge = errors.New("stream: segment exceeds u32 framing limit")

// maxSegmentBytes is the largest compressed segment the u32 frame length can
// carry. Tests lower it to exercise the ErrTooLarge path without allocating
// multi-GiB buffers.
var maxSegmentBytes int64 = math.MaxUint32

// Writer compresses data written to it and forwards segments to the
// underlying writer. Not safe for concurrent use.
//
// Failure semantics: the first error returned by Write or Close is sticky —
// every later Write or Close returns the same error, and nothing more is
// written to the sink (a half-written stream is never silently extended).
// A successful Close is idempotent.
type Writer struct {
	ctx        context.Context
	dst        io.Writer
	opts       core.Options
	gov        *governor.Governor
	codec      core.Codec
	buf        []byte
	seg        []byte // the last segment, compressed: its buffer takes the next
	chunkBytes int
	stats      core.Stats
	wroteMagic bool
	closed     bool
	err        error
	// segIdx numbers emitted segments for trace spans.
	segIdx int
}

// WriterOptions bundles the streaming compressor's robustness knobs on top
// of the codec options.
type WriterOptions struct {
	// Core configures the codec (chunk size sets segment granularity).
	Core core.Options
	// Governor, when non-nil, admits each segment's buffered bytes before
	// compression, bounding the in-flight memory of many concurrent streams
	// sharing one governor.
	Governor *governor.Governor
	// Retry, when enabled, retries transient sink-write failures with
	// backoff before the writer goes sticky-failed.
	Retry retry.Policy
}

// NewWriter returns a streaming compressor. opts follows core.Options; the
// chunk size also sets the segment granularity.
func NewWriter(dst io.Writer, opts core.Options) (*Writer, error) {
	return NewWriterWith(context.Background(), dst, WriterOptions{Core: opts})
}

// NewWriterCtx is NewWriter with cancellation: ctx is checked before each
// segment is compressed and emitted.
func NewWriterCtx(ctx context.Context, dst io.Writer, opts core.Options) (*Writer, error) {
	return NewWriterWith(ctx, dst, WriterOptions{Core: opts})
}

// NewWriterWith is the fully-configured constructor: cancellation via ctx,
// admission control via wopts.Governor, and transient-sink retries via
// wopts.Retry.
func NewWriterWith(ctx context.Context, dst io.Writer, wopts WriterOptions) (*Writer, error) {
	opts := wopts.Core
	lay, err := layoutFor(opts)
	if err != nil {
		return nil, err
	}
	chunk := opts.ChunkBytes
	if chunk == 0 {
		chunk = 3 << 20
	}
	chunk -= chunk % lay.ElemBytes
	if chunk < lay.ElemBytes {
		return nil, fmt.Errorf("stream: chunk size %d below element size", opts.ChunkBytes)
	}
	if ctx == nil {
		ctx = context.Background()
	}
	if wopts.Retry.Enabled() {
		dst = retry.NewWriter(ctx, dst, wopts.Retry)
	}
	return &Writer{ctx: ctx, dst: dst, opts: opts, gov: wopts.Governor, chunkBytes: chunk}, nil
}

func layoutFor(opts core.Options) (bytesplit.Layout, error) {
	lay, err := opts.Precision.Layout()
	if err != nil {
		return bytesplit.Layout{}, fmt.Errorf("stream: %w", err)
	}
	return lay, nil
}

// Write buffers p and emits full segments as they fill. After any failure
// the writer is sticky-failed: the error is returned again on every call.
//
// Per the io.Writer contract, a failing Write reports how many bytes of p
// were consumed before the failure; bytes accepted into the internal buffer
// count as consumed. The buffer never holds more than one chunk: full chunks
// available directly in p are compressed in place without copying, and a
// partial chunk is copied into the buffer rather than re-slicing it, so the
// writer never pins a large caller-sized backing array.
func (w *Writer) Write(p []byte) (int, error) {
	if w.err != nil {
		return 0, w.err
	}
	if w.closed {
		return 0, errors.New("stream: write after Close")
	}
	n := 0
	for n < len(p) {
		if len(w.buf) == 0 && len(p)-n >= w.chunkBytes {
			// A full chunk is available in p: emit straight from the caller's
			// buffer, no copy.
			if err := w.emit(p[n : n+w.chunkBytes]); err != nil {
				w.err = err
				return n, err
			}
			n += w.chunkBytes
			continue
		}
		take := w.chunkBytes - len(w.buf)
		if take > len(p)-n {
			take = len(p) - n
		}
		if w.buf == nil {
			// One chunk-sized allocation for the writer's lifetime; append
			// growth would otherwise overshoot the chunk bound.
			w.buf = make([]byte, 0, w.chunkBytes)
		}
		w.buf = append(w.buf, p[n:n+take]...)
		n += take
		if len(w.buf) == w.chunkBytes {
			if err := w.emit(w.buf); err != nil {
				w.err = err
				return n, err
			}
			// Keep the chunk-sized backing array for the next segment.
			w.buf = w.buf[:0]
		}
	}
	return n, nil
}

func (w *Writer) emit(chunk []byte) (err error) {
	if err := w.ctx.Err(); err != nil {
		return err
	}
	m := tmet.Load()
	var sp telemetry.Span
	if m != nil {
		sp = m.segSecs.Start()
		defer sp.End()
	}
	// The segment span rides the context so the core codec's chunk spans
	// nest under it; a failed emit ends the span with the error (anomaly).
	ss := startSpan(trace.SpanFromContext(w.ctx), "stream.segment").
		Attr("segment", int64(w.segIdx)).
		Attr("raw_bytes", int64(len(chunk)))
	w.segIdx++
	defer func() { ss.End(err) }()
	ctx := trace.ContextWithSpan(w.ctx, ss)
	if err := w.gov.Acquire(ctx, int64(len(chunk))); err != nil {
		return err
	}
	defer w.gov.Release(int64(len(chunk)))
	if !w.wroteMagic {
		if _, err := w.dst.Write([]byte(magicV2)); err != nil {
			return err
		}
		w.wroteMagic = true
	}
	enc, st, err := w.codec.AppendCompressCtx(ctx, w.seg[:0], chunk, w.opts)
	if err != nil {
		return err
	}
	w.seg = enc
	if int64(len(enc)) > maxSegmentBytes {
		return fmt.Errorf("%w: segment compressed to %d bytes", ErrTooLarge, len(enc))
	}
	w.accumulate(st)
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[:4], uint32(len(enc)))
	binary.LittleEndian.PutUint32(hdr[4:], checksum.Sum(enc))
	if _, err := w.dst.Write(hdr[:]); err != nil {
		return err
	}
	if _, err := w.dst.Write(enc); err != nil {
		return err
	}
	if m != nil {
		m.segments.Inc()
		m.segBytes.Add(int64(len(enc)))
		m.segRaw.Add(int64(len(chunk)))
	}
	return nil
}

func (w *Writer) accumulate(st core.Stats) {
	prevRaw := w.stats.RawBytes
	w.stats.RawBytes += st.RawBytes
	w.stats.CompressedBytes += st.CompressedBytes
	w.stats.Chunks += st.Chunks
	w.stats.DegradedChunks += st.DegradedChunks
	w.stats.IndexBytes += st.IndexBytes
	w.stats.IndexesEmitted += st.IndexesEmitted
	w.stats.PrecSeconds += st.PrecSeconds
	w.stats.SolverSeconds += st.SolverSeconds
	w.stats.SolverInputBytes += st.SolverInputBytes
	// Weighted means for the fractions: every per-segment ratio is averaged
	// by the raw bytes it describes. Alpha1 in particular must not be
	// overwritten with the last segment's value — a stream whose precision
	// layout changes its α₁ share mid-stream would otherwise report only the
	// final segment's split.
	if w.stats.RawBytes > 0 {
		wPrev := float64(prevRaw) / float64(w.stats.RawBytes)
		wNew := 1 - wPrev
		w.stats.Alpha1 = w.stats.Alpha1*wPrev + st.Alpha1*wNew
		w.stats.Alpha2 = w.stats.Alpha2*wPrev + st.Alpha2*wNew
		w.stats.SigmaHo = w.stats.SigmaHo*wPrev + st.SigmaHo*wNew
		w.stats.SigmaLo = w.stats.SigmaLo*wPrev + st.SigmaLo*wNew
	}
}

// Close flushes any buffered partial chunk and writes the end marker.
// The residue must be element-aligned or Close fails. A successful Close is
// idempotent; a failed Close leaves the writer sticky-failed, and later
// Close or Write calls return the same error instead of emitting anything
// more into the half-written stream.
func (w *Writer) Close() error {
	if w.err != nil {
		return w.err
	}
	if w.closed {
		return nil
	}
	if err := w.close(); err != nil {
		w.err = err
		return err
	}
	w.closed = true
	return nil
}

func (w *Writer) close() error {
	if len(w.buf) > 0 {
		if err := w.emit(w.buf); err != nil {
			return err
		}
		w.buf = nil
	}
	if !w.wroteMagic {
		if _, err := w.dst.Write([]byte(magicV2)); err != nil {
			return err
		}
		w.wroteMagic = true
	}
	var end [4]byte
	_, err := w.dst.Write(end[:])
	return err
}

// Stats reports accumulated compression statistics (valid any time).
func (w *Writer) Stats() core.Stats { return w.stats }

// Reader decompresses a stream produced by Writer (either format version).
// Not safe for concurrent use.
type Reader struct {
	ctx context.Context
	src io.Reader
	// codec, seg and out live as long as the reader: every segment is read
	// into seg and decoded by codec into out, and pending is the part of out
	// (or, in salvage mode, of a recovered chunk) not yet handed to Read.
	codec   core.Codec
	seg     bytes.Buffer
	out     []byte
	pending []byte
	started bool
	version int
	done    bool
	err     error

	// salvage mode: the remaining input is buffered so the reader can
	// resync to the next segment after damage instead of failing.
	salvage bool
	buf     []byte // buffered stream (salvage mode only)
	pos     int    // read cursor into buf
	segIdx  int
	report  *core.CorruptionReport
}

// NewReader returns a streaming decompressor over src.
func NewReader(src io.Reader) *Reader {
	return &Reader{ctx: context.Background(), src: src}
}

// NewReaderCtx is NewReader with cancellation: ctx is checked before each
// segment is read and decoded, so a cancelled Read returns ctx.Err() within
// one segment boundary.
func NewReaderCtx(ctx context.Context, src io.Reader) *Reader {
	if ctx == nil {
		ctx = context.Background()
	}
	return &Reader{ctx: ctx, src: src}
}

// NewSalvageReader returns a decompressor that recovers as much of a
// damaged stream as possible: segments that fail their checksum or decode
// are skipped, the reader resyncs to the next segment (scanning for the
// embedded core-container magic when framing is lost), and every fault is
// recorded in Report. Reads return io.EOF at the end of recovery rather
// than surfacing corruption errors; callers inspect Report for what was
// lost. Salvage buffers the stream in memory, so it is meant for recovery
// jobs, not steady-state decoding.
func NewSalvageReader(src io.Reader) *Reader {
	return &Reader{ctx: context.Background(), src: src, salvage: true, report: &core.CorruptionReport{}}
}

// Report returns the corruption report accumulated by a salvage reader
// (nil for ordinary readers). It is complete once Read has returned io.EOF.
func (r *Reader) Report() *core.CorruptionReport { return r.report }

// addFault records one salvage fault in the report and counts it.
func (r *Reader) addFault(off, seg int, err error) {
	r.report.Add(off, seg, err)
	if m := tmet.Load(); m != nil {
		m.salvageFaults.Inc()
	}
	traceAnomaly("stream.salvage", trace.KindSalvageFault,
		fmt.Sprintf("segment %d at offset %d: %v", seg, off, err))
}

// mergeFaults folds a sub-report into the reader's report and counts its
// faults.
func (r *Reader) mergeFaults(base int, sub *core.CorruptionReport) {
	r.report.Merge(base, sub)
	if m := tmet.Load(); m != nil {
		m.salvageFaults.Add(int64(len(sub.Corruptions)))
	}
	if len(sub.Corruptions) > 0 {
		traceAnomaly("stream.salvage", trace.KindSalvageFault,
			fmt.Sprintf("%d chunk fault(s) inside segment at offset %d", len(sub.Corruptions), base))
	}
}

// Read implements io.Reader, decoding segment by segment.
func (r *Reader) Read(p []byte) (int, error) {
	if r.err != nil {
		return 0, r.err
	}
	for len(r.pending) == 0 {
		if r.done {
			r.err = io.EOF
			return 0, io.EOF
		}
		if r.ctx != nil {
			if err := r.ctx.Err(); err != nil {
				// Cancellation is not sticky: the stream itself is fine, so
				// a caller with a fresh deadline can resume where it left
				// off.
				return 0, err
			}
		}
		fill := r.fill
		if r.salvage {
			fill = r.fillSalvage
		}
		if err := fill(); err != nil {
			r.err = err
			return 0, err
		}
	}
	n := copy(p, r.pending)
	r.pending = r.pending[n:]
	return n, nil
}

// readMagic consumes and validates the stream magic, setting the version.
func (r *Reader) readMagic(m []byte) error {
	switch string(m) {
	case magicV1:
		r.version = 1
	case magicV2:
		r.version = 2
	default:
		return fmt.Errorf("%w: bad magic %q", ErrCorrupt, m)
	}
	r.started = true
	return nil
}

// segHdrLen is the per-segment framing overhead for the stream's version.
func (r *Reader) segHdrLen() int {
	if r.version >= 2 {
		return 8
	}
	return 4
}

func (r *Reader) fill() error {
	if !r.started {
		var m [4]byte
		if _, err := io.ReadFull(r.src, m[:]); err != nil {
			return fmt.Errorf("%w: missing magic: %v", ErrCorrupt, err)
		}
		if err := r.readMagic(m[:]); err != nil {
			return err
		}
	}
	var hdr [8]byte
	if _, err := io.ReadFull(r.src, hdr[:4]); err != nil {
		return fmt.Errorf("%w: truncated segment header: %v", ErrCorrupt, err)
	}
	segLen := binary.LittleEndian.Uint32(hdr[:4])
	if segLen == 0 {
		r.done = true
		return nil
	}
	if segLen > 1<<31 {
		return fmt.Errorf("%w: absurd segment %d", ErrCorrupt, segLen)
	}
	var wantCRC uint32
	if r.version >= 2 {
		if _, err := io.ReadFull(r.src, hdr[4:]); err != nil {
			return fmt.Errorf("%w: truncated segment header: %v", ErrCorrupt, err)
		}
		wantCRC = binary.LittleEndian.Uint32(hdr[4:])
	}
	// segLen is the sender's claim, so the buffer grows only as bytes arrive.
	r.seg.Reset()
	if n, err := io.CopyN(&r.seg, r.src, int64(segLen)); err == io.EOF {
		return fmt.Errorf("%w: truncated segment: %d of %d bytes", ErrCorrupt, n, segLen)
	} else if err != nil {
		return fmt.Errorf("%w: segment read: %v", ErrCorrupt, err)
	}
	seg := r.seg.Bytes()
	if r.version >= 2 && checksum.Sum(seg) != wantCRC {
		return fmt.Errorf("%w: segment: %w", ErrCorrupt, ErrChecksum)
	}
	// Read has drained pending, so out's array is free to decode into. The
	// segment is already consumed from src, so its decode is not cancellable:
	// a cancelled Read must leave the stream resumable.
	out, _, err := r.codec.AppendDecompressCtx(context.Background(), r.out[:0], seg)
	if err != nil {
		return fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	r.out, r.pending = out, out
	return nil
}

// fillSalvage is the salvage-mode segment loop: it works over the buffered
// stream, skips damaged segments, and resyncs by scanning for the next
// embedded core-container magic.
func (r *Reader) fillSalvage() error {
	if !r.started {
		var err error
		r.buf, err = io.ReadAll(r.src)
		if err != nil {
			return fmt.Errorf("%w: stream read: %v", ErrCorrupt, err)
		}
		if len(r.buf) < 4 || r.readMagic(r.buf[:4]) != nil {
			r.addFault(0, -1, fmt.Errorf("%w: bad magic", ErrCorrupt))
			// No usable stream magic: guess v2 framing and go straight to
			// resync-by-container-magic below.
			r.version = 2
			r.started = true
			r.pos = 0
			return r.resync(r.pos)
		}
		if r.report.Format == "" {
			r.report.Format = string(r.buf[:4])
		}
		r.pos = 4
	}
	hdrLen := r.segHdrLen()
	for {
		if r.pos >= len(r.buf) {
			// Stream ended without a terminator.
			r.addFault(len(r.buf), -1, fmt.Errorf("%w: missing end marker", ErrCorrupt))
			r.done = true
			return nil
		}
		if r.pos+4 <= len(r.buf) && binary.LittleEndian.Uint32(r.buf[r.pos:]) == 0 {
			if r.pos+4 < len(r.buf) {
				// A legitimate end marker is the last thing in the stream. A
				// zero length followed by more data is either a zeroed-out
				// segment header or a mid-stream marker — damage either way,
				// so resync instead of stopping early.
				r.addFault(r.pos, r.segIdx, fmt.Errorf("%w: zero segment length before end of stream", ErrCorrupt))
				return r.resync(r.pos + 4)
			}
			r.done = true
			return nil
		}
		if r.pos+hdrLen > len(r.buf) {
			r.addFault(r.pos, r.segIdx, fmt.Errorf("%w: truncated segment header", ErrCorrupt))
			r.done = true
			return nil
		}
		segLen := int(binary.LittleEndian.Uint32(r.buf[r.pos:]))
		start := r.pos + hdrLen
		if segLen < 0 || segLen > len(r.buf)-start {
			r.addFault(r.pos, r.segIdx, fmt.Errorf("%w: truncated segment: %d bytes claimed, %d remain",
				ErrCorrupt, segLen, len(r.buf)-start))
			r.segIdx++
			return r.resync(r.pos + 1)
		}
		seg := r.buf[start : start+segLen]
		if r.version >= 2 && !checksum.Check(r.buf[r.pos+4:], seg) {
			r.addFault(r.pos, r.segIdx, fmt.Errorf("%w: segment: %w", ErrCorrupt, ErrChecksum))
			r.segIdx++
			return r.resync(start + segLen)
		}
		chunk, err := core.Decompress(seg)
		if err != nil {
			// Framing was intact but the payload is damaged; salvage what
			// the container still holds before moving on.
			sal, subRep, serr := core.DecompressSalvage(seg)
			if serr != nil {
				r.addFault(r.pos, r.segIdx, err)
			} else {
				r.mergeFaults(start, subRep)
				chunk = sal
			}
			r.pos = start + segLen
			r.segIdx++
			if len(chunk) > 0 {
				r.pending = chunk
				return nil
			}
			continue
		}
		r.pos = start + segLen
		r.segIdx++
		r.pending = chunk
		return nil
	}
}

// resync scans the buffered stream from `from` for the next segment whose
// payload starts with a core-container magic, decodes it, and leaves the
// cursor after it. Damage that destroys a segment's length field loses only
// that segment.
func (r *Reader) resync(from int) error {
	if m := tmet.Load(); m != nil {
		m.resyncs.Inc()
	}
	if t := ttrc.Load(); t != nil {
		s := t.Start("stream.resync").Attr("from", int64(from))
		s.Event(trace.KindResync, "scanning for next segment frame")
		defer func() { s.End(nil) }()
	}
	for {
		c := nextContainerMagic(r.buf, from)
		if c < 0 {
			r.done = true
			return nil
		}
		encLen, _, _, err := core.Frame(r.buf[c:])
		if err != nil {
			from = c + 1
			continue
		}
		chunk, err := core.Decompress(r.buf[c : c+encLen])
		if err != nil {
			from = c + 1
			continue
		}
		r.pos = c + encLen
		r.segIdx++
		r.pending = chunk
		return nil
	}
}

// nextContainerMagic returns the lowest offset ≥ from where an embedded
// core-container magic starts, or -1.
func nextContainerMagic(buf []byte, from int) int {
	if from < 0 {
		from = 0
	}
	best := -1
	if from > len(buf) {
		from = len(buf)
	}
	for _, m := range []string{"PRM3", "PRM2", "PRM1"} {
		if i := bytes.Index(buf[from:], []byte(m)); i >= 0 {
			cand := from + i
			if best < 0 || cand < best {
				best = cand
			}
		}
	}
	return best
}
