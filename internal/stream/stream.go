// Package stream provides io.Writer/io.Reader adapters over the PRIMACY
// codec for in-situ pipelines that produce data incrementally (checkpoint
// writers, staging transports). Data is buffered to chunk granularity and
// emitted as independent self-describing segments, so a reader can start
// decoding as soon as the first chunk arrives and a truncated stream fails
// cleanly at a segment boundary.
//
// Stream layout: a magic, one frame (internal/frame) per segment, each
// holding the core container of one chunk group, and a zero u32 end marker.
//
//	"PRS2" | segment frame* | 0u32   (v2, written by Writer: frames carry a CRC32C)
//	"PRS1" | segment frame* | 0u32   (v1, still read: frames without one)
package stream

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"

	"primacy/internal/bytesplit"
	"primacy/internal/checksum"
	"primacy/internal/core"
	"primacy/internal/fairshare"
	"primacy/internal/frame"
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

// ErrTooLarge indicates a segment whose compressed form exceeds
// frame.MaxLen, the longest payload a frame carries and any reader accepts.
var ErrTooLarge = errors.New("stream: segment exceeds the frame bound")

// maxSegmentBytes is the largest compressed segment a frame carries. Tests
// lower it to exercise the ErrTooLarge path without allocating multi-GiB
// buffers.
var maxSegmentBytes int64 = frame.MaxLen

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
	adm        *fairshare.Admitter
	codec      core.Codec
	buf        []byte
	seg        []byte // the last segment, compressed: its buffer takes the next
	hdr        []byte // the last segment's frame header, likewise
	chunkBytes int
	stats      core.Stats
	wroteMagic bool
	closed     bool
	err        error
	// segIdx numbers emitted segments for trace spans.
	segIdx int
}

// WriterOptions bundles the streaming compressor's admission control with
// the codec options. Retries are not an option: wrap the sink in
// retry.NewWriter instead.
type WriterOptions struct {
	// Core configures the codec (chunk size sets segment granularity).
	Core core.Options
	// Admitter, when non-nil, admits each segment's buffered bytes before
	// compression, bounding the in-flight memory of many concurrent streams
	// sharing one admitter. Segments queue as the one tenant "", like
	// pipeline shards. A refused segment (fairshare's ErrQueueFull or
	// ErrShed) becomes the writer's sticky error.
	Admitter *fairshare.Admitter
}

// NewWriter returns a streaming compressor. opts follows core.Options; the
// chunk size also sets the segment granularity.
func NewWriter(dst io.Writer, opts core.Options) (*Writer, error) {
	return NewWriterWith(context.Background(), dst, WriterOptions{Core: opts})
}

// NewWriterWith is the fully-configured constructor: cancellation via ctx
// (checked before each segment is compressed and emitted) and admission
// control via wopts.Admitter.
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
	return &Writer{ctx: ctx, dst: dst, opts: opts, adm: wopts.Admitter, chunkBytes: chunk}, nil
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
	ss := trace.Start(trace.SpanFromContext(w.ctx), "stream.segment").
		Attr("segment", int64(w.segIdx)).
		Attr("raw_bytes", int64(len(chunk)))
	w.segIdx++
	defer func() { ss.End(err) }()
	ctx := trace.ContextWithSpan(w.ctx, ss)
	if err := w.adm.Acquire(ctx, "", int64(len(chunk))); err != nil {
		return err
	}
	defer w.adm.Release(int64(len(chunk)))
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
	w.hdr = frame.AppendHeader(w.hdr[:0], len(enc), checksum.Sum(enc))
	if _, err := w.dst.Write(w.hdr); err != nil {
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
	crc     bool // whether segment frames carry a CRC32C: v2
	done    bool
	err     error

	// salvage mode: the input is buffered whole and walked leniently up
	// front (core.WalkFramed); segIdx is the next of its pieces to decode.
	salvage bool
	buf     []byte
	pieces  []core.Framed
	ended   bool // the walk met the end marker
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
	trace.Anomaly("stream.salvage", trace.KindSalvageFault,
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
		trace.Anomaly("stream.salvage", trace.KindSalvageFault,
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

// readMagic validates the stream magic, setting the frame version.
func (r *Reader) readMagic(m []byte) error {
	switch string(m) {
	case magicV1:
		r.crc = false
	case magicV2:
		r.crc = true
	default:
		return fmt.Errorf("%w: bad magic %q", ErrCorrupt, m)
	}
	r.started = true
	return nil
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
	// The segment's length is the sender's claim: frame.Read grows r.seg only
	// as its bytes arrive.
	f, err := frame.Read(r.src, &r.seg, r.crc)
	if errors.Is(err, frame.ErrEmpty) {
		r.done = true
		return nil
	}
	if err == nil {
		err = f.Verify()
	}
	if err != nil {
		return fmt.Errorf("%w: segment: %w", ErrCorrupt, err)
	}
	// Read has drained pending, so out's array is free to decode into. The
	// segment is already consumed from src, so its decode is not cancellable:
	// a cancelled Read must leave the stream resumable.
	out, _, err := r.codec.AppendDecompressCtx(context.Background(), r.out[:0], f.Payload)
	if err != nil {
		return fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	r.out, r.pending = out, out
	return nil
}

// fillSalvage hands out the next piece of the buffered stream that decodes:
// whole when its container decodes, else the chunks core.DecompressSalvage
// recovers from it. Every fault the lenient walk found is recorded as its
// piece comes up; each of them is a resync.
func (r *Reader) fillSalvage() error {
	if !r.started {
		var err error
		r.buf, err = io.ReadAll(r.src)
		if err != nil {
			return fmt.Errorf("%w: stream read: %v", ErrCorrupt, err)
		}
		if len(r.buf) < 4 || r.readMagic(r.buf[:4]) != nil {
			// No usable stream magic: guess v2 frames behind it.
			r.addFault(0, -1, fmt.Errorf("%w: bad magic", ErrCorrupt))
			r.crc, r.started = true, true
		} else if r.report.Format == "" {
			r.report.Format = string(r.buf[:4])
		}
		r.pieces, r.ended = core.WalkFramed(r.buf, 4, r.crc)
	}
	for r.segIdx < len(r.pieces) {
		p, i := r.pieces[r.segIdx], r.segIdx
		r.segIdx++
		if p.Err != nil {
			r.addFault(p.Off, i, p.Err)
			if m := tmet.Load(); m != nil {
				m.resyncs.Inc()
			}
			s := trace.Start(trace.Span{}, "stream.resync").Attr("from", int64(p.Off))
			s.Event(trace.KindResync, "resynced on the next segment")
			s.End(nil)
		}
		chunk, err := core.Decompress(p.Data)
		if err != nil {
			// Salvage what the container still holds.
			sal, subRep, serr := core.DecompressSalvage(p.Data)
			if serr != nil {
				if p.Err == nil {
					r.addFault(p.Off, i, err)
				}
				continue
			}
			r.mergeFaults(p.Off, subRep)
			chunk = sal
		}
		if len(chunk) > 0 {
			r.pending = chunk
			return nil
		}
	}
	if !r.ended {
		r.addFault(len(r.buf), -1, fmt.Errorf("%w: missing end marker", ErrCorrupt))
	}
	r.done = true
	return nil
}
