// Package solver defines the standard-compressor ("solver") abstraction the
// PRIMACY preconditioner feeds, and registers the three solver families the
// paper evaluates — zlib (stdlib DEFLATE), our lzo-style fast LZ, and our
// bzlib-style BWT block compressor — plus a raw passthrough used for
// ISOBAR-classified incompressible bytes.
//
// Solvers run on the per-chunk hot path, so the package exposes append-style
// CompressTo/DecompressTo variants that recycle zlib encoder and inflater state
// through sync.Pools and emit into caller-provided scratch. The plain
// Compress/Decompress methods are convenience wrappers over the same pooled
// implementations; both spellings produce byte-identical output.
//
// The zlib read path is the package's own: an RFC 1951 inflater from slice to
// slice (inflate.go) behind the RFC 1950 framing DecompressTo parses itself.
// compress/flate's reader is the oracle of its tests and nothing else.
package solver

import (
	"compress/flate"
	"compress/zlib"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sort"
	"sync"

	"primacy/internal/bzlib"
	"primacy/internal/lzo"
)

// interface checks
var (
	_ Compressor     = Zlib{}
	_ Compressor     = LZO{}
	_ Compressor     = BZlib{}
	_ Compressor     = None{}
	_ CompressorTo   = Zlib{}
	_ CompressorTo   = LZO{}
	_ CompressorTo   = None{}
	_ DecompressorTo = Zlib{}
	_ DecompressorTo = LZO{}
	_ DecompressorTo = None{}
)

// Compressor is a lossless byte-stream codec.
type Compressor interface {
	// Name is the registry key (e.g. "zlib").
	Name() string
	// Compress returns a self-contained compressed representation of src.
	Compress(src []byte) ([]byte, error)
	// Decompress inverts Compress.
	Decompress(src []byte) ([]byte, error)
}

// CompressorTo is implemented by solvers that can append their compressed
// output to a caller-provided buffer, avoiding a fresh output allocation per
// call. CompressTo(dst, src) appends to dst and returns the extended slice;
// the appended bytes are identical to Compress(src).
type CompressorTo interface {
	CompressTo(dst, src []byte) ([]byte, error)
}

// DecompressorTo is implemented by solvers that can append their decompressed
// output to a caller-provided buffer. With dst pre-sized to the known output
// length the steady state is allocation-free.
type DecompressorTo interface {
	DecompressTo(dst, src []byte) ([]byte, error)
}

// CompressTo appends c's compressed representation of src to dst, using the
// solver's pooled fast path when it implements CompressorTo and falling back
// to Compress otherwise. The appended bytes are identical either way.
func CompressTo(c Compressor, dst, src []byte) ([]byte, error) {
	if ct, ok := c.(CompressorTo); ok {
		return ct.CompressTo(dst, src)
	}
	out, err := c.Compress(src)
	if err != nil {
		return nil, err
	}
	return append(dst, out...), nil
}

// DecompressTo appends the decompression of src to dst, using the solver's
// pooled fast path when it implements DecompressorTo.
func DecompressTo(c Compressor, dst, src []byte) ([]byte, error) {
	if dt, ok := c.(DecompressorTo); ok {
		return dt.DecompressTo(dst, src)
	}
	out, err := c.Decompress(src)
	if err != nil {
		return nil, err
	}
	return append(dst, out...), nil
}

// ErrUnknown indicates a solver name that is not registered.
var ErrUnknown = errors.New("solver: unknown compressor")

var (
	mu       sync.RWMutex
	registry = map[string]Compressor{}
)

// Register installs c under its name; later registrations replace earlier
// ones (useful for tests injecting faulty solvers).
func Register(c Compressor) {
	mu.Lock()
	defer mu.Unlock()
	registry[c.Name()] = c
}

// Get looks up a registered compressor by name.
func Get(name string) (Compressor, error) {
	mu.RLock()
	defer mu.RUnlock()
	c, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknown, name)
	}
	return c, nil
}

// Names lists the registered solvers in sorted order.
func Names() []string {
	mu.RLock()
	defer mu.RUnlock()
	names := make([]string, 0, len(registry))
	for n := range registry {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func init() {
	Register(Zlib{Level: zlib.DefaultCompression})
	Register(LZO{})
	Register(BZlib{})
	Register(None{})
}

// Zlib is the paper's primary solver: DEFLATE in the RFC 1950 framing, coded
// by the standard library's encoders and the package's run coder, decoded by
// the package's inflater. Encoder and inflater state is pooled: allocating a
// fresh DEFLATE window for every chunk-sized call would dominate the in-situ
// compression cost. DecompressTo takes exactly one stream: a truncated one is
// io.ErrUnexpectedEOF, bytes after the checksum are an error too.
type Zlib struct {
	// Level selects the encoder. 0 (the zero value) and
	// zlib.DefaultCompression are the default: a level-6 stream in which
	// every segment of runs is coded as runs by the package's own encoder
	// (rleCoder), every segment a sample finds no matches in by the
	// Huffman-only encoder, and every segment whose sample the fastest match
	// search already halves by it, level 1 (see segmentLevel). Any other
	// value in [-2, 9] is exactly that compress/flate level for the
	// whole input, byte for byte what compress/zlib writes at it;
	// zlib.NoCompression (0) is therefore not expressible.
	Level int
}

// The default level decides per zlibSegment bytes of input, on the first
// zlibSample bytes of each, whether match search is worth running and how
// deep. They are constants, not options: 64 KiB divides the 384 KiB byte
// planes of the default 3 MiB chunk, so a segment never straddles two columns
// there, and one Huffman-only or run-coded block covers it; a 4 KiB sample
// costs each trial 1/16 of the segment and keeps all 20 datasets inside
// TestDefaultLevelSizeGuard, which 1 KiB does not (msg_bt +0.6 %) and 8 KiB
// betters by 0.03 %.
const (
	zlibSegment = 64 << 10
	zlibSample  = 4 << 10
	// zlibLZ is the level zlib.DefaultCompression stands for.
	zlibLZ = 6
	// zlibFast is the shallow search of a "fast" segment.
	zlibFast = flate.BestSpeed
	// zlibRLE is the verdict for rleCoder's segments, not a flate level.
	zlibRLE = 10
)

// appendWriter is an io.Writer that appends to a byte slice, letting pooled
// encoders emit straight into caller scratch.
type appendWriter struct{ b []byte }

func (w *appendWriter) Write(p []byte) (int, error) {
	w.b = append(w.b, p...)
	return len(p), nil
}

// countWriter is the sink of a trial: it keeps the size and drops the bytes.
type countWriter int

func (c *countWriter) Write(p []byte) (int, error) {
	*c += countWriter(len(p))
	return len(p), nil
}

// zlibEncoder is what one CompressTo call checks out: a raw DEFLATE encoder
// per level it has been asked for (the default level uses three), the run
// coder and the two sinks, so a steady-state call allocates nothing.
type zlibEncoder struct {
	fw    [12]*flate.Writer // by level+2, made on first use
	sink  appendWriter
	trial countWriter
	rle   rleCoder // codes the segments of the run class
	// ahead is the verdict nextRun took on the segment at src[aheadAt:] when
	// it ended a run there, kept for the call that starts the next run at it.
	// No run ends at 0, which therefore stands for "none": nextRun leaves it
	// behind once it has looked, so whatever an earlier run or input left is
	// never read.
	ahead, aheadAt int
	// frame stages the header and the trailer, which would escape to the
	// heap through the io.Writer if they lived on encode's stack.
	frame [4]byte
}

var zlibEncoders = sync.Pool{New: func() any { return new(zlibEncoder) }}

// writer returns the level's encoder, reset onto dst. level is in [-2, 9].
func (e *zlibEncoder) writer(level int, dst io.Writer) *flate.Writer {
	if w := e.fw[level+2]; w != nil {
		w.Reset(dst)
		return w
	}
	w, err := flate.NewWriter(dst, level)
	if err != nil {
		panic(err) // only an out-of-range level, which CompressTo rejects
	}
	e.fw[level+2] = w
	return w
}

// trialSize is the size of sample coded at level as one flushed block.
func (e *zlibEncoder) trialSize(level int, sample []byte) int {
	e.trial = 0
	w := e.writer(level, &e.trial)
	// The sink cannot fail, and the encoders have no error of their own.
	_, _ = w.Write(sample)
	_ = w.Flush()
	return int(e.trial)
}

// segmentEnd is where the segment starting at src[start] ends: a tail shorter
// than the sample is not worth a verdict or a hand-over and joins the segment
// before it.
func segmentEnd(src []byte, start int) int {
	if end := start + zlibSegment; len(src)-end >= zlibSample {
		return end
	}
	return len(src)
}

// segmentLevel is the verdict on the segment starting at src[start], which
// has at least a sample's bytes: one of four.
//
// Run: when coding the runs of equal bytes as runs (rleCoder) at least halves
// what Huffman coding of the bytes alone leaves, first of the sample and then
// of the segment — the ID planes after frequency ranking and column
// linearization. No stdlib encoder is asked: both sizes are sums over
// histograms, and the segment's tokens and codes stay in e.rle for encode. A
// sample in which fewer than half of the bytes repeat the one before is not
// even tokenised: that costs noise 1 µs where its tokens would cost 30.
//
// Fast: when the fast match search codes the sample in at most half of what
// Huffman coding alone leaves, the redundancy lies close at hand — near
// repeats where the runs are too short for the rule above — and the shallow
// search takes nearly all of it at a fifth of level 6's time. Level 6 is
// deliberately not consulted: a cold 4 KiB sample cannot show its advantage,
// the long window.
//
// Entropy-only: the Huffman-only encoder when Huffman coding takes at least
// an eighth off the sample and neither the fast match search nor, asked last
// because resetting it clears 640 KiB of hash tables, the level-6 one codes
// it smaller. The fast search alone is not enough: it misses the short
// matches level 6 lives on in some byte columns (msg_bt, obs_info: +2 %
// without the confirmation). The eighth keeps clear of the Huffman-only
// encoder's own rule, which stores a block raw unless coding it gains 1/16: a
// sample just over that line says nothing about a segment just under it,
// which level 6 would still have shrunk (raw doubles of num_brain and
// obs_temp: +0.8 % without the floor).
//
// Level 6 otherwise. The verdict is a function of the segment's bytes only,
// every encoder being reset first, so equal input gives equal output whatever
// the pool held.
func (e *zlibEncoder) segmentLevel(src []byte, start int) int {
	seg := src[start:segmentEnd(src, start)]
	sample := seg[:zlibSample]
	if 2*repeats(sample) >= len(sample) && e.rle.plan(sample) && e.rle.plan(seg) {
		return zlibRLE
	}
	huff := e.trialSize(flate.HuffmanOnly, sample)
	fast := e.trialSize(zlibFast, sample)
	if 2*fast <= huff {
		return zlibFast
	}
	if huff > len(sample)-len(sample)/8 || fast < huff || e.trialSize(zlibLZ, sample) < huff {
		return zlibLZ
	}
	return flate.HuffmanOnly
}

// nextRun is the level for the segment at src[start:] and the end of the run
// of segments sharing it; an input shorter than the sample is level 6 whole.
// The verdict that ends a run is the first of the next one and is taken once:
// encode calls nextRun with each end it returns. A segment of the run class is
// a run of its own: it is coded from what its verdict left in e.rle, which the
// next verdict overwrites.
func (e *zlibEncoder) nextRun(src []byte, start int) (level, end int) {
	if len(src)-start < zlibSample {
		return zlibLZ, len(src)
	}
	if level = e.ahead; start == 0 || e.aheadAt != start {
		level = e.segmentLevel(src, start)
	}
	e.aheadAt = 0
	end = segmentEnd(src, start)
	if level == zlibRLE {
		return level, end
	}
	for ; end < len(src); end = segmentEnd(src, end) {
		if e.ahead, e.aheadAt = e.segmentLevel(src, end), end; e.ahead != level {
			return level, end
		}
	}
	return level, len(src)
}

// zlibHeader is the RFC 1950 header compress/zlib writes for level: CM 8, a
// 32 KiB window, the level class in FLEVEL, FCHECK making it a multiple of 31.
func zlibHeader(level int) (cmf, flg byte) {
	switch {
	case level >= 7:
		flg = 3 << 6
	case level == zlibLZ:
		flg = 2 << 6
	case level >= 2:
		flg = 1 << 6
	}
	return 0x78, flg + byte(31-(0x78<<8|uint(flg))%31)
}

// writeRun writes the blocks of one run, the stream's final block if it is the
// last. A stdlib encoder starts on a byte boundary, which the run coder's sync
// sees to, and ends on one; the run coder starts and ends on any bit.
func (e *zlibEncoder) writeRun(w io.Writer, run []byte, level int, last bool) error {
	if level == zlibRLE {
		_, err := w.Write(e.rle.appendBlock(last))
		return err
	}
	if _, err := w.Write(e.rle.sync()); err != nil {
		return err
	}
	fw := e.writer(level, w)
	if _, err := fw.Write(run); err != nil {
		return err
	}
	if last {
		return fw.Close()
	}
	return fw.Flush()
}

// encode writes src to w as one zlib stream: header, DEFLATE blocks, the
// Adler-32 of src. At an explicit level one encoder codes everything. At the
// default level the input is cut into runs of segments with the same verdict
// (nextRun) and each run gets its own encoder, which hands over at a sync
// flush — an empty stored block on a byte boundary — so the blocks of all
// runs form one DEFLATE stream with one final block, which any inflater
// reads; when every verdict is level 6 that is today's single level-6 stream.
// A stdlib encoder starts a run with an empty window, so its runs must be few:
// that is why equal verdicts are grouped instead of coded segment by segment.
// The run coder has no window to lose and takes its segments one by one.
func (e *zlibEncoder) encode(w io.Writer, src []byte, level int) error {
	adaptive := level == 0 || level == zlib.DefaultCompression
	if adaptive {
		level = zlibLZ
	}
	e.frame[0], e.frame[1] = zlibHeader(level)
	if _, err := w.Write(e.frame[:2]); err != nil {
		return err
	}
	e.rle.acc, e.rle.nacc = 0, 0
	for start, end := 0, len(src); ; start = end {
		if adaptive {
			level, end = e.nextRun(src, start)
		}
		if err := e.writeRun(w, src[start:end], level, end == len(src)); err != nil {
			return err
		}
		if end == len(src) {
			break
		}
	}
	binary.BigEndian.PutUint32(e.frame[:], adler32sum(src))
	_, err := w.Write(e.frame[:])
	return err
}

// Name implements Compressor.
func (z Zlib) Name() string { return "zlib" }

// Compress implements Compressor.
func (z Zlib) Compress(src []byte) ([]byte, error) {
	return z.CompressTo(make([]byte, 0, len(src)/2+64), src)
}

// CompressTo implements CompressorTo: it appends the zlib stream to dst
// using a pooled encoder and returns the extended slice. The encoder goes
// back to the pool on error paths too: every use starts with a Reset, which
// restores full health, so a failed call must not leak the (expensive)
// DEFLATE state; the sink is detached so the pool never pins caller buffers.
func (z Zlib) CompressTo(dst, src []byte) ([]byte, error) {
	if z.Level < -2 || z.Level > 9 {
		return nil, fmt.Errorf("zlib: invalid level %d", z.Level)
	}
	e := zlibEncoders.Get().(*zlibEncoder)
	e.sink.b = dst
	err := e.encode(&e.sink, src, z.Level)
	out := e.sink.b
	e.sink.b = nil
	zlibEncoders.Put(e)
	if err != nil {
		return nil, fmt.Errorf("zlib: %w", err)
	}
	return out, nil
}

// Decompress implements Compressor.
func (z Zlib) Decompress(src []byte) ([]byte, error) {
	return z.DecompressTo(nil, src)
}

// errTrailing is Zlib.DecompressTo's refusal of bytes after the stream: a
// solver section is length-delimited, so they mean a wrong length.
var errTrailing = errors.New("trailing bytes after the checksum")

// DecompressTo implements DecompressorTo: it appends the decompression of
// src to dst using a pooled inflater, for which dst is the window. With dst
// pre-sized to the known output length it is never reallocated and the call is
// allocation-free in steady state; the bytes between the result's end and
// cap(dst) may be written.
func (z Zlib) DecompressTo(dst, src []byte) ([]byte, error) {
	// RFC 1950 header: CM must be 8 (DEFLATE), CINFO <= 7, the CMF/FLG pair
	// a multiple of 31. Preset dictionaries are never emitted by Compress.
	if len(src) < 6 {
		return nil, fmt.Errorf("zlib: %w", io.ErrUnexpectedEOF)
	}
	if src[0]&0x0f != 8 || src[0]>>4 > 7 || (uint(src[0])<<8|uint(src[1]))%31 != 0 {
		return nil, fmt.Errorf("zlib: %w", zlib.ErrHeader)
	}
	if src[1]&0x20 != 0 {
		return nil, fmt.Errorf("zlib: %w", zlib.ErrDictionary)
	}
	f := inflaters.Get().(*inflater)
	out, used, err := f.inflate(dst, src[2:])
	inflaters.Put(f)
	if err != nil {
		return nil, fmt.Errorf("zlib: %w", err)
	}
	// The stream is the whole section: its Adler-32 ends it.
	switch tr := src[2+used:]; {
	case len(tr) < 4:
		return nil, fmt.Errorf("zlib: %w", io.ErrUnexpectedEOF)
	case len(tr) > 4:
		return nil, fmt.Errorf("zlib: %w", errTrailing)
	case adler32sum(out[len(dst):]) != binary.BigEndian.Uint32(tr):
		return nil, fmt.Errorf("zlib: %w", zlib.ErrChecksum)
	}
	return out, nil
}

// LZO is the lzo-style fast LZ77 solver.
type LZO struct{}

// Name implements Compressor.
func (LZO) Name() string { return "lzo" }

// Compress implements Compressor.
func (LZO) Compress(src []byte) ([]byte, error) { return lzo.Compress(src), nil }

// CompressTo implements CompressorTo.
func (LZO) CompressTo(dst, src []byte) ([]byte, error) {
	return lzo.AppendCompress(dst, src), nil
}

// Decompress implements Compressor.
func (LZO) Decompress(src []byte) ([]byte, error) { return lzo.Decompress(src) }

// DecompressTo implements DecompressorTo.
func (LZO) DecompressTo(dst, src []byte) ([]byte, error) {
	return lzo.AppendDecompress(dst, src)
}

// BZlib is the bzip2-style BWT block solver.
type BZlib struct {
	// BlockSize overrides the default BWT block size when nonzero.
	BlockSize int
}

// Name implements Compressor.
func (BZlib) Name() string { return "bzlib" }

// Compress implements Compressor.
func (b BZlib) Compress(src []byte) ([]byte, error) {
	return bzlib.Compress(src, bzlib.Options{BlockSize: b.BlockSize})
}

// Decompress implements Compressor.
func (BZlib) Decompress(src []byte) ([]byte, error) { return bzlib.Decompress(src) }

// None is an identity "compressor" used for bytes classified incompressible.
type None struct{}

// Name implements Compressor.
func (None) Name() string { return "none" }

// Compress implements Compressor.
func (None) Compress(src []byte) ([]byte, error) {
	return append([]byte(nil), src...), nil
}

// CompressTo implements CompressorTo.
func (None) CompressTo(dst, src []byte) ([]byte, error) {
	return append(dst, src...), nil
}

// Decompress implements Compressor.
func (None) Decompress(src []byte) ([]byte, error) {
	return append([]byte(nil), src...), nil
}

// DecompressTo implements DecompressorTo.
func (None) DecompressTo(dst, src []byte) ([]byte, error) {
	return append(dst, src...), nil
}
