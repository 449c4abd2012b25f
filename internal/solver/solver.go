// Package solver defines the standard-compressor ("solver") abstraction the
// PRIMACY preconditioner feeds, and registers the three solver families the
// paper evaluates — zlib (DEFLATE in the RFC 1950 framing: the standard
// library's level-6 encoder where match search pays, the package's own block
// writer for runs and order-0 sources, the package's own inflater), our
// lzo-style fast LZ, and our bzlib-style BWT block compressor — plus a raw
// passthrough used for ISOBAR-classified incompressible bytes.
//
// Solvers run on the per-chunk hot path, so Compressor has one spelling per
// direction, append-style CompressTo/DecompressTo, which recycle zlib encoder
// and inflater state through sync.Pools and emit into caller-provided scratch.
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
	_ Compressor = Zlib{}
	_ Compressor = LZO{}
	_ Compressor = BZlib{}
	_ Compressor = None{}
)

// Compressor is a lossless byte-stream codec. Both directions append to a
// caller-provided buffer and return the extended slice, so the per-chunk hot
// path recycles its scratch instead of allocating an output per call; a nil
// dst asks for a fresh one. Implementations are safe for concurrent use:
// pipeline workers share one, and core compresses a chunk's two inputs on two
// goroutines at once.
type Compressor interface {
	// Name is the registry key (e.g. "zlib").
	Name() string
	// CompressTo appends a self-contained compressed representation of src
	// to dst.
	CompressTo(dst, src []byte) ([]byte, error)
	// DecompressTo appends the decompression of src to dst. With dst
	// pre-sized to the known output length the pooled solvers are
	// allocation-free in steady state.
	DecompressTo(dst, src []byte) ([]byte, error)
}

// CompressTo is c.CompressTo(dst, src), the spelling the benchmark harness
// in bench/ calls.
func CompressTo(c Compressor, dst, src []byte) ([]byte, error) { return c.CompressTo(dst, src) }

// DecompressTo is c.DecompressTo(dst, src), the spelling the benchmark
// harness in bench/ calls.
func DecompressTo(c Compressor, dst, src []byte) ([]byte, error) { return c.DecompressTo(dst, src) }

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
	Register(Zlib{})
	Register(LZO{})
	Register(BZlib{})
	Register(None{})
}

// Zlib is the paper's primary solver: DEFLATE in the RFC 1950 framing. Each
// 64 KiB segment is coded one of three ways (segmentVerdict): runs as runs
// or every byte a literal by the package's own block writer (rleCoder), or by
// the standard library's level-6 encoder; the package's own inflater decodes.
// Encoder and inflater state is pooled: allocating a fresh DEFLATE window for
// every chunk-sized call would dominate the in-situ compression cost.
// DecompressTo takes exactly one stream: a truncated one is
// io.ErrUnexpectedEOF, bytes after the checksum are an error too.
type Zlib struct{}

// The encoder decides per zlibSegment bytes of input, on the first zlibSample
// bytes of each, how to code it. They are constants, not options: 64 KiB
// divides the 384 KiB byte planes of the default 3 MiB chunk, so a segment
// never straddles two columns there, and one block of the run coder covers
// it; a 4 KiB sample costs a trial 1/16 of the segment and keeps all 20
// datasets inside TestDefaultLevelSizeGuard, which 1 KiB does not.
const (
	zlibSegment = 64 << 10
	zlibSample  = 4 << 10
	// zlibLevel is the level of the standard library's encoder, the one
	// compress/zlib defaults to.
	zlibLevel = 6
)

// zlibVerdict is how a segment is coded.
type zlibVerdict uint8

const (
	zlibLZ     zlibVerdict = iota // by the standard library's level 6
	zlibRLE                       // by the run coder, runs as matches
	zlibOrder0                    // by the run coder, every byte a literal
)

// appendWriter is an io.Writer that appends to a byte slice, letting the
// pooled level-6 encoder emit straight into caller scratch.
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

// zlibEncoder is what one CompressTo call checks out: the level-6 encoder,
// made on first use, which codes both the trials and the level-6 runs; the
// run coder; and the two sinks, so a steady-state call allocates nothing.
type zlibEncoder struct {
	fw    *flate.Writer
	sink  appendWriter
	trial countWriter
	rle   rleCoder // codes the segments of the run and order-0 classes
	// ahead is the verdict nextRun took on the segment at src[aheadAt:] when
	// it ended a run there, kept for the call that starts the next run at it.
	// No run ends at 0, which therefore stands for "none": nextRun leaves it
	// behind once it has looked, so whatever an earlier run or input left is
	// never read.
	ahead   zlibVerdict
	aheadAt int
}

var zlibEncoders = sync.Pool{New: func() any { return new(zlibEncoder) }}

// lz returns the level-6 encoder, reset onto w.
func (e *zlibEncoder) lz(w io.Writer) *flate.Writer {
	if e.fw == nil {
		e.fw, _ = flate.NewWriter(w, zlibLevel) // fails for an invalid level only
	} else {
		e.fw.Reset(w)
	}
	return e.fw
}

// trialSize is the size of sample coded at level 6 as one flushed block.
func (e *zlibEncoder) trialSize(sample []byte) int {
	e.trial = 0
	w := e.lz(&e.trial)
	// The sink cannot fail, and the encoder has no error of its own.
	_, _ = w.Write(sample)
	_ = w.Flush()
	return int(e.trial)
}

// segmentEnd is where the segment starting at src[start] ends: a tail shorter
// than the sample is not worth a verdict or a hand-over and joins the segment
// before it — unless that is order-0 (segmentVerdict).
func segmentEnd(src []byte, start int) int {
	if end := start + zlibSegment; len(src)-end >= zlibSample {
		return end
	}
	return len(src)
}

// segmentVerdict is the verdict on the segment starting at src[start], which
// has at least a sample's bytes: one of three, asked in this order.
//
// Run: when coding the runs of equal bytes as runs at least halves what
// Huffman coding of the bytes alone leaves, first of the sample and then of
// the segment — the ID planes after frequency ranking and column
// linearization. A sample in which fewer than half of the bytes repeat the one
// before is not even tokenised: that costs noise 1 µs where its tokens would
// cost 30.
//
// Order-0: when a block of literals only — a Huffman code of the bytes —
// takes at least an eighth off the sample, a level-6 trial does not code the
// sample smaller, and the block takes an eighth off the whole segment too:
// ISOBAR's compressible mantissa columns, small alphabets without matches.
// The sample's eighth keeps raw doubles on level 6: Huffman coding takes less
// than that off them, and level 6 with a warm window more than a cold sample
// shows. The segment's eighth sends a segment its sample misjudged to level 6,
// which stores what it cannot shrink. An order-0 segment takes no tail: its
// one code is made for its own bytes, and would code a tail of other bytes,
// text say, at up to 15 bits a byte. The tail is level 6 on its own, as an
// input shorter than the sample is.
//
// Level 6 otherwise. The run coder prices its blocks exactly from histograms,
// so the one stdlib trial is level 6's, and the plan that priced the segment
// stays in e.rle for writeRun. The verdict is a function of the segment's
// bytes only, the encoder being reset first, so equal input gives equal
// output whatever the pool held.
func (e *zlibEncoder) segmentVerdict(src []byte, start int) zlibVerdict {
	seg := src[start:segmentEnd(src, start)]
	sample := seg[:zlibSample]
	if 2*repeats(sample) >= len(sample) && e.rle.planRuns(sample) && e.rle.planRuns(seg) {
		return zlibRLE
	}
	// The trial counts its flush's sync marker, five bytes or so: a sample in
	// which level 6 finds nothing to match is a tie, and goes to order-0.
	seg = seg[:min(len(seg), zlibSegment)]
	if e.rle.planLiterals(sample) && e.trialSize(sample) >= (e.rle.size+7)/8 && e.rle.planLiterals(seg) {
		return zlibOrder0
	}
	return zlibLZ
}

// nextRun is the verdict for the segment at src[start:] and the end of the run
// of segments sharing it; less than a sample left — an input that short, the
// tail behind an order-0 segment — is level 6 whole.
// The verdict that ends a run is the first of the next one and is taken once:
// encode calls nextRun with each end it returns. A segment the run coder codes
// is a run of its own: it is written from the plan its verdict left in e.rle,
// which the next verdict overwrites.
func (e *zlibEncoder) nextRun(src []byte, start int) (v zlibVerdict, end int) {
	if len(src)-start < zlibSample {
		return zlibLZ, len(src)
	}
	if v = e.ahead; start == 0 || e.aheadAt != start {
		v = e.segmentVerdict(src, start)
	}
	e.aheadAt = 0
	end = segmentEnd(src, start)
	if v == zlibOrder0 {
		end = min(end, start+zlibSegment) // no tail
	}
	if v != zlibLZ {
		return v, end
	}
	for ; end < len(src); end = segmentEnd(src, end) {
		if e.ahead, e.aheadAt = e.segmentVerdict(src, end), end; e.ahead != zlibLZ {
			return v, end
		}
	}
	return v, len(src)
}

// writeRun appends the blocks of one run to dst, the stream's final block if
// it is the last. The level-6 encoder starts on a byte boundary, which the run
// coder's sync sees to, and ends on one; the run coder starts and ends on any
// bit.
func (e *zlibEncoder) writeRun(dst, run []byte, v zlibVerdict, last bool) []byte {
	if v != zlibLZ {
		return e.rle.appendBlock(dst, last)
	}
	e.sink.b = e.rle.sync(dst)
	fw := e.lz(&e.sink)
	// The sink cannot fail, and the encoder has no error of its own.
	_, _ = fw.Write(run)
	if last {
		_ = fw.Close()
	} else {
		_ = fw.Flush()
	}
	dst, e.sink.b = e.sink.b, nil // the pool must not pin caller buffers
	return dst
}

// encode appends src to dst as one zlib stream: header, DEFLATE blocks, the
// Adler-32 of src. The input is cut into runs of segments with the same
// verdict (nextRun); the level-6 encoder hands over at a sync flush — an empty
// stored block on a byte boundary — so the blocks of all runs form one DEFLATE
// stream with one final block, which any inflater reads; when every verdict is
// level 6 that is compress/zlib's level-6 stream, byte for byte. The level-6
// encoder starts a run with an empty window, so its runs must be few: that is
// why equal verdicts are grouped instead of coded segment by segment. The run
// coder has no window to lose and takes its segments one by one.
func (e *zlibEncoder) encode(dst, src []byte) []byte {
	// CM 8, a 32 KiB window, FLEVEL 2 and FCHECK: compress/zlib's header at
	// level 6.
	dst = append(dst, 0x78, 0x9c)
	e.rle.acc, e.rle.nacc = 0, 0
	for start := 0; ; {
		v, end := e.nextRun(src, start)
		dst = e.writeRun(dst, src[start:end], v, end == len(src))
		if end == len(src) {
			return binary.BigEndian.AppendUint32(dst, adler32sum(src))
		}
		start = end
	}
}

// Name implements Compressor.
func (z Zlib) Name() string { return "zlib" }

// CompressTo implements Compressor: it appends the zlib stream to dst using
// a pooled encoder and returns the extended slice; the bytes between the
// result's end and its capacity may be written. It never fails.
func (z Zlib) CompressTo(dst, src []byte) ([]byte, error) {
	e := zlibEncoders.Get().(*zlibEncoder)
	dst = e.encode(dst, src)
	zlibEncoders.Put(e)
	return dst, nil
}

// errTrailing is Zlib.DecompressTo's refusal of bytes after the stream: a
// solver section is length-delimited, so they mean a wrong length.
var errTrailing = errors.New("trailing bytes after the checksum")

// DecompressTo implements Compressor: it appends the decompression of
// src to dst using a pooled inflater, for which dst is the window. With dst
// pre-sized to the known output length it is never reallocated and the call is
// allocation-free in steady state; the bytes between the result's end and
// cap(dst) may be written.
func (z Zlib) DecompressTo(dst, src []byte) ([]byte, error) {
	// RFC 1950 header: CM must be 8 (DEFLATE), CINFO <= 7, the CMF/FLG pair
	// a multiple of 31. Preset dictionaries are never emitted by CompressTo.
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

// CompressTo implements Compressor.
func (LZO) CompressTo(dst, src []byte) ([]byte, error) {
	return lzo.AppendCompress(dst, src), nil
}

// DecompressTo implements Compressor.
func (LZO) DecompressTo(dst, src []byte) ([]byte, error) {
	return lzo.AppendDecompress(dst, src)
}

// BZlib is the bzip2-style BWT block solver. Its blocks are built in
// memory, so both directions append one finished container to dst.
type BZlib struct{}

// Name implements Compressor.
func (BZlib) Name() string { return "bzlib" }

// CompressTo implements Compressor.
func (BZlib) CompressTo(dst, src []byte) ([]byte, error) {
	out, err := bzlib.Compress(src, bzlib.Options{})
	if err != nil {
		return nil, err
	}
	return append(dst, out...), nil
}

// DecompressTo implements Compressor.
func (BZlib) DecompressTo(dst, src []byte) ([]byte, error) {
	out, err := bzlib.Decompress(src)
	if err != nil {
		return nil, err
	}
	return append(dst, out...), nil
}

// None is an identity "compressor" used for bytes classified incompressible.
type None struct{}

// Name implements Compressor.
func (None) Name() string { return "none" }

// CompressTo implements Compressor.
func (None) CompressTo(dst, src []byte) ([]byte, error) {
	return append(dst, src...), nil
}

// DecompressTo implements Compressor.
func (None) DecompressTo(dst, src []byte) ([]byte, error) {
	return append(dst, src...), nil
}
