// Package pipeline runs the PRIMACY codec across multiple cores, the way an
// in-situ integration runs it across the cores of a compute node: input is
// cut into per-worker shards, each shard is compressed independently with
// the core codec, and shards are reassembled in order. Shard outputs are
// byte-identical to sequential core.Compress outputs of the same shard, so
// the parallel container is a thin deterministic wrapper.
package pipeline

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"strconv"
	"sync"
	"time"

	"primacy/internal/checksum"
	"primacy/internal/core"
	"primacy/internal/fairshare"
	"primacy/internal/telemetry"
	"primacy/internal/trace"
)

// Container magics. v1 frames each shard with a bare u32 length; v2 adds a
// CRC32C per shard (the shards themselves are core containers, so v2 shards
// additionally carry the core format's own header and chunk checksums).
// Compress emits v2; Decompress accepts both.
const (
	magicV1 = "PRP1"
	magicV2 = "PRP2"
)

// ErrCorrupt indicates a malformed parallel container.
var ErrCorrupt = errors.New("pipeline: corrupt stream")

// ErrTooLarge indicates a shard whose compressed form exceeds the u32 frame
// length, which the container format cannot represent. Without this check the
// uint32 cast would silently truncate the length and corrupt the container.
var ErrTooLarge = errors.New("pipeline: shard exceeds u32 framing limit")

// maxShardBytes is the largest compressed shard the u32 frame length can
// carry. Tests lower it to exercise the ErrTooLarge path without allocating
// multi-GiB buffers.
var maxShardBytes int64 = math.MaxUint32

// ErrChecksum indicates a CRC32C mismatch on a v2 shard; it is wrapped
// together with ErrCorrupt.
var ErrChecksum = errors.New("checksum mismatch")

// Options configures parallel compression.
type Options struct {
	// Core is passed to every shard's codec. IndexReuse is not meaningful
	// across shards (each shard starts fresh).
	Core core.Options
	// Workers caps concurrency (0 = GOMAXPROCS).
	Workers int
	// ShardBytes is the per-shard input size. 0 means one effective chunk
	// per shard — a geometry that depends only on the input size and chunk
	// size, so compressed output is byte-identical across worker counts.
	ShardBytes int
	// Admitter, when non-nil, gates each shard's admission against a shared
	// memory/concurrency budget: under a burst of large inputs workers queue
	// at the gate instead of holding every shard's scratch at once. Nil
	// admits everything. Build it with fairshare.New, whose zero Config
	// fields take bounded defaults (256 MiB, 64 concurrent, 32 queued per
	// tenant, 256 queued), not "unlimited". Shards queue as the one tenant
	// "", so an admitter shared with a stream writer is a single FIFO. A
	// full queue is refused, not waited on: fairshare's ErrQueueFull or
	// ErrShed reaches the caller inside *ShardError.
	Admitter *fairshare.Admitter
}

// ShardError attributes a worker failure to one shard of the parallel
// container. Recovered worker panics arrive wrapped in *core.PanicError, so
// a faulting shard degrades to a structured error instead of crashing the
// process.
type ShardError struct {
	// Shard is the zero-based shard index.
	Shard int
	// Err is the underlying failure.
	Err error
}

func (e *ShardError) Error() string {
	return fmt.Sprintf("pipeline: shard %d: %v", e.Shard, e.Err)
}

func (e *ShardError) Unwrap() error { return e.Err }

func (o Options) workers() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// codecPool recycles core.Codec scratch arenas across calls. Each worker
// goroutine checks a codec out for its whole lifetime (shards never share
// one concurrently) and returns it when the call completes, so a server
// handling a stream of requests reuses warmed split/encode/solver buffers
// instead of re-growing them per request.
var codecPool = sync.Pool{New: func() any { return new(core.Codec) }}

// shardBytes computes the per-shard input size, rounded to whole elements of
// the configured precision (Float32 inputs shard on 4-byte elements, not 8).
// The default (ShardBytes == 0) is one effective chunk per shard: shard
// geometry is then a pure function of input size and chunk size — never of
// worker count — so the compressed container is byte-identical whether it was
// produced by 1 worker or 64. The server's content-addressed result cache and
// the cross-worker regression tests rely on this invariance; it also gives
// the work queue enough shards for stragglers to balance. Interior shards are
// whole chunks, so sharding never manufactures runt chunks at shard seams
// that a sequential core.Compress of the same input would not produce.
func (o Options) shardBytes(total, elemBytes int) int {
	if o.ShardBytes > 0 {
		// Round to whole elements.
		sb := o.ShardBytes - o.ShardBytes%elemBytes
		if sb < elemBytes {
			sb = elemBytes
		}
		return sb
	}
	// Effective chunk size: the core codec rounds ChunkBytes down to a whole
	// element multiple, so mirror that here.
	chunk := o.Core.ChunkBytes
	if chunk == 0 {
		chunk = 3 << 20
	}
	chunk -= chunk % elemBytes
	if chunk < elemBytes {
		chunk = elemBytes
	}
	return chunk
}

// Compress compresses data using up to Workers goroutines. Each worker owns
// a core.Codec, so per-chunk scratch and pooled solver state are reused
// across every shard that worker processes without cross-worker contention.
func Compress(data []byte, opts Options) ([]byte, error) {
	return CompressCtx(context.Background(), data, opts)
}

// CompressCtx is Compress with cancellation and resource governance: ctx is
// checked before every shard is started and between the chunks inside each
// shard, the first worker error cancels all remaining shards, worker panics
// surface as *ShardError wrapping *core.PanicError, and opts.Admitter (when
// set) gates shard admission.
//
// The output is allocated once and filled by the workers (see assembly): a
// shard is encoded into a pooled buffer, checksummed there and copied to its
// place by a worker; on the calling goroutine nothing is copied unless a shard
// outgrew the size shard 0 predicted.
func CompressCtx(ctx context.Context, data []byte, opts Options) ([]byte, error) {
	lay, err := opts.Core.Precision.Layout()
	if err != nil {
		return nil, fmt.Errorf("pipeline: %w", err)
	}
	if len(data)%lay.ElemBytes != 0 {
		return nil, fmt.Errorf("pipeline: input %d not a multiple of %d bytes",
			len(data), lay.ElemBytes)
	}
	shardSize := opts.shardBytes(len(data), lay.ElemBytes)
	var shards [][]byte
	for off := 0; off < len(data); off += shardSize {
		end := off + shardSize
		if end > len(data) {
			end = len(data)
		}
		shards = append(shards, data[off:end])
	}
	a := assembly{raw: len(data), shard0: min(shardSize, len(data)), shards: make([]encoded, len(shards))}
	root := trace.Start(trace.SpanFromContext(ctx), "pipeline.compress").
		Attr("raw_bytes", int64(len(data))).
		Attr("shards", int64(len(shards))).
		Attr("workers", int64(opts.workers()))
	err = runShards(ctx, opts, "compress", root, len(shards), func(ctx context.Context, codec *core.Codec, i int) error {
		buf := encPool.Get().(*[]byte)
		enc, _, err := codec.AppendCompressCtx(ctx, (*buf)[:0], shards[i], opts.Core)
		if err == nil && int64(len(enc)) > maxShardBytes {
			err = fmt.Errorf("%w: compressed to %d bytes", ErrTooLarge, len(enc))
		}
		if err != nil {
			encPool.Put(buf)
			return err
		}
		*buf = enc
		// The worker that wrote the shard also checksums it, while it is
		// still in that core's cache and the other workers are busy.
		sh := encoded{buf: buf, crc: checksum.Sum(enc), span: trace.SpanFromContext(ctx).Child("pipeline.place")}
		if sh.span.Active() {
			sh.at = time.Now()
		}
		a.place(i, sh)
		return nil
	}, func(i int) int64 { return int64(len(shards[i])) })
	root.End(err)
	if err != nil {
		return nil, err
	}
	if a.out == nil {
		a.open(0)
	}
	out := a.out[:a.end]
	for _, sh := range a.shards[a.windowed:] {
		out = sh.appendFrame(out)
	}
	return out, nil
}

// encPool recycles the buffers shards are encoded into. They are pooled apart
// from the codecs because a buffer outlives its worker's hold on it: a shard
// encoded ahead of its turn stays parked in the assembly and its worker takes
// the next shard with another buffer.
var encPool = sync.Pool{New: func() any { return new([]byte) }}

// outputCap bounds what is set aside for the output. Tests lower it to start
// the spill at any shard.
var outputCap = math.MaxInt

// encoded is one shard between its worker and the output.
type encoded struct {
	buf  *[]byte    // the shard's core container, in a buffer of encPool; nil until encoded
	crc  uint32     // its CRC32C
	off  int        // where its frame starts in the output, for shards [0, windowed)
	span trace.Span // pipeline.place: from encoded to placed
	at   time.Time  // when it was encoded; zero with tracing off
}

// appendFrame appends the shard's frame to out and gives its buffer back.
func (sh *encoded) appendFrame(out []byte) []byte {
	out = binary.LittleEndian.AppendUint32(out, uint32(len(*sh.buf)))
	out = binary.LittleEndian.AppendUint32(out, sh.crc)
	out = append(out, *sh.buf...)
	encPool.Put(sh.buf)
	return out
}

// assembly is the container under construction: one allocation, filled by the
// workers. A frame's offset is known once every shard before it is encoded,
// so offsets are handed out in shard order — and nobody waits for one: a
// worker parks its shard, gives offsets to the run of parked shards that now
// starts at next (its own alone, none, or a few of other workers' behind its
// own) and copies that run into place outside the lock. The output is sized
// once, from shard 0's ratio; from the first shard that does not fit, shards
// stay parked and the caller appends them behind the rest: the prefix rule of
// DecompressCtx's windows.
type assembly struct {
	raw      int // input bytes: what the output is sized for
	shard0   int // those of them in shard 0
	mu       sync.Mutex
	shards   []encoded
	out      []byte // header and frames of shards [0, windowed) at full length; nil until shard 0 is in
	end      int    // where the next frame goes in out
	next     int    // first shard not encoded yet; every shard before it is placed or spilled
	windowed int    // shards [0, windowed) have a place in out: len(shards) until one does not fit
}

// open allocates the output and writes its header. Shards of one input
// compress alike, so shard 0, a frame of frame bytes, prices the rest by the
// byte: a one-shard container gets its exact size, a longer one the 1/16 of
// slack core gives a container of several chunks.
func (a *assembly) open(frame int) {
	if a.raw > a.shard0 {
		frame = int(int64(frame) * int64(a.raw) / int64(a.shard0))
		frame += frame / 16
	}
	out := make([]byte, 0, min(len(magicV2)+4+frame, outputCap))
	out = append(out, magicV2...)
	out = binary.LittleEndian.AppendUint32(out, uint32(len(a.shards)))
	a.out, a.end, a.windowed = out[:cap(out)], len(out), len(a.shards)
}

// place parks shard i and copies into the output every shard whose offset
// that settles.
func (a *assembly) place(i int, sh encoded) {
	a.mu.Lock()
	a.shards[i] = sh
	if i == 0 {
		a.open(8 + len(*sh.buf))
	}
	first := a.next
	for ; a.next < len(a.shards) && a.shards[a.next].buf != nil; a.next++ {
		p := &a.shards[a.next]
		frame := 8 + len(*p.buf)
		if a.next < a.windowed && frame > len(a.out)-a.end {
			a.windowed = a.next
		}
		if a.next < a.windowed {
			p.off, a.end = a.end, a.end+frame
		}
	}
	// Shards before next are nobody else's to touch from here on.
	run, out, windowed := a.shards[first:a.next], a.out, a.windowed
	a.mu.Unlock()
	var settled time.Time
	if sh.span.Active() {
		settled = time.Now()
	}
	for j := range run {
		p, spilled := &run[j], int64(0)
		if first+j < windowed {
			p.appendFrame(out[:p.off])
		} else {
			spilled = 1
		}
		p.span.Attr("wait_ns", int64(settled.Sub(p.at))).Attr("spilled", spilled).End(nil)
	}
}

// shard is one framed core container of a parallel container.
type shard struct {
	data []byte // the embedded core container
	off  int    // its offset in the parallel container
	crc  []byte // the frame's stored CRC32C of data; empty in v1, which has none
}

// checksumOK is the shard's CRC verdict. The walk does not compute it: the
// strict decode leaves it to the worker that decodes the shard, Verify and
// salvage ask for it shard by shard.
func (s *shard) checksumOK() bool { return len(s.crc) == 0 || checksum.Check(s.crc, s.data) }

// frameHdrLen maps the container magic at the head of data to the per-shard
// framing overhead (u32 length, plus a u32 CRC32C in v2); 0 when data does
// not start with a parallel container header.
func frameHdrLen(data []byte) int {
	if len(data) >= len(magicV1)+4 {
		switch string(data[:len(magicV1)]) {
		case magicV1:
			return 4
		case magicV2:
			return 8
		}
	}
	return 0
}

// walkShards parses the container framing — magic, shard count, frame
// lengths, nothing of the payloads — and returns the shards it frames.
func walkShards(data []byte) ([]shard, error) {
	frameHdr := frameHdrLen(data)
	if frameHdr == 0 {
		return nil, fmt.Errorf("%w: short header or bad magic", ErrCorrupt)
	}
	n := int(binary.LittleEndian.Uint32(data[len(magicV1):]))
	pos := len(magicV1) + 4
	// Each shard needs at least its frame header, so the count field cannot
	// claim more shards than the remaining bytes can frame — reject before
	// allocating anything proportional to n.
	if n < 0 || n > (len(data)-pos)/frameHdr {
		return nil, fmt.Errorf("%w: %d shards in %d bytes", ErrCorrupt, n, len(data))
	}
	shards := make([]shard, n)
	for i := range shards {
		if pos+frameHdr > len(data) {
			return nil, fmt.Errorf("%w: truncated shard header", ErrCorrupt)
		}
		l := int(binary.LittleEndian.Uint32(data[pos:]))
		if l < 0 || l > len(data)-pos-frameHdr {
			return nil, fmt.Errorf("%w: truncated shard", ErrCorrupt)
		}
		shards[i] = shard{data: data[pos+frameHdr : pos+frameHdr+l], off: pos + frameHdr, crc: data[pos+4 : pos+frameHdr]}
		pos += frameHdr + l
	}
	if pos != len(data) {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, len(data)-pos)
	}
	return shards, nil
}

// runShards processes shard indices [0, n) on up to opts.workers()
// goroutines. Each goroutine owns one core.Codec for its lifetime —
// per-worker scratch — and pulls indices from a shared channel so stragglers
// balance out. Fault containment and governance happen here, once, for both
// directions:
//
//   - ctx is checked before each shard starts; the feed loop stops as soon
//     as the context is done, so cancellation takes effect within one shard.
//   - the first shard error cancels the derived context, draining the
//     remaining shards without running them; every worker goroutine exits
//     before runShards returns.
//   - a panic inside do is recovered into *core.PanicError, so one faulting
//     shard yields a structured per-shard error instead of a crashed process.
//   - opts.Admitter, when set, admits each shard's weight before it runs.
//
// The returned error is the first shard failure in shard order (wrapped in
// *ShardError), or ctx.Err() when the call was cancelled from outside.
//
// op names the direction ("compress"/"decompress") for pprof labels and
// trace spans; parent is the call's root span — per-shard child spans hang
// off it across goroutine boundaries, and each shard's span rides the shard
// context so core chunk spans nest under it.
func runShards(ctx context.Context, opts Options, op string, parent trace.Span, n int, do func(ctx context.Context, codec *core.Codec, i int) error, weight func(i int) int64) error {
	workers := opts.workers()
	if workers > n {
		workers = n
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	errs := make([]error, n)
	idxCh := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			codec := codecPool.Get().(*core.Codec)
			defer codecPool.Put(codec)
			// With tracing on, label the worker goroutine so CPU profiles
			// (-pprof-addr) attribute samples to stage and shard. The label
			// set is rebuilt per shard; gated on the call's root span, active
			// exactly when tracing is on, so the untraced path never
			// allocates label storage.
			traced := parent.Active()
			// One closure per worker, not per shard: i is the shard in hand.
			var i int
			run := func(ctx context.Context) {
				if err := runShard(ctx, opts.Admitter, codec, i, parent, do, weight); err != nil {
					errs[i] = err
					cancel()
				}
			}
			for i = range idxCh {
				if err := ctx.Err(); err != nil {
					errs[i] = err
					continue
				}
				if traced {
					pprof.Do(ctx, pprof.Labels(
						"primacy_stage", op,
						"primacy_shard", strconv.Itoa(i),
					), run)
				} else {
					run(ctx)
				}
			}
		}()
	}
feed:
	for i := 0; i < n; i++ {
		select {
		case idxCh <- i:
		case <-ctx.Done():
			errs[i] = ctx.Err()
			for j := i + 1; j < n; j++ {
				errs[j] = ctx.Err()
			}
			break feed
		}
	}
	close(idxCh)
	wg.Wait()
	// Prefer the first real shard failure over cancellation noise: once one
	// shard fails, every later shard reports context.Canceled, which would
	// mask the root cause.
	var ctxErr error
	for i, err := range errs {
		if err == nil {
			continue
		}
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			if ctxErr == nil {
				ctxErr = err
			}
			continue
		}
		return &ShardError{Shard: i, Err: err}
	}
	return ctxErr
}

// runShard executes one shard under admission control and panic isolation.
// parent is the call's root trace span; the shard's own span nests under it
// (Child is goroutine-safe) and is carried by the shard context so the core
// codec's chunk spans nest in turn.
func runShard(ctx context.Context, adm *fairshare.Admitter, codec *core.Codec, i int, parent trace.Span, do func(ctx context.Context, codec *core.Codec, i int) error, weight func(i int) int64) (err error) {
	m := tmet.Load()
	var sp telemetry.Span
	if m != nil {
		sp = m.shardSeconds.Start()
	}
	ss := parent.Child("pipeline.shard").Attr("shard", int64(i))
	defer func() {
		if r := recover(); r != nil {
			err = &core.PanicError{Op: fmt.Sprintf("shard %d", i), Value: r, Stack: debug.Stack()}
		}
		ss.End(err)
		sp.End()
		if m != nil {
			m.shards.Inc()
			if err != nil {
				m.shardErrors.Inc()
			}
		}
	}()
	ctx = trace.ContextWithSpan(ctx, ss)
	w := weight(i)
	if err := adm.Acquire(ctx, "", w); err != nil {
		return err
	}
	defer adm.Release(w)
	return do(ctx, codec, i)
}

// Decompress reverses Compress using up to opts.workers() goroutines, each
// owning a core.Codec with per-worker scratch.
func Decompress(data []byte, opts Options) ([]byte, error) {
	return DecompressCtx(context.Background(), data, opts)
}

// maxExpansion bounds the output set aside per shard byte before the shard
// has been verified: core.MaxExpansion, DEFLATE's 1032:1 ceiling. Tests
// lower it to send real containers down the path hostile claims take.
var maxExpansion = core.MaxExpansion

// DecompressCtx is Decompress with cancellation and resource governance; see
// CompressCtx for the semantics.
//
// The output is allocated once, from the decoded sizes the shards' headers
// state, and each shard is decoded into its window of it by the worker that
// also verified its checksum: no checksum, copy or concatenation runs on the
// calling goroutine. A window's capacity ends where the next begins and core
// decodes exactly the stated size or fails, so no shard can write into
// another's bytes. A size is a claim until its shard has decoded, so windows
// go to the leading shards that each claim at most maxExpansion times their
// own length; from the first that claims more (or whose header does not
// parse) a shard decodes by append into a buffer of its own, which is then
// appended behind the windows.
func DecompressCtx(ctx context.Context, data []byte, opts Options) ([]byte, error) {
	shards, err := walkShards(data)
	if err != nil {
		return nil, err
	}
	type job struct {
		// total is the decoded size the shard's header states: what the shard
		// pins while it decodes, so what the admitter is charged. A shard whose
		// header does not parse is charged its length and fails in its worker.
		total int
		off   int // where the shard's window starts in buf, for shards [0, windowed)
		out   []byte
	}
	jobs := make([]job, len(shards))
	windowed, size := 0, 0
	for i, sh := range shards {
		total, err := core.DecodedLen(sh.data)
		if err != nil {
			jobs[i].total = len(sh.data)
			continue
		}
		jobs[i].total = total
		if windowed == i && total <= maxExpansion*len(sh.data) {
			jobs[i].off = size
			size += total
			windowed++
		}
	}
	buf := make([]byte, size)
	root := trace.Start(trace.SpanFromContext(ctx), "pipeline.decompress").
		Attr("container_bytes", int64(len(data))).
		Attr("shards", int64(len(shards))).
		Attr("workers", int64(opts.workers()))
	err = runShards(ctx, opts, "decompress", root, len(shards), func(ctx context.Context, codec *core.Codec, i int) error {
		if !shards[i].checksumOK() {
			return fmt.Errorf("%w: %w", ErrCorrupt, ErrChecksum)
		}
		var window []byte
		if j := jobs[i]; i < windowed {
			window = buf[j.off : j.off : j.off+j.total]
		}
		out, _, err := codec.AppendDecompressCtx(ctx, window, shards[i].data)
		jobs[i].out = out
		return err
	}, func(i int) int64 { return int64(jobs[i].total) })
	root.End(err)
	if err != nil {
		return nil, err
	}
	out := buf
	for _, j := range jobs[windowed:] {
		out = append(out, j.out...)
	}
	return out, nil
}

// readShards is the walk Verify and DecompressSalvage share: the strict walk
// with every shard's checksum verdict, and — with the first fault recorded in
// rep — the lenient re-walk when either fails. It returns nil when the input
// is not a parallel container at all; err is then the reason.
func readShards(data []byte, rep *core.CorruptionReport) ([]shard, error) {
	if len(data) >= 4 {
		rep.Format = string(data[:4])
	}
	shards, err := walkShards(data)
	for i := 0; err == nil && i < len(shards); i++ {
		if !shards[i].checksumOK() {
			err = fmt.Errorf("%w: shard %d: %w", ErrCorrupt, i, ErrChecksum)
		}
	}
	if err != nil {
		// The strict walk stops at the first fault; re-walk leniently,
		// recovering intact frames and isolating the damaged regions.
		rep.Add(0, -1, err)
		if shards = walkShardsLenient(data); shards == nil {
			return nil, err
		}
	}
	return shards, nil
}

// DecompressSalvage decompresses as much of a damaged parallel container as
// possible: shards that fail their checksum or decode are recovered through
// core.DecompressSalvage (so only the corrupt chunks inside them are lost),
// and every fault is recorded in the report with its absolute offset. The
// error is non-nil only when the input is not a parallel container at all.
func DecompressSalvage(data []byte, opts Options) ([]byte, *core.CorruptionReport, error) {
	rep := &core.CorruptionReport{}
	shards, err := readShards(data, rep)
	if err != nil {
		return nil, rep, err
	}
	var (
		out   []byte
		codec core.Codec
	)
	for i, sh := range shards {
		grown, _, derr := codec.AppendDecompressCtx(context.Background(), out, sh.data)
		if derr == nil {
			out = grown
			continue
		}
		sal, subRep, serr := core.DecompressSalvage(sh.data)
		if serr != nil {
			rep.Add(sh.off, i, derr)
			continue
		}
		rep.Merge(sh.off, subRep)
		out = append(out, sal...)
	}
	return out, rep, nil
}

// walkShardsLenient recovers shard regions from a container whose strict
// walk failed. Intact frames are taken as-is; a frame whose CRC fails but
// whose embedded core container still frames cleanly is trusted anyway
// (corrupt length or CRC field, intact payload); anything else becomes one
// damaged region ending at the next recognizable frame, so the caller's
// per-shard salvage can still recover its intact chunks. It returns nil only
// when the container header is unusable.
func walkShardsLenient(data []byte) (shards []shard) {
	frameHdr := frameHdrLen(data)
	if frameHdr == 0 {
		return nil
	}
	pos := len(magicV1) + 4
	for pos < len(data) {
		if pos+frameHdr <= len(data) {
			l := int(binary.LittleEndian.Uint32(data[pos:]))
			if l >= 0 && l <= len(data)-pos-frameHdr {
				sh := data[pos+frameHdr : pos+frameHdr+l]
				if frameHdr == 4 || checksum.Check(data[pos+4:], sh) {
					shards = append(shards, shard{data: sh, off: pos + frameHdr})
					pos += frameHdr + l
					continue
				}
			}
		}
		start := min(pos+frameHdr, len(data))
		if encLen, _, _, err := core.Frame(data[start:]); err == nil {
			shards = append(shards, shard{data: data[start : start+encLen], off: start})
			pos = start + encLen
			continue
		}
		next := nextLenientFrame(data, start+1, frameHdr)
		shards = append(shards, shard{data: data[start:next], off: start})
		pos = next
	}
	return shards
}

// nextLenientFrame scans for the next offset holding a trustworthy shard
// frame. Every shard is a core container, so the frame's payload must start
// with a container magic — without that filter the scan would lock onto a
// chunk frame inside a damaged shard, since core chunks use the same
// u32 length + u32 CRC framing. For v2 the frame CRC must verify too (or the
// embedded container must frame cleanly, when only the CRC field was hit).
// Returns len(data) when no frame remains.
func nextLenientFrame(data []byte, from, frameHdr int) int {
	for pos := from; pos+frameHdr < len(data); pos++ {
		l := int(binary.LittleEndian.Uint32(data[pos:]))
		if l < 4 || l > len(data)-pos-frameHdr {
			continue
		}
		shard := data[pos+frameHdr : pos+frameHdr+l]
		switch string(shard[:4]) {
		case "PRM1", "PRM2", "PRM3":
		default:
			continue
		}
		if frameHdr == 4 || checksum.Check(data[pos+4:], shard) {
			return pos
		}
		if encLen, _, _, err := core.Frame(shard); err == nil && encLen == l {
			return pos
		}
	}
	return len(data)
}

// Verify checks the container's integrity: outer framing, per-shard CRC32C
// (v2), and a full verify of every embedded core container. The report
// lists every detected fault; the error is non-nil only when the input is
// not a parallel container at all.
func Verify(data []byte) (*core.CorruptionReport, error) {
	rep := &core.CorruptionReport{}
	shards, err := readShards(data, rep)
	if err != nil {
		return rep, err
	}
	for i, sh := range shards {
		subRep, serr := core.Verify(sh.data)
		if serr != nil {
			rep.Add(sh.off, i, serr)
			continue
		}
		rep.Merge(sh.off, subRep)
	}
	return rep, nil
}
