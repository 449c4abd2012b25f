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
	"strings"
	"sync"
	"time"

	"primacy/internal/chunker"
	"primacy/internal/core"
	"primacy/internal/fairshare"
	"primacy/internal/frame"
	"primacy/internal/telemetry"
	"primacy/internal/trace"
)

// Container magics. Each is followed by a u32 shard count and one frame per
// shard (internal/frame): v1 frames have no CRC32C, v2 frames do (the shards
// themselves are core containers, so v2 shards additionally carry the core
// format's own header and chunk checksums). CompressCtx emits v2; Decompress
// accepts both.
const (
	magicV1 = "PRP1"
	magicV2 = "PRP2"
)

// ErrCorrupt indicates a malformed parallel container. It wraps
// core.ErrCorrupt.
var ErrCorrupt = core.CorruptSentinel("pipeline: corrupt stream")

// ErrTooLarge indicates a shard whose compressed form exceeds frame.MaxLen,
// the longest payload a frame carries and any reader accepts.
var ErrTooLarge = errors.New("pipeline: shard exceeds the frame bound")

// maxShardBytes is the largest compressed shard a frame carries. Tests lower
// it to exercise the ErrTooLarge path without allocating multi-GiB buffers.
var maxShardBytes int64 = frame.MaxLen

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
	// An error of this package's own names it already.
	return fmt.Sprintf("pipeline: shard %d: %s", e.Shard, strings.TrimPrefix(e.Err.Error(), "pipeline: "))
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
	// One chunk as core cuts it. A chunk below one element is core's
	// chunker.ErrBadChunkSize, which the first shard reports.
	chunk, err := chunker.Size(o.Core.ChunkBytes, elemBytes)
	if err != nil {
		return elemBytes
	}
	return chunk
}

// CompressCtx compresses data using up to opts.workers() goroutines. Each
// worker owns a core.Codec, so per-chunk scratch and pooled solver state are
// reused across every shard that worker processes without cross-worker
// contention. ctx is checked before every shard is started and between the
// chunks inside each shard, the first worker error cancels all remaining
// shards, worker panics surface as *ShardError wrapping *core.PanicError, and
// opts.Admitter (when set) gates shard admission.
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
		enc, st, err := codec.AppendCompressCtx(ctx, (*buf)[:0], shards[i], opts.Core)
		if err == nil && int64(len(enc)) > maxShardBytes {
			err = fmt.Errorf("%w: compressed to %d bytes", ErrTooLarge, len(enc))
		}
		if err != nil {
			encPool.Put(buf)
			return err
		}
		*buf = enc
		// The shard's frame CRC is the container's, which core built from the
		// CRCs of its header and records: the shard is not read again.
		sh := encoded{buf: buf, crc: st.CRC32C, span: trace.SpanFromContext(ctx).Child("pipeline.place")}
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
		a.publish(a.open(0))
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
	out = frame.AppendHeader(out, len(*sh.buf), sh.crc)
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

// open allocates the output and writes its header; publish makes it the
// assembly's. Shards of one input compress alike, so shard 0, a frame of
// frame bytes, prices the rest by the byte: a one-shard container gets its
// exact size, a longer one the 1/16 of slack core gives a container of
// several chunks. open reads only what never changes, so it needs no lock.
func (a *assembly) open(frame int) []byte {
	if a.raw > a.shard0 {
		frame = int(int64(frame) * int64(a.raw) / int64(a.shard0))
		frame += frame / 16
	}
	out := make([]byte, 0, min(len(magicV2)+4+frame, outputCap))
	out = append(out, magicV2...)
	return binary.LittleEndian.AppendUint32(out, uint32(len(a.shards)))
}

// publish installs out, the output open wrote, under a.mu.
func (a *assembly) publish(out []byte) {
	a.out, a.end, a.windowed = out[:cap(out)], len(out), len(a.shards)
}

// place parks shard i and copies into the output every shard whose offset
// that settles.
func (a *assembly) place(i int, sh encoded) {
	// Shard 0's worker allocates, and so zeroes, the output before it takes
	// the lock: a worker placing another shard meanwhile does not wait on it.
	var out0 []byte
	if i == 0 {
		out0 = a.open(frame.HeaderLen(true) + len(*sh.buf))
	}
	a.mu.Lock()
	a.shards[i] = sh
	if i == 0 {
		a.publish(out0)
	}
	first := a.next
	for ; a.next < len(a.shards) && a.shards[a.next].buf != nil; a.next++ {
		p := &a.shards[a.next]
		n := frame.HeaderLen(true) + len(*p.buf)
		if a.next < a.windowed && n > len(a.out)-a.end {
			a.windowed = a.next
		}
		if a.next < a.windowed {
			p.off, a.end = a.end, a.end+n
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
	data  []byte      // the embedded core container
	off   int         // its offset in the parallel container
	frame frame.Frame // the frame it came in: Verify is the shard's CRC verdict
}

// header reads the container magic at the head of data: whether its shard
// frames carry a CRC32C, and whether it is a parallel container at all.
func header(data []byte) (withCRC, ok bool) {
	if len(data) < len(magicV1)+4 {
		return false, false
	}
	switch string(data[:len(magicV1)]) {
	case magicV1:
		return false, true
	case magicV2:
		return true, true
	}
	return false, false
}

// walkShards parses the container framing — magic, shard count, frame
// lengths, nothing of the payloads — and returns the shards it frames. It
// leaves each shard's CRC verdict to Verify: the strict decode asks for it in
// the worker that decodes the shard.
func walkShards(data []byte) ([]shard, error) {
	withCRC, ok := header(data)
	if !ok {
		return nil, fmt.Errorf("%w: short header or bad magic", ErrCorrupt)
	}
	n := int(binary.LittleEndian.Uint32(data[len(magicV1):]))
	pos := len(magicV1) + 4
	// Each shard needs at least its frame header, so the count field cannot
	// claim more shards than the remaining bytes can frame — reject before
	// allocating anything proportional to n.
	if n < 0 || n > (len(data)-pos)/frame.HeaderLen(withCRC) {
		return nil, fmt.Errorf("%w: %d shards in %d bytes", ErrCorrupt, n, len(data))
	}
	shards := make([]shard, n)
	for i := range shards {
		f, next, err := frame.Next(data, pos, withCRC)
		if err != nil {
			return nil, fmt.Errorf("%w: shard %d: %w", ErrCorrupt, i, err)
		}
		shards[i] = shard{data: f.Payload, off: next - len(f.Payload), frame: f}
		pos = next
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

// Decompress reverses CompressCtx using up to opts.workers() goroutines, each
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
// state, and each shard is decoded into its window of it by a worker: no
// checksum, copy or concatenation runs on the calling goroutine. A window's
// capacity ends where the next begins and core decodes exactly the stated
// size or fails, so no shard can write into another's bytes. A size is a
// claim until its shard has decoded, so windows go to the leading shards
// that each claim at most maxExpansion times their own length; from the
// first that claims more (or whose header does not parse) a shard decodes by
// append into a buffer of its own, which is then appended behind the
// windows. The output is made by the worker of shard 0 while the others
// already decode (see output).
//
// A shard's CRC32C is not a pass of its own: core reports the checksum of
// the container it decoded, and the shard's frame is checked against that.
// Only when core fails or the two differ is the shard summed directly, and
// a mismatch there is the error, so every input gets the verdict of a
// verify-then-decode.
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
		off   int    // where the shard's window starts in the output, for shards [0, o.windowed)
		out   []byte // what the shard decoded to: appended behind the windows for shards [o.windowed, len(shards))
	}
	jobs := make([]job, len(shards))
	var o output
	for i, sh := range shards {
		total, err := core.DecodedLen(sh.data)
		if err != nil {
			jobs[i].total = len(sh.data)
			continue
		}
		jobs[i].total = total
		if o.windowed == i && total <= maxExpansion*len(sh.data) {
			jobs[i].off = o.size
			o.size += total
			o.windowed++
		}
	}
	root := trace.Start(trace.SpanFromContext(ctx), "pipeline.decompress").
		Attr("container_bytes", int64(len(data))).
		Attr("shards", int64(len(shards))).
		Attr("workers", int64(opts.workers()))
	err = runShards(ctx, opts, "decompress", root, len(shards), func(ctx context.Context, codec *core.Codec, i int) error {
		j, sh := &jobs[i], &shards[i]
		if i == 0 && o.windowed > 0 {
			o.window(0, 0) // make the output first (see output)
		}
		out, ds, err := codec.AppendDecompressLate(ctx, func() []byte {
			if i < o.windowed {
				return o.window(j.off, j.total)
			}
			return nil
		}, sh.data)
		if err != nil || sh.frame.Check(ds.CRC32C) != nil {
			if verr := sh.frame.Verify(); verr != nil {
				return fmt.Errorf("%w: %w", ErrCorrupt, verr)
			}
		}
		j.out = out
		return err
	}, func(i int) int64 { return int64(jobs[i].total) })
	root.End(err)
	if err != nil {
		return nil, err
	}
	out := o.window(0, o.size)[:o.size]
	for _, j := range jobs[o.windowed:] {
		out = append(out, j.out...)
	}
	return out, nil
}

// output is the destination of DecompressCtx's windowed shards: one
// allocation of size bytes. The worker of shard 0 makes it — and so pays for
// its zeroing — before it decodes, while the other workers decode the first
// chunks of theirs: they ask for their windows only when a chunk is ready to
// be written (core.Codec.AppendDecompressLate), by when it is there. A worker
// that asks before it is made waits for it, or makes it itself if shard 0
// has not started, so no shard decodes into a buffer of its own.
type output struct {
	size     int // bytes of the windowed shards
	windowed int // shards [0, windowed) have a window
	once     sync.Once
	buf      []byte
}

// window returns the total bytes of the output at off as an empty slice whose
// capacity ends there, making the output on first use.
func (o *output) window(off, total int) []byte {
	o.once.Do(func() { o.buf = make([]byte, o.size) })
	return o.buf[off : off : off+total]
}

// DecompressSalvage decompresses as much of a damaged parallel container as
// possible: every shard is read by core.DecompressSalvage, so an intact one
// gives its decoded bytes and a damaged one all its chunks but the corrupt
// ones, and every fault is recorded in the report with its absolute offset.
// The shards are those of the strict walk, which checks every shard's
// checksum; when the walk or a checksum fails, the fault is recorded and
// core's lenient walk (core.WalkFramed) finds them instead. The error is
// non-nil only when the input is not a parallel container at all.
func DecompressSalvage(data []byte) ([]byte, *core.CorruptionReport, error) {
	rep := &core.CorruptionReport{}
	if len(data) >= 4 {
		rep.Format = string(data[:4])
	}
	shards, err := walkShards(data)
	framed := make([]core.Framed, len(shards))
	for i := 0; err == nil && i < len(shards); i++ {
		if err = shards[i].frame.Verify(); err != nil {
			err = fmt.Errorf("%w: shard %d: %w", ErrCorrupt, i, err)
		}
		framed[i] = core.Framed{Off: shards[i].off, Data: shards[i].data}
	}
	if err != nil {
		rep.Add(0, -1, err)
		withCRC, ok := header(data)
		if !ok {
			return nil, rep, err
		}
		framed, _ = core.WalkFramed(data, len(magicV1)+4, withCRC)
	}
	var out []byte
	for i, sh := range framed {
		dec, subRep, err := core.DecompressSalvage(sh.Data)
		if err != nil {
			rep.Add(sh.Off, i, err)
			continue
		}
		rep.Merge(sh.Off, subRep)
		out = append(out, dec...)
	}
	return out, rep, nil
}
