package pipeline

import (
	"bytes"
	"context"
	"errors"
	"math"
	"math/rand"
	"runtime"
	"runtime/debug"
	"testing"

	"primacy/internal/core"
	"primacy/internal/fairshare"
	"primacy/internal/freq"
	"primacy/internal/testenv"
	"primacy/internal/trace"
)

// longhand is what CompressCtx must return: core.Compress of every shard, one
// after the other on one codec-less goroutine, framed by frameShards.
func longhand(t *testing.T, raw []byte, opts Options) []byte {
	t.Helper()
	var shards [][]byte
	size := opts.shardBytes(len(raw), 8)
	for off := 0; off < len(raw); off += size {
		enc, err := core.Compress(raw[off:min(off+size, len(raw))], opts.Core)
		if err != nil {
			t.Fatal(err)
		}
		shards = append(shards, enc)
	}
	return frameShards(true, shards...)
}

// TestCompressMatchesLonghandReference: shards encoded on any number of
// workers, parked and placed in whatever order they finish, make the container
// the sequential reference makes.
func TestCompressMatchesLonghandReference(t *testing.T) {
	raw := testData(10_000) // 9.8 chunks
	for _, solver := range []string{"zlib", "lzo"} {
		for _, shardBytes := range []int{0, 3 * 8 << 10} {
			opts := Options{ShardBytes: shardBytes, Core: core.Options{Solver: solver, ChunkBytes: 8 << 10}}
			want := longhand(t, raw, opts)
			for _, workers := range []int{1, 2, 3, 8} {
				opts.Workers = workers
				got, err := CompressCtx(context.Background(), raw, opts)
				if err != nil || !bytes.Equal(got, want) {
					t.Fatalf("%s, shards of %d, %d workers: %d bytes, %v; want the reference's %d",
						solver, shardBytes, workers, len(got), err, len(want))
				}
			}
		}
	}
	if got, err := CompressCtx(context.Background(), nil, Options{}); err != nil || !bytes.Equal(got, frameShards(true)) {
		t.Fatalf("empty input: % x, %v", got, err)
	}
}

// TestCompressSpillFromEveryShard: with the output sized for exactly the
// first k frames, shards [0, k) are placed by their workers, shards [k, n)
// are appended behind them by the caller — the place spans say so — and the
// container is the same for every k, 0 and n included.
func TestCompressSpillFromEveryShard(t *testing.T) {
	defer func(old int) { outputCap = old }(outputCap)
	raw := testData(7*1024 + 100)
	opts := Options{Core: core.Options{Solver: "lzo", ChunkBytes: 8 << 10}}
	want := longhand(t, raw, opts)
	shards, err := walkShards(want)
	if err != nil || len(shards) != 8 {
		t.Fatalf("walkShards: %d shards, %v", len(shards), err)
	}
	defer trace.Enable(nil)
	for k := 0; k <= len(shards); k++ {
		outputCap = len(want)
		if k < len(shards) {
			outputCap = shards[k].off - 8
		}
		for _, workers := range []int{1, 3} {
			opts.Workers = workers
			tr := trace.New(trace.Config{})
			trace.Enable(tr)
			got, err := CompressCtx(context.Background(), raw, opts)
			if err != nil || !bytes.Equal(got, want) {
				t.Fatalf("room for %d shards, %d workers: %d bytes, %v; want %d", k, workers, len(got), err, len(want))
			}
			spilled := 0
			for _, r := range tr.Spans() {
				if r.Name != "pipeline.place" {
					continue
				}
				if v, ok := r.IntAttr("spilled"); !ok || v < 0 || v > 1 {
					t.Fatalf("place span without a spilled attribute: %+v", r)
				} else {
					spilled += int(v)
				}
				if v, ok := r.IntAttr("wait_ns"); !ok || v < 0 {
					t.Fatalf("place span without a wait: %+v", r)
				}
			}
			if spilled != len(shards)-k {
				t.Fatalf("room for %d shards of %d, %d workers: %d spilled", k, len(shards), workers, spilled)
			}
		}
	}
}

// TestCompressGovernedOneShardBudget: a budget of exactly one shard admits one
// worker at a time; nothing a worker does while it holds the budget may depend
// on a shard that has yet to be admitted.
func TestCompressGovernedOneShardBudget(t *testing.T) {
	raw := testData(16 << 10)
	opts := Options{Workers: 4, Core: core.Options{ChunkBytes: 8 << 10}}
	want := longhand(t, raw, opts)
	opts.Admitter = fairshare.New(fairshare.Config{MemBudget: 8 << 10})
	for round := 0; round < 5; round++ {
		got, err := CompressCtx(context.Background(), raw, opts)
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("round %d: %d bytes, %v; want %d", round, len(got), err, len(want))
		}
	}
	if n, b := opts.Admitter.InFlight(); n != 0 || b != 0 {
		t.Fatalf("admitter capacity leaked: %d admissions, %d bytes", n, b)
	}
}

// oversizeFirst is an input whose shard 0 is noise, slow to encode and large,
// and whose other shards are zeros, encoded and parked long before: with the
// frame limit between the two sizes shard 0 is the one failure, and it comes
// while every other shard is waiting for shard 0's offset.
func oversizeFirst(shards int) ([]byte, Options) {
	raw := make([]byte, shards*(8<<10))
	rand.New(rand.NewSource(9)).Read(raw[:8<<10])
	return raw, Options{Workers: 4, Core: core.Options{ChunkBytes: 8 << 10}}
}

// TestCompressOversizeShardCancelsTheRest: the frame limit is checked where
// the shard is encoded, so the first shard over it is the last one compressed
// — not, as when the check waited for every shard, one of all of them.
func TestCompressOversizeShardCancelsTheRest(t *testing.T) {
	defer func(old int64) { maxShardBytes = old }(maxShardBytes)
	maxShardBytes = 4 << 10
	raw, opts := oversizeFirst(32)
	opts.Workers = 1
	tr := trace.New(trace.Config{})
	trace.Enable(tr)
	defer trace.Enable(nil)
	_, err := CompressCtx(context.Background(), raw, opts)
	var se *ShardError
	if !errors.Is(err, ErrTooLarge) || !errors.As(err, &se) || se.Shard != 0 {
		t.Fatalf("got %v, want ErrTooLarge from shard 0", err)
	}
	encoded := 0
	for _, r := range tr.Spans() {
		if r.Name == "core.compress" {
			encoded++
		}
	}
	if encoded != 1 {
		t.Fatalf("%d shards were compressed, want the oversize one only", encoded)
	}
}

// TestCompressSteadyStateAllocations: a call allocates its output, once, with
// core's 1/16 of slack, and nothing else of the pipeline's — shards are
// encoded into pooled buffers. What core allocates per chunk stays: the ID
// mapper's index, a 256 KiB table and its ranking. A call that has to grow the
// pool (a buffer parked where none was before, or warmed on a smaller shard)
// is not steady state yet; the pool only grows, so one that need not comes
// within a few calls.
func TestCompressSteadyStateAllocations(t *testing.T) {
	if testenv.RaceEnabled {
		t.Skip("the race detector's runtime allocates on its own, and its sync.Pool drops buffers")
	}
	raw := testData(1 << 20) // 8 MiB: three shards of one chunk, the last one short
	const shards = 3
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for _, workers := range []int{1, 2} {
		opts := Options{Workers: workers, Core: core.Options{Solver: "lzo"}}
		least, bound := uint64(math.MaxUint64), uint64(0)
		for call := 0; call < 32 && least > bound; call++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			enc, err := CompressCtx(context.Background(), raw, opts)
			runtime.ReadMemStats(&after)
			if err != nil {
				t.Fatal(err)
			}
			least = min(least, after.TotalAlloc-before.TotalAlloc)
			bound = uint64(len(enc))*11/10 + 64<<10 + shards*(4*freq.SequenceSpace+16<<10)
		}
		t.Logf("%d workers: least of a call %d bytes, bound %d", workers, least, bound)
		if least > bound {
			t.Errorf("%d workers: no call of 32 allocated less than %d bytes, bound %d", workers, least, bound)
		}
	}
}

// compressLeakRounds are the compress-side rounds of
// TestRunShardsNoGoroutineLeak: a shard that fails while the others are
// parked behind it, and a cancel from outside at any point of the call.
func compressLeakRounds(t *testing.T) {
	defer func(old int64) { maxShardBytes = old }(maxShardBytes)
	raw, opts := oversizeFirst(16)
	maxShardBytes = 4 << 10
	_, err := CompressCtx(context.Background(), raw, opts)
	var se *ShardError
	if !errors.Is(err, ErrTooLarge) || !errors.As(err, &se) || se.Shard != 0 {
		t.Fatalf("got %v, want the first shard error: ErrTooLarge from shard 0", err)
	}
	maxShardBytes = math.MaxUint32
	ctx, cancel := context.WithCancel(context.Background())
	go cancel()
	if _, err := CompressCtx(ctx, raw, opts); err != nil && !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want a container or context.Canceled", err)
	}
}
