package pipeline

import (
	"bytes"
	"context"
	"errors"
	"math"
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"primacy/internal/core"
	"primacy/internal/fairshare"
	"primacy/internal/trace"
)

func shardTestData(n int, seed int64) []byte {
	rng := rand.New(rand.NewSource(seed))
	out := make([]byte, 0, n*8)
	var u64 [8]byte
	v := 300.0
	for i := 0; i < n; i++ {
		v += rng.NormFloat64()
		bits := math.Float64bits(v)
		for j := 0; j < 8; j++ {
			u64[j] = byte(bits >> (56 - 8*j))
		}
		out = append(out, u64[:]...)
	}
	return out
}

func TestCompressCtxPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := CompressCtx(ctx, shardTestData(1_000, 70), Options{Workers: 4})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
}

func TestDecompressCtxPreCancelled(t *testing.T) {
	enc, err := Compress(shardTestData(1_000, 71), Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := DecompressCtx(ctx, enc, Options{Workers: 2}); !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
}

func TestRunShardsFirstErrorCancelsRest(t *testing.T) {
	// The first shard failure must cancel the derived context so queued
	// shards are drained without running.
	boom := errors.New("shard fault")
	var ran atomic.Int64
	const n = 64
	err := runShards(context.Background(), Options{Workers: 2}, "compress", trace.Span{}, n,
		func(ctx context.Context, codec *core.Codec, i int) error {
			ran.Add(1)
			if i == 0 {
				return boom
			}
			// Later shards park until cancellation reaches them, so the feed
			// loop cannot race ahead of the failure.
			<-ctx.Done()
			return ctx.Err()
		},
		func(i int) int64 { return 1 })
	var se *ShardError
	if !errors.As(err, &se) || se.Shard != 0 || !errors.Is(err, boom) {
		t.Fatalf("got %v, want ShardError{Shard: 0} wrapping the fault", err)
	}
	if got := ran.Load(); got >= n {
		t.Fatalf("all %d shards ran despite early failure", got)
	}
}

func TestRunShardsPanicBecomesShardError(t *testing.T) {
	err := runShards(context.Background(), Options{Workers: 4}, "compress", trace.Span{}, 8,
		func(ctx context.Context, codec *core.Codec, i int) error {
			if i == 3 {
				panic("worker fault")
			}
			return nil
		},
		func(i int) int64 { return 1 })
	var se *ShardError
	if !errors.As(err, &se) || se.Shard != 3 {
		t.Fatalf("got %v, want ShardError for shard 3", err)
	}
	var pe *core.PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("shard error %v does not wrap *core.PanicError", err)
	}
	if pe.Value != "worker fault" || len(pe.Stack) == 0 {
		t.Fatalf("panic payload not preserved: %+v", pe)
	}
}

func TestRunShardsNoGoroutineLeak(t *testing.T) {
	// Every worker goroutine must exit before runShards returns, on success,
	// error, and external cancellation alike.
	before := runtime.NumGoroutine()
	for round := 0; round < 20; round++ {
		compressLeakRounds(t)
		// Success path.
		if err := runShards(context.Background(), Options{Workers: 8}, "compress", trace.Span{}, 32,
			func(ctx context.Context, codec *core.Codec, i int) error { return nil },
			func(i int) int64 { return 1 }); err != nil {
			t.Fatal(err)
		}
		// Error path.
		runShards(context.Background(), Options{Workers: 8}, "compress", trace.Span{}, 32,
			func(ctx context.Context, codec *core.Codec, i int) error {
				if i%5 == 0 {
					return errors.New("fault")
				}
				return nil
			},
			func(i int) int64 { return 1 })
		// External cancellation mid-flight.
		ctx, cancel := context.WithCancel(context.Background())
		go cancel()
		runShards(ctx, Options{Workers: 8}, "compress", trace.Span{}, 32,
			func(ctx context.Context, codec *core.Codec, i int) error { return nil },
			func(i int) int64 { return 1 })
		cancel()
	}
	// NumGoroutine counts runtime helpers too, so allow slack while still
	// catching a real leak (which would grow by workers × rounds).
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		after := runtime.NumGoroutine()
		if after <= before+4 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines grew %d -> %d", before, after)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestGovernedRoundTripByteIdentical(t *testing.T) {
	// A tight admitter (one admission at a time, budget below one shard) must
	// serialize the workers without changing the output bytes.
	data := shardTestData(50_000, 72)
	opts := Options{Workers: 4, ShardBytes: 64 * 1024, Core: core.Options{ChunkBytes: 32 * 1024}}
	want, err := Compress(data, opts)
	if err != nil {
		t.Fatal(err)
	}
	gopts := opts
	gopts.Admitter = fairshare.New(fairshare.Config{MemBudget: 16 * 1024, MaxConcurrent: 1})
	got, err := CompressCtx(context.Background(), data, gopts)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("admitted compression changed output bytes")
	}
	if n, b := gopts.Admitter.InFlight(); n != 0 || b != 0 {
		t.Fatalf("admitter capacity leaked: %d admissions, %d bytes", n, b)
	}
	dec, err := DecompressCtx(context.Background(), got, gopts)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dec, data) {
		t.Fatal("admitted round trip mismatched source")
	}
	if n, b := gopts.Admitter.InFlight(); n != 0 || b != 0 {
		t.Fatalf("admitter capacity leaked after decompress: %d, %d", n, b)
	}
}

func TestGovernorReleasedOnShardError(t *testing.T) {
	adm := fairshare.New(fairshare.Config{MemBudget: 1 << 20, MaxConcurrent: 2})
	err := runShards(context.Background(), Options{Workers: 4, Admitter: adm}, "compress", trace.Span{}, 16,
		func(ctx context.Context, codec *core.Codec, i int) error {
			if i == 2 {
				return errors.New("fault")
			}
			if i == 5 {
				panic("fault")
			}
			return nil
		},
		func(i int) int64 { return 4096 })
	if err == nil {
		t.Fatal("want an error")
	}
	if n, b := adm.InFlight(); n != 0 || b != 0 {
		t.Fatalf("admitter capacity leaked on faulting shards: %d, %d", n, b)
	}
}
