package pipeline

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"testing"

	"primacy/internal/checksum"
	"primacy/internal/core"
	"primacy/internal/core/hostile"
	"primacy/internal/datagen"
	"primacy/internal/fairshare"
	"primacy/internal/precond"
	"primacy/internal/solver"
	"primacy/internal/testenv"
)

// frameShards assembles a parallel container around ready-made core
// containers: PRP2 with a correct CRC32C per shard, or PRP1 with none.
func frameShards(v2 bool, shards ...[]byte) []byte {
	magic := magicV1
	if v2 {
		magic = magicV2
	}
	out := binary.LittleEndian.AppendUint32([]byte(magic), uint32(len(shards)))
	for _, s := range shards {
		out = binary.LittleEndian.AppendUint32(out, uint32(len(s)))
		if v2 {
			out = checksum.Append(out, s)
		}
		out = append(out, s...)
	}
	return out
}

// shardOracle is what a parallel container must decode to: the concatenation
// of core.Decompress over its shards, or an error if any shard has one.
func shardOracle(shards ...[]byte) ([]byte, error) {
	var out []byte
	for i, s := range shards {
		dec, err := core.Decompress(s)
		if err != nil {
			return nil, fmt.Errorf("shard %d: %w", i, err)
		}
		out = append(out, dec...)
	}
	return out, nil
}

// windowCase is a container built around one shard that lies about its
// decoded size, and what the decode must return (nil: ErrCorrupt).
type windowCase struct {
	data []byte
	want []byte
}

// hostileWindows builds three-shard containers whose middle shard's header,
// re-checksummed, claims a size its records do not decode to; the shards
// either side are honest, so a write outside the middle window would show in
// their bytes.
func hostileWindows(tb testing.TB) map[string]windowCase {
	tb.Helper()
	raw := testData(3 * 512)
	var shards [][]byte
	for off := 0; off < len(raw); off += 512 * 8 {
		enc, err := core.Compress(raw[off:off+512*8], core.Options{Solver: "lzo", ChunkBytes: 128 * 8})
		if err != nil {
			tb.Fatal(err)
		}
		shards = append(shards, enc)
	}
	out := map[string]windowCase{}
	for name, total := range map[string]uint64{
		"claims 1<<40":               1 << 40,
		"claims 8 more":              512*8 + 8,
		"claims 8 fewer":             512*8 - 8,
		"claims 0 and holds records": 0,
	} {
		lie, err := hostile.WithTotal(shards[1], total)
		if err != nil {
			tb.Fatal(err)
		}
		var want []byte
		if total == 0 {
			// core reads a zero total as an empty container and never looks
			// at the records behind it; so must the pipeline.
			want = append(append([]byte(nil), raw[:512*8]...), raw[2*512*8:]...)
		}
		for _, v2 := range []bool{true, false} {
			v := "PRP1 "
			if v2 {
				v = "PRP2 "
			}
			out[v+name] = windowCase{frameShards(v2, shards[0], lie, shards[2]), want}
		}
	}
	out["PRP1 honest"] = windowCase{frameShards(false, shards...), raw}
	return out
}

// TestWindowedDecodeHostileTotals: a shard whose header total is a lie — far
// beyond the pre-size cap, 8 bytes either side of the truth, zero in front of
// real records — in a PRP2 container whose checksums all hold, or a PRP1
// container that has none: ErrCorrupt or exactly what core makes of each
// shard, at every worker count, and the failing call allocates no more than
// maxExpansion times the container (plus codec scratch).
func TestWindowedDecodeHostileTotals(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for name, c := range hostileWindows(t) {
		for _, workers := range []int{1, 2, 7} {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			got, err := Decompress(c.data, Options{Workers: workers})
			runtime.ReadMemStats(&after)
			if c.want == nil {
				if !errors.Is(err, core.ErrCorrupt) {
					t.Errorf("%s, %d workers: %d bytes, %v; want core.ErrCorrupt", name, workers, len(got), err)
				}
			} else if err != nil || !bytes.Equal(got, c.want) {
				t.Errorf("%s, %d workers: %d bytes, %v; want the honest shards' %d bytes", name, workers, len(got), err, len(c.want))
			}
			bound := uint64(maxExpansion*len(c.data)) + 2<<20
			if alloc := after.TotalAlloc - before.TotalAlloc; !testenv.RaceEnabled && alloc > bound {
				t.Errorf("%s, %d workers: the call allocated %d bytes, bound %d", name, workers, alloc, bound)
			}
		}
	}
}

// TestDecodePastTheCapStillCorrect: a claim beyond maxExpansion times the
// shard is not an error, only unproven — from that shard on the decode
// appends. With the cap lowered so that real shards cross it (all of them,
// then only the compressible tail), the output is still byte-exact.
func TestDecodePastTheCapStillCorrect(t *testing.T) {
	defer func(old int) { maxExpansion = old }(maxExpansion)
	// Five noisy shards (ratio near 1) and two of zeros (ratio in the
	// hundreds): a cap of 8 windows the first five only.
	raw := shardTestData(7*512, 3)
	clear(raw[5*512*8:])
	opts := Options{ShardBytes: 512 * 8, Core: core.Options{ChunkBytes: 256 * 8}}
	enc, err := Compress(raw, opts)
	if err != nil {
		t.Fatal(err)
	}
	shards, err := walkShards(enc)
	if err != nil || len(shards) != 7 {
		t.Fatalf("walkShards: %d shards, %v", len(shards), err)
	}
	for _, limit := range []int{0, 8, core.MaxExpansion} {
		maxExpansion = limit
		windowed := 0
		for _, sh := range shards {
			if 512*8 <= limit*len(sh.data) {
				windowed++
			}
		}
		if want := map[int]int{0: 0, 8: 5, core.MaxExpansion: 7}[limit]; windowed != want {
			t.Fatalf("cap %d windows %d shards, the test wants %d", limit, windowed, want)
		}
		for _, workers := range []int{1, 2, 7} {
			opts.Workers = workers
			dec, err := Decompress(enc, opts)
			if err != nil || !bytes.Equal(dec, raw) {
				t.Fatalf("cap %d, %d workers: %d bytes, %v; want the input back", limit, workers, len(dec), err)
			}
		}
	}
}

// everyThird is a solver that fails every third Compress call, so a
// container written with it mixes degraded raw records with ordinary ones.
type everyThird struct {
	solver.Compressor
	name  string
	calls int
}

func (s *everyThird) Name() string { return s.name }

func (s *everyThird) Compress(src []byte) ([]byte, error) {
	if s.calls++; s.calls%3 == 0 {
		return nil, errors.New("injected")
	}
	return s.Compressor.Compress(src)
}

// TestDecompressMatchesCoreShardByShard is the differential test of the
// windowed decode: over solver × precision × {chain, a-posteriori selection,
// predict-xor on every chunk (the non-chain inverse)} × {healthy, some chunks
// degraded to raw records} × shard shapes × worker counts,
// pipeline.DecompressCtx returns the concatenation of core.Decompress over
// the shards.
func TestDecompressMatchesCoreShardByShard(t *testing.T) {
	const shardElems, chunkElems = 512, 128
	spec, _ := datagen.ByName("flash_velx")
	values := spec.Generate(7 * shardElems)
	shapes := map[string]int{"empty": 0, "one shard": shardElems, "seven shards": 7 * shardElems, "last shard short": 6*shardElems + 100}
	preconds := map[string]core.PrecondOptions{
		"chain":        {},
		"a posteriori": {Selection: precond.APosteriori},
		"predict-xor":  {Transform: precond.IDPredictXOR},
	}
	for _, inner := range []string{"zlib", "lzo"} {
		sv, err := solver.Get(inner)
		if err != nil {
			t.Fatal(err)
		}
		flaky := &everyThird{Compressor: sv, name: "every-third-" + inner}
		solver.Register(flaky)
		for _, solverName := range []string{inner, flaky.name} {
			for _, prec := range []core.Precision{core.Float64, core.Float32} {
				lay, _ := prec.Layout()
				raw := make([]byte, 0, len(values)*lay.ElemBytes)
				for _, v := range values {
					if prec == core.Float32 {
						raw = binary.BigEndian.AppendUint32(raw, math.Float32bits(float32(v)))
					} else {
						raw = binary.BigEndian.AppendUint64(raw, math.Float64bits(v))
					}
				}
				for pname, pc := range preconds {
					for sname, elems := range shapes {
						name := fmt.Sprintf("%s/%d-byte/%s/%s", solverName, lay.ElemBytes, pname, sname)
						copts := core.Options{Solver: solverName, Precision: prec, ChunkBytes: chunkElems * lay.ElemBytes, Precond: pc}
						var shards [][]byte
						degraded := 0
						in := raw[:elems*lay.ElemBytes]
						for off := 0; off < len(in); off += shardElems * lay.ElemBytes {
							enc, st, err := new(core.Codec).AppendCompressCtx(context.Background(), nil, in[off:min(len(in), off+shardElems*lay.ElemBytes)], copts)
							if err != nil {
								t.Fatalf("%s: %v", name, err)
							}
							degraded += st.DegradedChunks
							shards = append(shards, enc)
						}
						if solverName == flaky.name && elems > 0 && degraded == 0 {
							t.Fatalf("%s: no chunk was degraded", name)
						}
						want, err := shardOracle(shards...)
						if err != nil || !bytes.Equal(want, in) {
							t.Fatalf("%s: the oracle itself: %v", name, err)
						}
						data := frameShards(true, shards...)
						for _, workers := range []int{1, 2, 7} {
							got, err := DecompressCtx(context.Background(), data, Options{Workers: workers})
							if err != nil || !bytes.Equal(got, want) {
								t.Fatalf("%s, %d workers: %d bytes, %v; want core's %d", name, workers, len(got), err, len(want))
							}
						}
					}
				}
			}
		}
	}
}

// TestGovernorChargesDecodedSize: a shard is admitted at what it pins while
// it decodes — its decoded size — not at its compressed length. With a budget
// whose free part lies between the two, the shard has to wait; charged by its
// compressed length it would run straight through.
func TestGovernorChargesDecodedSize(t *testing.T) {
	raw := make([]byte, 32<<10) // zeros: a few hundred bytes compressed
	opts := Options{Workers: 1, Admitter: fairshare.New(fairshare.Config{MemBudget: 64 << 10})}
	enc, err := Compress(raw, opts)
	if err != nil {
		t.Fatal(err)
	}
	const free = 4 << 10
	if len(enc) >= free || len(raw) <= free {
		t.Fatalf("container %d bytes, output %d: the free budget %d must lie between", len(enc), len(raw), free)
	}
	ctx := context.Background()
	if err := opts.Admitter.Acquire(ctx, "", 64<<10-free); err != nil {
		t.Fatal(err)
	}
	type result struct {
		out []byte
		err error
	}
	done := make(chan result, 1)
	go func() {
		out, err := DecompressCtx(ctx, enc, opts)
		done <- result{out, err}
	}()
	for queued, _ := opts.Admitter.Queued(""); queued == 0; queued, _ = opts.Admitter.Queued("") {
		select {
		case <-done:
			t.Fatal("the shard was admitted into a budget smaller than its decoded size")
		default:
			runtime.Gosched()
		}
	}
	opts.Admitter.Release(64<<10 - free)
	if r := <-done; r.err != nil || !bytes.Equal(r.out, raw) {
		t.Fatalf("decode after the budget was freed: %d bytes, %v", len(r.out), r.err)
	}
	if n, b := opts.Admitter.InFlight(); n != 0 || b != 0 {
		t.Fatalf("admitter capacity leaked: %d admissions, %d bytes", n, b)
	}
}

// TestDecompressSteadyStateAllocations is the pipeline's allocation guard: a
// DecompressCtx of a six-shard container on warmed pooled codecs allocates
// its output, once, plus bookkeeping that does not grow with the shards'
// size — at most 64 KiB and 40 objects. Smallest of three collection-free
// windows, as in core's guard.
func TestDecompressSteadyStateAllocations(t *testing.T) {
	if testenv.RaceEnabled {
		t.Skip("the race detector's runtime allocates on its own")
	}
	raw := shardTestData(6*32<<10, 9)
	opts := Options{Workers: 2, Core: core.Options{Solver: "lzo", ChunkBytes: 256 << 10}}
	enc, err := Compress(raw, opts)
	if err != nil {
		t.Fatal(err)
	}
	if shards, err := walkShards(enc); err != nil || len(shards) != 6 {
		t.Fatalf("walkShards: %d shards, %v; want 6", len(shards), err)
	}
	decode := func() {
		if out, err := DecompressCtx(context.Background(), enc, opts); err != nil || len(out) != len(raw) {
			t.Fatal(err)
		}
	}
	const runs = 20
	for i := 0; i < 3; i++ {
		decode()
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	mallocs, nbytes := uint64(math.MaxUint64), uint64(math.MaxUint64)
	for w := 0; w < 3; w++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			decode()
		}
		runtime.ReadMemStats(&after)
		mallocs = min(mallocs, (after.Mallocs-before.Mallocs)/runs)
		nbytes = min(nbytes, (after.TotalAlloc-before.TotalAlloc)/runs)
	}
	t.Logf("%d allocs/op, %d B/op for %d bytes of output", mallocs, nbytes, len(raw))
	if mallocs > 40 || nbytes > uint64(len(raw))+64<<10 {
		t.Errorf("%d allocs/op, %d B/op: want at most 40 and output + 64 KiB = %d", mallocs, nbytes, len(raw)+64<<10)
	}
}
