package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"sync/atomic"
	"testing"

	"primacy/internal/bytesplit"
	"primacy/internal/core/hostile"
	"primacy/internal/datagen"
	"primacy/internal/faultinject"
	"primacy/internal/precond"
	"primacy/internal/solver"
	"primacy/internal/testenv"
)

// appendContainers are containers whose chunks leave decompressChunk by each
// of its three writers — the interleave, a non-chain inverse transform, the
// copy of a degraded raw record — in both precisions, several chunks each
// with a short last one.
func appendContainers(t *testing.T) map[string][]byte {
	t.Helper()
	out := map[string][]byte{}
	add := func(name string, data []byte, opts Options) {
		enc, err := Compress(data, opts)
		if err != nil {
			t.Fatal(err)
		}
		out[name] = enc
	}
	f64, f32 := bytesplit.Float64Layout, bytesplit.Float32Layout
	add("zlib/chain", planarData("narrow", f64, 700, 1), Options{ChunkBytes: 256 * 8})
	add("lzo/chain/float32", planarData("striped", f32, 700, 2), Options{Solver: "lzo", Precision: Float32, ChunkBytes: 256 * 4})
	xor := PrecondOptions{Transform: precond.IDPredictXOR}
	add("zlib/predict-xor", smoothFloats(700, 3), Options{ChunkBytes: 256 * 8, Precond: xor})
	add("lzo/predict-xor/float32", planarData("narrow", f32, 700, 4), Options{Solver: "lzo", Precision: Float32, ChunkBytes: 256 * 4, Precond: xor})
	add("empty", nil, Options{})
	out["degraded"] = degradedContainer(t, syntheticDoubles(700, 5), 256*8)
	return out
}

// TestAppendDecompressDestinations: whatever destination the caller brings —
// none, one with room behind data of its own, an exact window in the middle
// of someone else's bytes, one too short — the decode appends the same bytes
// Decompress returns, keeps what dst held, uses dst's array when it fits and
// touches nothing outside [len(dst), len(dst)+total).
func TestAppendDecompressDestinations(t *testing.T) {
	ctx := context.Background()
	for name, enc := range appendContainers(t) {
		want, err := Decompress(enc)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if n, err := DecodedLen(enc); err != nil || n != len(want) {
			t.Fatalf("%s: DecodedLen = %d, %v; want %d", name, n, err, len(want))
		}
		var c Codec
		const pre, post = 24, 40
		guard := bytes.Repeat([]byte{0xA5}, pre+len(want)+post)
		window := guard[pre : pre : pre+len(want)]
		got, ds, err := c.AppendDecompressCtx(ctx, window, enc)
		if err != nil || !bytes.Equal(got, want) || ds.RawBytes != len(want) {
			t.Fatalf("%s: window decode = %d bytes, %v; want %d", name, len(got), err, len(want))
		}
		if len(want) > 0 && &got[0] != &guard[pre] {
			t.Errorf("%s: a window of exactly the decoded size was not decoded in place", name)
		}
		for i, b := range guard {
			if (i < pre || i >= pre+len(want)) && b != 0xA5 {
				t.Fatalf("%s: byte %d outside the window was written", name, i)
			}
		}

		roomy := append(make([]byte, 0, 5+len(want)), "head:"...)
		got, _, err = c.AppendDecompressCtx(ctx, roomy, enc)
		if err != nil || !bytes.Equal(got, append([]byte("head:"), want...)) {
			t.Fatalf("%s: decode behind a prefix: %v", name, err)
		}
		if &got[0] != &roomy[0] {
			t.Errorf("%s: dst had room and was reallocated", name)
		}

		short := append(make([]byte, 0, 5+len(want)/3), "head:"...)
		got, _, err = c.AppendDecompressCtx(ctx, short, enc)
		if err != nil || !bytes.Equal(got, append([]byte("head:"), want...)) {
			t.Fatalf("%s: decode into a short dst: %v", name, err)
		}
	}
}

// TestAppendDecompressHeaderLies: a header total that is not what the chunk
// records decode to — 8 bytes fewer, 8 more, zero, 1<<40, each with the
// header checksum right — is ErrCorrupt (zero: an empty decode, the records
// are trailing bytes), never a byte outside the window the total sized, and
// never more allocation than MaxExpansion times the container.
func TestAppendDecompressHeaderLies(t *testing.T) {
	if testenv.RaceEnabled {
		t.Skip("the race detector's runtime allocates on its own")
	}
	ctx := context.Background()
	// No collection between the two MemStats reads: TotalAlloc is then the
	// call's own.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for name, enc := range appendContainers(t) {
		if name == "empty" {
			continue
		}
		real, err := DecodedLen(enc)
		if err != nil {
			t.Fatal(err)
		}
		for _, total := range []uint64{uint64(real - 8), uint64(real + 8), 0, 1 << 40} {
			lie, err := hostile.WithTotal(enc, total)
			if err != nil {
				t.Fatal(err)
			}
			if n, err := DecodedLen(lie); err != nil || uint64(n) != total {
				t.Fatalf("%s: DecodedLen of the lie = %d, %v; want %d", name, n, err, total)
			}
			// The window a caller sizes from the header, between bytes that
			// belong to its neighbours.
			size := int(min(total, uint64(real+64)))
			guard := bytes.Repeat([]byte{0xA5}, 16+size+16)
			var c Codec
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			got, _, err := c.AppendDecompressCtx(ctx, guard[16:16:16+size], lie)
			runtime.ReadMemStats(&after)
			if total == 0 {
				if err != nil || len(got) != 0 {
					t.Errorf("%s: total 0: %d bytes, %v; want an empty decode", name, len(got), err)
				}
			} else if !errors.Is(err, ErrCorrupt) {
				t.Errorf("%s: total %d (really %d): %v; want ErrCorrupt", name, total, real, err)
			}
			for i, b := range guard[:16] {
				if b != 0xA5 || guard[16+size+i] != 0xA5 {
					t.Fatalf("%s: total %d: a byte outside the window was written", name, total)
				}
			}
			// Scratch for one chunk geometry plus the bounded pre-size.
			bound := uint64(MaxExpansion*len(lie)) + 1<<20
			if alloc := after.TotalAlloc - before.TotalAlloc; alloc > bound {
				t.Errorf("%s: total %d: the failing call allocated %d bytes, bound %d", name, total, alloc, bound)
			}
		}
	}
}

// TestDecodedLenChecksHeader: the size is read from a header whose checksum
// holds, or not at all.
func TestDecodedLenChecksHeader(t *testing.T) {
	enc, err := compressFloat64s(syntheticDoubles(100, 7), Options{})
	if err != nil {
		t.Fatal(err)
	}
	bad := append([]byte(nil), enc...)
	bad[12] ^= 1 // inside the header, before its CRC
	if _, err := DecodedLen(bad); !errors.Is(err, ErrCorrupt) || !errors.Is(err, ErrChecksum) {
		t.Fatalf("DecodedLen of a damaged header = %v, want ErrCorrupt and ErrChecksum", err)
	}
	if _, err := DecodedLen(enc[:6]); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("DecodedLen of a truncated header = %v, want ErrCorrupt", err)
	}
	if lie, _ := hostile.WithTotal(enc, math.MaxUint64); lie != nil {
		if _, err := DecodedLen(lie); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("DecodedLen of an absurd total = %v, want ErrCorrupt", err)
		}
	}
}

// TestAppendCompressDestinations: whatever destination the caller brings —
// none, one holding data of its own with capacity one byte short of the
// container, exactly it, or ample — the encode appends the bytes Compress
// returns, keeps what dst held, uses dst's array when there is room to spare,
// writes nothing behind the length it returns, and reports the container's
// size, not dst's. All 20 datasets, both solvers, the chain and a-posteriori
// selection, three chunks with a short last one.
func TestAppendCompressDestinations(t *testing.T) {
	ctx := context.Background()
	const prefix, fence = "head:", 64
	for _, spec := range datagen.Specs() {
		data := spec.GenerateBytes(5_000)
		for _, opts := range []Options{
			{Solver: "zlib"}, {Solver: "lzo"},
			{Solver: "zlib", Precond: PrecondOptions{Selection: precond.APosteriori}},
			{Solver: "lzo", Precond: PrecondOptions{Selection: precond.APosteriori}},
		} {
			opts.ChunkBytes = 2048 * 8
			name := fmt.Sprintf("%s/%s/%v", spec.Name, opts.Solver, opts.Precond.Selection)
			var c Codec
			want, err := c.Compress(data, opts)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if got, st, err := c.AppendCompressCtx(ctx, nil, data, opts); err != nil || !bytes.Equal(got, want) || st.CompressedBytes != len(want) {
				t.Fatalf("%s: nil dst: %d bytes, stats %d, %v; want %d", name, len(got), st.CompressedBytes, err, len(want))
			}
			for _, room := range []int{len(want) - 1, len(want), len(want) + 4096} {
				guard := bytes.Repeat([]byte{0xA5}, len(prefix)+room+fence)
				dst := append(guard[:0:len(prefix)+room], prefix...)
				got, st, err := c.AppendCompressCtx(ctx, dst, data, opts)
				if err != nil || !bytes.Equal(got, append([]byte(prefix), want...)) {
					t.Fatalf("%s: room %+d: %v, or not Compress's bytes behind the prefix", name, room-len(want), err)
				}
				if st.CompressedBytes != len(want) {
					t.Errorf("%s: room %+d: CompressedBytes = %d, want the container's %d", name, room-len(want), st.CompressedBytes, len(want))
				}
				if string(guard[:len(prefix)]) != prefix {
					t.Fatalf("%s: room %+d: dst's own bytes were written", name, room-len(want))
				}
				if inPlace := &got[0] == &guard[0]; room > len(want) && !inPlace {
					t.Errorf("%s: dst had room to spare and was reallocated", name)
				} else if room < len(want) && inPlace {
					t.Fatalf("%s: a container of %d bytes in room for %d", name, len(want), room)
				} else if inPlace {
					guard = guard[len(got):]
				} else {
					// Grown: whatever was assembled in dst before stays
					// inside its capacity.
					guard = guard[len(prefix)+room:]
				}
				if !bytes.Equal(guard, bytes.Repeat([]byte{0xA5}, len(guard))) {
					t.Fatalf("%s: room %+d: bytes behind the returned length were written", name, room-len(want))
				}
			}
		}
	}
}

// nthCallFaults is zlib that returns an error from its fault'th CompressTo
// call, counted from 1, and panics there when it is negative. Calls without
// input (the cached empty stream of the no-waste fallback) do not count. A
// chunk's two calls run at once, so the count is atomic; fault is set only
// between compressions.
type nthCallFaults struct {
	solver.Zlib
	calls atomic.Int64
	fault int64
}

func (*nthCallFaults) Name() string { return "zlib-nth-call-faults" }

func (z *nthCallFaults) CompressTo(dst, src []byte) ([]byte, error) {
	if len(src) == 0 {
		return z.Zlib.CompressTo(dst, src)
	}
	switch z.calls.Add(1) {
	case z.fault:
		return nil, faultinject.ErrInjected
	case -z.fault:
		panic("injected solver panic")
	}
	return z.Zlib.CompressTo(dst, src)
}

// TestAppendCompressDegradedChunkInPlace: a solver that faults — error or
// panic, on either of a chunk's two solver calls, which run at once — while
// the first, a middle or the last chunk is compressed leaves the container the
// format defines for it: the healthy run's bytes with that chunk's record
// replaced by the raw one, written out longhand by withRawRecord, behind a
// prefix that is not touched.
func TestAppendCompressDegradedChunkInPlace(t *testing.T) {
	z := &nthCallFaults{}
	solver.Register(z)
	data := bytesplit.Float64sToBytes(syntheticDoubles(5_000, 11))
	const chunkBytes, chunks = 1024 * 8, 5
	for _, pre := range []PrecondOptions{{}, {Selection: precond.APosteriori, SampleElems: 64}} {
		opts := Options{Solver: z.Name(), ChunkBytes: chunkBytes, Precond: pre}
		z.calls.Store(0)
		z.fault = 0
		healthy, err := Compress(data, opts)
		if err != nil {
			t.Fatal(err)
		}
		// Two solver calls per chunk, and as many per trial of a sample.
		perChunk := z.calls.Load() / chunks
		for _, k := range []int{0, 2, chunks - 1} {
			want := append([]byte("head:"), withRawRecord(t, healthy, data, chunkBytes, k)...)
			for _, fault := range []int64{int64(k+1)*perChunk - 1, int64(k+1) * perChunk, -int64(k+1) * perChunk} {
				z.calls.Store(0)
				z.fault = fault
				var c Codec
				got, st, err := c.AppendCompressCtx(context.Background(), []byte("head:"), data, opts)
				if err != nil || st.DegradedChunks != 1 {
					t.Fatalf("chunk %d, fault at call %d: %d degraded, %v", k, fault, st.DegradedChunks, err)
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("%v, chunk %d, fault at call %d: not the healthy container with that record raw", pre.Selection, k, fault)
				}
				if dec, err := Decompress(got[len("head:"):]); err != nil || !bytes.Equal(dec, data) {
					t.Fatalf("chunk %d: the degraded container does not round-trip: %v", k, err)
				}
			}
		}
	}
}
