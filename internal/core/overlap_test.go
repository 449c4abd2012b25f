package core

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
	"testing"

	"primacy/internal/bytesplit"
	"primacy/internal/checksum"
	"primacy/internal/datagen"
	"primacy/internal/faultinject"
	"primacy/internal/isobar"
	"primacy/internal/solver"
	"primacy/internal/trace"
)

// The overlap tests hold compressChunk's two concurrent solves — the ID
// matrix on the helper goroutine, the mantissa planes on the chunk's own — to
// the sequential format: a fault on either degrades exactly its chunk, and
// neither solve sees a buffer the other writes. Run them with -race.

// inputRecorder is zlib that keeps every input it is handed, in call order.
// referenceRecord calls it sequentially: the ID matrix first, then the
// mantissa planes.
type inputRecorder struct {
	solver.Zlib
	inputs [][]byte
}

func (r *inputRecorder) CompressTo(dst, src []byte) ([]byte, error) {
	r.inputs = append(r.inputs, append([]byte(nil), src...))
	return r.Zlib.CompressTo(dst, src)
}

// inputFaults is zlib that fails on the one input equal to target: with an
// error, or with a panic when panics is set. Safe for concurrent use: it
// reads its fields only, and they are set between compressions.
type inputFaults struct {
	solver.Zlib
	name   string
	target []byte
	panics bool
}

func (f *inputFaults) Name() string { return f.name }

func (f *inputFaults) CompressTo(dst, src []byte) ([]byte, error) {
	if len(src) > 0 && bytes.Equal(src, f.target) {
		if f.panics {
			panic("injected solver panic")
		}
		return nil, faultinject.ErrInjected
	}
	return f.Zlib.CompressTo(dst, src)
}

// withRawRecord is the container healthy with record k replaced by the raw
// record of chunk k: what a solver fault on that chunk alone must leave.
func withRawRecord(t *testing.T, healthy, data []byte, chunkBytes, k int) []byte {
	t.Helper()
	h, err := parseVerifiedHeader(healthy)
	if err != nil {
		t.Fatal(err)
	}
	want, pos := append([]byte(nil), healthy[:h.end]...), h.end
	for c := 0; pos < len(healthy); c++ {
		_, _, next, err := h.frame(healthy, pos)
		if err != nil {
			t.Fatal(err)
		}
		if c == k {
			chunk := data[c*chunkBytes : min((c+1)*chunkBytes, len(data))]
			rec := binary.LittleEndian.AppendUint32(nil, uint32(len(chunk)))
			rec = append(append(rec, rawChunkFlag), chunk...)
			want = binary.LittleEndian.AppendUint32(want, uint32(len(rec)))
			want = append(checksum.Append(want, rec), rec...)
		} else {
			want = append(want, healthy[pos:next]...)
		}
		pos = next
	}
	return want
}

// testOverlapFault faults the solve of one of chunk k's two solver inputs —
// plane 0 the ID matrix, the helper's; plane 1 the mantissa planes, the
// chunk goroutine's own — by error and by panic. The chunk must reach
// compressChunkSafe as that error or a *PanicError, the scratch must take the
// next chunk as if nothing happened, and the container must be the healthy
// one with record k raw.
func testOverlapFault(t *testing.T, plane int) {
	spec, _ := datagen.ByName("msg_sppm")
	const chunkElems, chunks = 1024, 5
	data := spec.GenerateBytes(chunkElems * chunks)
	chunkBytes := chunkElems * 8
	lay := bytesplit.Float64Layout
	f := &inputFaults{name: fmt.Sprintf("zlib-overlap-fault-%d", plane)}
	solver.Register(f)
	opts := Options{Solver: f.name, ChunkBytes: chunkBytes}
	healthy, err := Compress(data, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{0, 2, chunks - 1} {
		chunk := data[k*chunkBytes : (k+1)*chunkBytes]
		rec := &inputRecorder{}
		referenceRecord(t, chunk, rec, opts, lay, nil, -1)
		if len(rec.inputs) < 2 || len(rec.inputs[plane]) == 0 {
			t.Fatalf("chunk %d: fixture gives no input %d to fault", k, plane)
		}
		want := withRawRecord(t, healthy, data, chunkBytes, k)
		for _, panics := range []bool{false, true} {
			f.target, f.panics = rec.inputs[plane], panics

			var sc scratch
			_, _, err := compressChunkSafe(nil, chunk, len(chunk), f, opts, lay, nil, &sc, nil, nil, trace.Span{})
			var pe *PanicError
			if panics && !errors.As(err, &pe) || !panics && !errors.Is(err, faultinject.ErrInjected) {
				t.Fatalf("chunk %d, input %d, panics=%v: compressChunkSafe returned %v", k, plane, panics, err)
			}
			next := data[((k+1)%chunks)*chunkBytes:][:chunkBytes]
			got, _, err := compressChunk(nil, next, len(next), f, opts, lay, nil, &sc, nil, trace.Span{}, -1)
			if ref, _, _ := referenceRecord(t, next, f, opts, lay, nil, -1); err != nil || !bytes.Equal(got[recSlot:], ref) {
				t.Fatalf("chunk %d, input %d, panics=%v: the scratch's next chunk differs from reference: %v", k, plane, panics, err)
			}

			enc, st, err := new(Codec).AppendCompressCtx(context.Background(), nil, data, opts)
			if err != nil || st.DegradedChunks != 1 {
				t.Fatalf("chunk %d, input %d, panics=%v: %d chunks degraded, %v", k, plane, panics, st.DegradedChunks, err)
			}
			if !bytes.Equal(enc, want) {
				t.Fatalf("chunk %d, input %d, panics=%v: not the healthy container with that record raw", k, plane, panics)
			}
		}
		f.target = nil
	}
}

func TestOverlapIDFaultDegradesItsChunk(t *testing.T)       { testOverlapFault(t, 0) }
func TestOverlapMantissaFaultDegradesItsChunk(t *testing.T) { testOverlapFault(t, 1) }

// TestOverlapLinearizeRowsGappedMask is the case where the two solves once
// shared a buffer: under LinearizeRows the helper reads the row-major ID
// matrix while the chunk's goroutine gathers the compressible planes of a
// mask with a gap (doubles only: two float32 mantissa planes leave no room
// for one). Through one reused scratch every record must be the reference
// stages' and every container must round-trip.
func TestOverlapLinearizeRowsGappedMask(t *testing.T) {
	lay := bytesplit.Float64Layout
	for _, name := range []string{"zlib", "lzo"} {
		sv, _ := solver.Get(name)
		opts := Options{Solver: name, Linearization: LinearizeRows, ISOBAR: isobar.Options{SampleBytes: -1}}
		var sc scratch
		gaps := 0
		for i := 0; i < 6; i++ {
			chunk := planarData("striped", lay, 2048+i, int64(i))
			rec, _, err := compressChunk(nil, chunk, len(chunk), sv, opts, lay, nil, &sc, nil, trace.Span{}, -1)
			if err != nil {
				t.Fatal(err)
			}
			ref, _, mask := referenceRecord(t, chunk, sv, opts, lay, nil, -1)
			if !bytes.Equal(rec[recSlot:], ref) {
				t.Fatalf("%s, chunk %d: record differs from reference stages", name, i)
			}
			if run := mask >> uint(bits.TrailingZeros64(mask)); mask != 0 && run&(run+1) != 0 {
				gaps++
			}
		}
		if gaps == 0 {
			t.Fatalf("%s: no chunk had a mask with a gap", name)
		}
		data := planarData("striped", lay, 5000, 9)
		opts.ChunkBytes = 1024 * lay.ElemBytes
		enc, err := Compress(data, opts)
		if err != nil {
			t.Fatal(err)
		}
		if dec, err := Decompress(enc); err != nil || !bytes.Equal(dec, data) {
			t.Fatalf("%s: container does not round-trip: %v", name, err)
		}
	}
}
