package lzo

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"runtime"
	"testing"

	"primacy/internal/bytesplit"
	"primacy/internal/datagen"
	"primacy/internal/freq"
)

// hardDatasets are the six hard datasets the bench's hard_* workloads run.
var hardDatasets = []string{"gts_chkp_zeon", "gts_phi_l", "num_control", "obs_temp", "msg_lu", "num_brain"}

// chunkInputs returns what core hands its solver for one chunk of n doubles
// of spec: the freq-mapped, column-linearized ID matrix and the mantissa
// planes, both built as core builds them, and the raw doubles a vanilla
// solver sees.
func chunkInputs(tb testing.TB, spec datagen.Spec, n int) (ids, mantissa, raw []byte) {
	tb.Helper()
	raw = spec.GenerateBytes(n)
	lay := bytesplit.Float64Layout
	counts := make([]uint32, bytesplit.SequencePairs)
	pl, err := lay.AppendPlanes(nil, raw, counts)
	if err != nil {
		tb.Fatal(err)
	}
	idx, err := freq.BuildIndex(counts)
	if err != nil {
		tb.Fatal(err)
	}
	ids, err = idx.AppendEncodePlanes(nil, pl[:n], pl[n:2*n])
	if err != nil {
		tb.Fatal(err)
	}
	return ids, pl[lay.HiBytes*n:], raw
}

// shapedInput is random bytes heavy in what the ID planes are made of: runs,
// short periods, matches just inside and just outside the window, and noise.
func shapedInput(rng *rand.Rand, n int) []byte {
	out := make([]byte, 0, n+maxMatch)
	for len(out) < n {
		k := 1 + rng.Intn(maxMatch+40)
		switch rng.Intn(6) {
		case 0: // run
			out = append(out, bytes.Repeat([]byte{byte(rng.Intn(4))}, k)...)
		case 1: // short period
			p := 2 + rng.Intn(11)
			for j := 0; j < k; j++ {
				out = append(out, byte(j%p*37))
			}
		case 2: // repeat from near or far back
			if len(out) > 0 {
				from := len(out) - 1 - rng.Intn(min(len(out), maxOffset+64))
				for j := 0; j < k; j++ {
					out = append(out, out[from+j])
				}
			}
		case 3: // small alphabet
			for j := 0; j < k; j++ {
				out = append(out, byte(rng.Intn(3)))
			}
		default: // noise
			for j := 0; j < k%48; j++ {
				out = append(out, byte(rng.Intn(256)))
			}
		}
	}
	return out[:n]
}

// encoderCases is the identity corpus: the chunk inputs of all 20 datasets,
// shaped random inputs of every size class (under a sample stride, several
// strides, noise that takes the early-out) and the small edge cases.
func encoderCases(t *testing.T) map[string][]byte {
	n := 128 << 10 // a 1 MiB chunk: ID matrix one stride, mantissa three
	if testing.Short() {
		n = 40 << 10
	}
	cases := map[string][]byte{"empty": nil, "one": {7}, "three": {1, 2, 3}}
	for _, spec := range datagen.Specs() {
		ids, man, raw := chunkInputs(t, spec, n)
		cases[spec.Name+"/ids"] = ids
		cases[spec.Name+"/mantissa"] = man
		cases[spec.Name+"/raw"] = raw
	}
	rng := rand.New(rand.NewSource(34))
	for i, size := range []int{5, 64, 300, 9000, 70_000, sampleStride - 1, sampleStride, 3*sampleStride + 77} {
		cases["shaped/"+string(rune('a'+i))] = shapedInput(rng, size)
	}
	noise := make([]byte, sampleStride+1000)
	rng.Read(noise)
	cases["noise"] = noise
	return cases
}

// TestEncoderMatchesReference: every input encodes to the reference
// encoder's bytes through one pooled table, reused across inputs and across
// each input's sampling pass and compression pass, and again when the table
// has to be cleared because its base would pass 1<<31.
func TestEncoderMatchesReference(t *testing.T) {
	cases := encoderCases(t)
	table := matchTables.Get().(*matchTable)
	defer matchTables.Put(table)
	for round, next := range []uint64{0, 1<<31 - 300<<10} {
		if next > 0 {
			table.next = next
		}
		for name, src := range cases {
			want := refAppendCompress(nil, src)
			if got := appendCompress(nil, src, table); !bytes.Equal(got, want) {
				t.Fatalf("round %d, %s (%d bytes): stream differs from the reference", round, name, len(src))
			}
			if got := AppendCompress([]byte("prefix"), src); !bytes.Equal(got[6:], want) || string(got[:6]) != "prefix" {
				t.Fatalf("round %d, %s: AppendCompress differs from the reference", round, name)
			}
		}
		if table.next > 1<<31 {
			t.Fatalf("round %d: base %d passed 1<<31", round, table.next)
		}
	}
}

// sameDecode decodes src with the reference and with AppendDecompress into
// dst and reports a difference: both must fail, or both return the same
// bytes behind dst's prefix.
func sameDecode(dst, src []byte) (bool, error) {
	want, werr := refAppendDecompress(nil, src)
	prefix := append([]byte(nil), dst...)
	got, err := AppendDecompress(dst, src)
	if werr != nil || err != nil {
		if err != nil && !errors.Is(err, ErrCorrupt) {
			return false, err
		}
		return (werr == nil) == (err == nil), err
	}
	return bytes.Equal(got[:len(prefix)], prefix) && bytes.Equal(got[len(prefix):], want), nil
}

// decodeDestinations are the buffers a caller brings: none, one with a
// prefix and no room, and one with room for the whole output in place.
func decodeDestinations(scratch []byte) [][]byte {
	return [][]byte{nil, []byte("pre"), append(scratch[:0], "pre"...)}
}

func TestDecoderMatchesReference(t *testing.T) {
	scratch := make([]byte, 0, 4<<20)
	rng := rand.New(rand.NewSource(35))
	var streams [][]byte
	for _, size := range []int{0, 1, 40, 5000, 200_000, sampleStride + 3} {
		streams = append(streams, AppendCompress(nil, shapedInput(rng, size)))
	}
	ids, man, _ := chunkInputs(t, datagen.Specs()[0], 16<<10)
	streams = append(streams, AppendCompress(nil, ids), AppendCompress(nil, man))
	for i, s := range streams {
		for j, dst := range decodeDestinations(scratch) {
			if ok, err := sameDecode(dst, s); !ok {
				t.Fatalf("stream %d, destination %d: differs from the reference (%v)", i, j, err)
			}
		}
	}
}

// TestDecoderCorruptionsMatchReference flips every byte of three streams to
// every other value and decodes each result both ways.
func TestDecoderCorruptionsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(36))
	srcs := [][]byte{
		bytes.Repeat([]byte("the rain in spain "), 12),
		shapedInput(rng, 600),
		append(bytes.Repeat([]byte{0}, 700), shapedInput(rng, 90)...),
	}
	scratch := make([]byte, 0, 64<<10)
	for i, src := range srcs {
		stream := AppendCompress(nil, src)
		bad := append([]byte(nil), stream...)
		for p := range bad {
			for v := 0; v < 256; v++ {
				if byte(v) == stream[p] {
					continue
				}
				bad[p] = byte(v)
				for j, dst := range decodeDestinations(scratch) {
					if ok, err := sameDecode(dst, bad); !ok {
						t.Fatalf("stream %d, byte %d = %#02x, destination %d: differs from the reference (%v)", i, p, v, j, err)
					}
				}
			}
			bad[p] = stream[p]
		}
	}
}

// lzgStream is a header claiming claim bytes followed by body.
func lzgStream(claim uint64, body ...byte) []byte {
	return append(binary.LittleEndian.AppendUint64([]byte(magic), claim), body...)
}

// TestHostileClaimBoundsAllocation: a short stream whose header claims far
// more than its tokens write fails without allocating for the claim, through
// AppendDecompress with no destination.
func TestHostileClaimBoundsAllocation(t *testing.T) {
	// Four literals and one 264-byte offset-1 match: 268 bytes.
	body := []byte{0x03, 'a', 'b', 'c', 'd', 7 << 5, 0, 255}
	for _, claim := range []uint64{8 << 20, 64 << 20, 1 << 40} {
		src := lzgStream(claim, body...)
		bound := uint64(maxExpansion*len(src) + 1<<10)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := AppendDecompress(nil, src)
		runtime.ReadMemStats(&after)
		if !errors.Is(err, ErrCorrupt) {
			t.Errorf("claim %d: err = %v, want ErrCorrupt", claim, err)
		}
		if d := after.TotalAlloc - before.TotalAlloc; d > bound {
			t.Errorf("claim %d: allocated %d bytes for a %d-byte stream, want <= %d", claim, d, len(src), bound)
		}
	}
}

// TestOverrunFailsWhereItOccurs: a token that would write past the header's
// size fails, and never writes past it, even into the caller's spare room.
func TestOverrunFailsWhereItOccurs(t *testing.T) {
	for name, src := range map[string][]byte{
		"literal run":  lzgStream(5, 0x07, 1, 2, 3, 4, 5, 6, 7, 8),
		"match":        lzgStream(11, 0x03, 'a', 'b', 'c', 'd', 6<<5, 0),
		"long match":   lzgStream(100, 0x00, 'z', 7<<5, 0, 200),
		"second token": lzgStream(8, 0x03, 'a', 'b', 'c', 'd', 2<<5, 0, 0x00, 'e'),
	} {
		claim := int(binary.LittleEndian.Uint64(src[len(magic):]))
		buf := bytes.Repeat([]byte{0xEE}, claim+64)
		for _, dst := range [][]byte{nil, buf[:0:claim], buf[:0]} {
			if _, err := AppendDecompress(dst, src); !errors.Is(err, ErrCorrupt) {
				t.Errorf("%s: err = %v, want ErrCorrupt", name, err)
			}
			if _, err := refAppendDecompress(nil, src); err == nil {
				t.Errorf("%s: the reference accepts the stream", name)
			}
			for i, b := range buf[claim:] {
				if b != 0xEE {
					t.Fatalf("%s: wrote byte %d past the claimed size", name, i)
				}
			}
		}
	}
}

// TestDecodeStaysInsideClaim: decoding in place writes nothing beyond the
// output, however much room the destination has behind it.
func TestDecodeStaysInsideClaim(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	for _, size := range []int{3, 31, 33, 264, 1000, 70_000} {
		src := shapedInput(rng, size)
		enc := AppendCompress(nil, src)
		buf := bytes.Repeat([]byte{0xEE}, size+300)
		got, err := AppendDecompress(buf[:0], enc)
		if err != nil || !bytes.Equal(got, src) {
			t.Fatalf("%d bytes: round trip failed: %v", size, err)
		}
		for i, b := range buf[size:] {
			if b != 0xEE {
				t.Fatalf("%d bytes: wrote byte %d past the output", size, i)
			}
		}
	}
}
