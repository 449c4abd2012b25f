package lzo

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"

	"primacy/internal/datagen"
)

func roundTrip(t *testing.T, in []byte) []byte {
	t.Helper()
	enc := AppendCompress(nil, in)
	dec, err := AppendDecompress(nil, enc)
	if err != nil {
		t.Fatalf("AppendDecompress: %v", err)
	}
	if !bytes.Equal(dec, in) {
		t.Fatalf("round trip mismatch: %d in, %d out", len(in), len(dec))
	}
	return enc
}

func TestEmpty(t *testing.T) {
	roundTrip(t, nil)
}

func TestTiny(t *testing.T) {
	roundTrip(t, []byte{1})
	roundTrip(t, []byte{1, 2})
	roundTrip(t, []byte{1, 2, 3})
}

func TestRepeatedByteUsesOverlappingMatch(t *testing.T) {
	in := bytes.Repeat([]byte{9}, 10_000)
	enc := roundTrip(t, in)
	if len(enc) > 200 {
		t.Fatalf("run of one byte should compress massively: %d -> %d", len(in), len(enc))
	}
}

func TestTextCompresses(t *testing.T) {
	in := bytes.Repeat([]byte("the rain in spain falls mainly on the plain. "), 400)
	enc := roundTrip(t, in)
	if float64(len(in))/float64(len(enc)) < 5 {
		t.Fatalf("repetitive text ratio too low: %d -> %d", len(in), len(enc))
	}
}

func TestRandomDataBounded(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	in := make([]byte, 100_000)
	rng.Read(in)
	enc := roundTrip(t, in)
	// Worst case: 1 control byte per 32 literals + header.
	if len(enc) > len(in)+len(in)/32+16 {
		t.Fatalf("expansion bound violated: %d -> %d", len(in), len(enc))
	}
}

// literalOnlyLen is the size of the stream that carries n bytes as literal
// runs and nothing else.
func literalOnlyLen(n int) int {
	return len(magic) + 8 + n + (n+maxLitRun-1)/maxLitRun
}

// The early-out is a verdict on the sample and on nothing else: noise from
// one stride up is emitted as literal runs, anything the sample shrinks is
// the unsampled match finder's stream byte for byte, and inputs under one
// stride are never sampled. Every output round-trips.
func TestSampledEarlyOut(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	noise := make([]byte, 2*sampleStride+sampleStride/3)
	rng.Read(noise)
	text := bytes.Repeat([]byte("the rain in spain falls mainly on the plain. "), len(noise)/45+1)[:len(noise)]
	// One compressible window among noisy ones is enough to keep the match
	// finder: its trial shrinks by more than the others grow.
	mixed := append([]byte(nil), noise...)
	copy(mixed[sampleStride:], text[:sampleStride])

	for _, tc := range []struct {
		name     string
		in       []byte
		literals bool
	}{
		{"noise", noise, true},
		{"noise, exactly one stride", noise[:sampleStride], true},
		{"noise, one byte under a stride", noise[:sampleStride-1], false},
		{"text", text, false},
		{"noise with one text stride", mixed, false},
	} {
		enc := roundTrip(t, tc.in)
		if tc.literals {
			if len(enc) != literalOnlyLen(len(tc.in)) {
				t.Errorf("%s: %d bytes, want the literal-only %d", tc.name, len(enc), literalOnlyLen(len(tc.in)))
			}
			continue
		}
		if !bytes.Equal(enc, AppendCompressUnsampled(nil, tc.in)) {
			t.Errorf("%s: differs from the unsampled match finder's stream", tc.name)
		}
	}
}

// Both sides of the verdict run without allocating once dst is sized: the
// trial's output lives on the stack.
func TestSampledEarlyOutZeroAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	noise := make([]byte, sampleStride+100)
	rng.Read(noise)
	for name, in := range map[string][]byte{"noise": noise, "zeros": make([]byte, sampleStride+100)} {
		dst := make([]byte, 0, literalOnlyLen(len(in)))
		if allocs := testing.AllocsPerRun(10, func() { AppendCompress(dst, in) }); allocs != 0 {
			t.Errorf("%s: AppendCompress allocates %.0f times per call, want 0", name, allocs)
		}
	}
}

func TestLongMatches(t *testing.T) {
	// Match longer than maxMatch forces split tokens.
	in := append(bytes.Repeat([]byte("abcd"), 200), bytes.Repeat([]byte("abcd"), 200)...)
	roundTrip(t, in)
}

func TestFarBackReference(t *testing.T) {
	// Repetition beyond the 8 KB window cannot match; must still round-trip.
	rng := rand.New(rand.NewSource(3))
	block := make([]byte, 10_000)
	rng.Read(block)
	in := append(append([]byte{}, block...), block...)
	roundTrip(t, in)
}

func TestAllOffsets(t *testing.T) {
	// Construct matches at several specific offsets including the max.
	for _, off := range []int{1, 2, 31, 32, 255, 256, 4095, 8192} {
		prefix := make([]byte, off)
		for i := range prefix {
			prefix[i] = byte(i * 7)
		}
		reps := 1 + (minMatch+2+off-1)/off // ensure >= minMatch+2 bytes repeat
		in := bytes.Repeat(prefix, 1+reps)
		roundTrip(t, in)
	}
}

func TestDecompressCorrupt(t *testing.T) {
	valid := AppendCompress(nil, []byte("hello hello hello hello"))
	cases := map[string][]byte{
		"empty":         {},
		"bad magic":     append([]byte("ZZZZ"), valid[4:]...),
		"truncated":     valid[:len(valid)-1],
		"short header":  valid[:6],
		"size mismatch": append(append([]byte{}, valid[:12]...), 0x00, 'x'),
	}
	for name, data := range cases {
		if _, err := AppendDecompress(nil, data); err == nil {
			t.Errorf("%s: corrupt input accepted", name)
		}
	}
}

func TestDecompressBadOffset(t *testing.T) {
	// Hand-craft: header for 3 bytes, then a match token referencing
	// history that does not exist.
	data := append([]byte(magic), 3, 0, 0, 0, 0, 0, 0, 0)
	data = append(data, 0x20|0x1f, 0xFF) // match len 3, offset 8192 with no history
	if _, err := AppendDecompress(nil, data); err == nil {
		t.Fatal("offset beyond history accepted")
	}
}

// Property: arbitrary byte slices round-trip.
func TestQuickRoundTrip(t *testing.T) {
	f := func(in []byte) bool {
		dec, err := AppendDecompress(nil, AppendCompress(nil, in))
		return err == nil && bytes.Equal(dec, in)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: structured (repetitive) inputs never expand beyond the literal
// worst case.
func TestQuickExpansionBound(t *testing.T) {
	f := func(in []byte) bool {
		enc := AppendCompress(nil, in)
		return len(enc) <= len(in)+len(in)/32+1+12+1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: compressing a doubled short string is smaller than compressing
// the two halves independently (matches actually fire).
func TestQuickMatchesFire(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		block := make([]byte, 512)
		rng.Read(block)
		doubled := append(append([]byte{}, block...), block...)
		return len(AppendCompress(nil, doubled)) < 2*len(AppendCompress(nil, block))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// benchInputs are the benchmark cases: "nibbles" is 1 MiB of random
// 4-bit symbols; "hard_ids" is the ID matrix of one 3 MiB chunk of each hard
// dataset, the stream the solver spends its time on under core.
func benchInputs(b *testing.B) map[string][][]byte {
	rng := rand.New(rand.NewSource(2))
	nibbles := make([]byte, 1<<20)
	for i := range nibbles {
		nibbles[i] = byte(rng.Intn(16))
	}
	var ids [][]byte
	for _, name := range hardDatasets {
		spec, ok := datagen.ByName(name)
		if !ok {
			b.Fatalf("no dataset %q", name)
		}
		id, _, _ := chunkInputs(b, spec, 384<<10)
		ids = append(ids, id)
	}
	return map[string][][]byte{"nibbles": {nibbles}, "hard_ids": ids}
}

// sink keeps the benchmarked calls' results alive.
var sink []byte

func totalLen(ins [][]byte) (n int) {
	for _, in := range ins {
		n += len(in)
	}
	return n
}

// BenchmarkCompress compresses each input into a reused, pre-sized
// destination, as core does.
func BenchmarkCompress(b *testing.B) {
	for name, ins := range benchInputs(b) {
		b.Run(name, func(b *testing.B) {
			dst := make([]byte, 0, literalOnlyLen(totalLen(ins)))
			b.SetBytes(int64(totalLen(ins)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, in := range ins {
					sink = AppendCompress(dst, in)
				}
			}
		})
	}
}

// BenchmarkDecompress decodes each input into a reused destination of the
// output's size, as core does.
func BenchmarkDecompress(b *testing.B) {
	for name, ins := range benchInputs(b) {
		b.Run(name, func(b *testing.B) {
			encs := make([][]byte, len(ins))
			for i, in := range ins {
				encs[i] = AppendCompress(nil, in)
			}
			dst := make([]byte, 0, totalLen(ins))
			b.SetBytes(int64(totalLen(ins)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, enc := range encs {
					var err error
					if sink, err = AppendDecompress(dst, enc); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}
