package core

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"runtime"
	"runtime/debug"
	"strings"
	"testing"

	"primacy/internal/bytesplit"
	"primacy/internal/core/hostile"
	"primacy/internal/freq"
	"primacy/internal/isobar"
	"primacy/internal/precond"
	"primacy/internal/solver"
	"primacy/internal/testenv"
	"primacy/internal/trace"
)

// referenceRecord assembles a chunk record from the exported stage functions
// in the order the paper lists them — split, histogram, index, encode,
// columnize, solver, ISOBAR analyze, partition, solver — with a fresh buffer
// per stage and no fusion. It is the slow, obviously-right form of
// compressChunk: the planar path must produce these bytes exactly.
func referenceRecord(t testing.TB, chunk []byte, sv solver.Compressor, opts Options, lay bytesplit.Layout, prev *freq.Index, tid int) ([]byte, *freq.Index, uint64) {
	t.Helper()
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("reference stage: %v", err)
		}
	}
	hi, lo, err := lay.AppendSplit(nil, nil, chunk)
	must(err)
	ids := hi
	idx := prev
	var indexBlob []byte
	if opts.Mapping == MapRanked {
		reuse := false
		if opts.IndexMode == IndexReuse && prev != nil {
			reuse, err = prev.Covers(hi)
			must(err)
		}
		if !reuse && len(hi) > 0 {
			counts, err := freq.Histogram(hi)
			must(err)
			idx, err = freq.BuildIndex(counts)
			must(err)
			indexBlob = idx.Marshal()
		}
		ids = nil
		if idx != nil {
			ids, err = idx.Encode(hi)
			must(err)
		}
	} else {
		idx = nil
	}
	if opts.Linearization == LinearizeColumns && len(ids) > 0 {
		ids, err = bytesplit.AppendColumnize(nil, ids, lay.HiBytes)
		must(err)
	}
	idsComp, err := sv.CompressTo(nil, ids)
	must(err)

	mask := uint64(1)<<uint(lay.LoBytes()) - 1
	if !opts.DisableISOBAR {
		a, err := isobar.Analyze(lo, lay.LoBytes(), opts.ISOBAR)
		must(err)
		mask = a.Mask
	}
	comp, incomp, err := isobar.AppendPartition(nil, nil, lo, lay.LoBytes(), mask)
	must(err)
	compOut, err := sv.CompressTo(nil, comp)
	must(err)
	if len(compOut) >= len(comp) && len(comp) > 0 {
		mask = 0
		comp, incomp, err = isobar.AppendPartition(nil, nil, lo, lay.LoBytes(), 0)
		must(err)
		compOut, err = sv.CompressTo(nil, comp)
		must(err)
	}

	var enc []byte
	field := func(b []byte) {
		enc = binary.LittleEndian.AppendUint32(enc, uint32(len(b)))
		enc = append(enc, b...)
	}
	enc = binary.LittleEndian.AppendUint32(enc, uint32(len(chunk)))
	enc = append(enc, boolByte(len(indexBlob) > 0))
	if tid >= 0 {
		enc = append(enc, byte(tid))
	}
	if len(indexBlob) > 0 {
		field(indexBlob)
	}
	field(idsComp)
	enc = append(enc, byte(mask))
	field(compOut)
	field(incomp)
	return enc, idx, mask
}

// referenceDecode inverts a non-raw chunk record with the exported stage
// functions: solver, decolumnize, decode, solver, unpartition, merge.
func referenceDecode(t testing.TB, rec []byte, ver int, sv solver.Compressor, lin Linearization, mapping IDMapping, lay bytesplit.Layout, prev *freq.Index) ([]byte, *freq.Index) {
	t.Helper()
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("reference decode: %v", err)
		}
	}
	pos := 0
	u32 := func() int {
		v := int(binary.LittleEndian.Uint32(rec[pos:]))
		pos += 4
		return v
	}
	field := func() []byte {
		l := u32()
		pos += l
		return rec[pos-l : pos]
	}
	n := u32() / lay.ElemBytes
	flag := rec[pos]
	pos++
	if ver >= 3 {
		pos++
	}
	idx := prev
	if flag == 1 {
		var err error
		idx, err = freq.UnmarshalIndex(field())
		must(err)
	}
	ids, err := sv.DecompressTo(nil, field())
	must(err)
	if lin == LinearizeColumns && len(ids) > 0 {
		ids, err = bytesplit.AppendDecolumnize(nil, ids, lay.HiBytes)
		must(err)
	}
	hi := ids
	if mapping == MapRanked && idx != nil {
		hi, err = idx.Decode(ids)
		must(err)
	}
	mask := uint64(rec[pos])
	pos++
	comp, err := sv.DecompressTo(nil, field())
	must(err)
	lo, err := isobar.AppendUnpartition(nil, comp, field(), lay.LoBytes(), mask, n)
	must(err)
	chunk, err := lay.AppendMerge(nil, hi, lo)
	must(err)
	return chunk, idx
}

// planarData builds n elements of one of the shapes the differential matrix
// needs: "narrow" is the hard scientific shape (few exponents, random
// mantissas); "striped" makes mantissa columns 0, 2 and 5 compressible and
// the others noise, so the ISOBAR mask is not a run of adjacent bits;
// "skewed" is noise whose first mantissa column repeats one byte just often
// enough to be classified compressible although no solver can shrink it (the
// no-waste fallback); "wide" walks every 2-byte high-order pair.
func planarData(kind string, lay bytesplit.Layout, n int, seed int64) []byte {
	rng := rand.New(rand.NewSource(seed))
	w := lay.ElemBytes
	out := make([]byte, n*w)
	rng.Read(out)
	for i := 0; i < n; i++ {
		row := out[i*w : (i+1)*w]
		switch kind {
		case "narrow":
			row[0], row[1] = 0x40, byte(rng.Intn(5))<<4|row[1]&0x0F
		case "striped":
			row[0], row[1] = 0x3F, byte(0xE0+rng.Intn(3))
			row[2] = 0x11
			if w == 8 {
				row[4] = byte(i % 4)
				row[7] = 0
			}
		case "skewed":
			row[0], row[1] = 0xC0, byte(rng.Intn(7))
			if rng.Intn(100) < 7 {
				row[2] = 0x5A
			}
		case "wide":
			row[0], row[1] = byte(i>>8), byte(i)
		}
	}
	return out
}

// TestPlanarPathMatchesReferenceStages is the differential test of the
// rewrite: over solver × precision × mapping × linearization × index mode ×
// ISOBAR on/off × data shape × length, every record of the container the
// codec writes must equal the record assembled from the exported stage
// functions, the old decode of the new record must return the chunk, and the
// new decode of the container must return the input. Lengths walk the
// kernel's tail shapes and both sides of a chunk boundary.
func TestPlanarPathMatchesReferenceStages(t *testing.T) {
	const chunkElems = 2048
	lengths := []int{0, 1, 7, 8, 9, chunkElems - 1, chunkElems, chunkElems + 1, 3*chunkElems + 5}
	solvers := []string{"zlib", "lzo"}
	if testenv.RaceEnabled || testing.Short() {
		// Nothing here is concurrent; under the race detector the full
		// matrix costs a minute, so keep one length per shape and one solver.
		lengths = []int{0, 9, chunkElems + 1}
		solvers = []string{"lzo"}
	}
	masksSeen := map[uint64]bool{}
	fallbacks := 0
	records := 0
	for _, solverName := range solvers {
		sv, err := solver.Get(solverName)
		if err != nil {
			t.Fatal(err)
		}
		for _, prec := range []Precision{Float64, Float32} {
			lay, _ := prec.Layout()
			for _, mapping := range []IDMapping{MapRanked, MapIdentity} {
				for _, lin := range []Linearization{LinearizeColumns, LinearizeRows} {
					for _, im := range []IndexMode{IndexPerChunk, IndexReuse} {
						for _, noISOBAR := range []bool{false, true} {
							for _, kind := range []string{"narrow", "striped", "skewed"} {
								for _, n := range lengths {
									opts := Options{
										Solver: solverName, ChunkBytes: chunkElems * lay.ElemBytes, Precision: prec,
										Mapping: mapping, Linearization: lin, IndexMode: im, DisableISOBAR: noISOBAR,
										// Scan every row: a 2048-element chunk is just
										// enough for the classifier to tell noise from
										// structure, if it sees all of it.
										ISOBAR: isobar.Options{SampleBytes: -1},
									}
									name := fmt.Sprintf("%s/%d/map%d/lin%d/idx%d/noisobar=%v/%s/n=%d",
										solverName, lay.ElemBytes, mapping, lin, im, noISOBAR, kind, n)
									data := planarData(kind, lay, n, int64(n)+int64(len(kind)))
									enc, err := Compress(data, opts)
									if err != nil {
										t.Fatalf("%s: compress: %v", name, err)
									}
									h, err := parseHeader(enc)
									if err != nil {
										t.Fatalf("%s: %v", name, err)
									}
									var prevRef, prevDec *freq.Index
									pos, off := h.end, 0
									for off < len(data) || (n == 0 && pos < len(enc)) {
										rec, _, next, err := h.frame(enc, pos)
										if err != nil {
											t.Fatalf("%s: frame: %v", name, err)
										}
										end := min(off+opts.ChunkBytes, len(data))
										chunk := data[off:end]
										ref, idx, mask := referenceRecord(t, chunk, sv, opts, lay, prevRef, -1)
										if !bytes.Equal(rec, ref) {
											t.Fatalf("%s: chunk at %d: planar record (%d bytes) differs from reference stages (%d bytes)",
												name, off, len(rec), len(ref))
										}
										prevRef = idx
										if !noISOBAR {
											masksSeen[mask] = true
											if mask == 0 && len(chunk) > 0 {
												fallbacks++
											}
										}
										back, idxDec := referenceDecode(t, rec, h.version, sv, lin, mapping, lay, prevDec)
										if !bytes.Equal(back, chunk) {
											t.Fatalf("%s: chunk at %d: reference decode of planar record diverges", name, off)
										}
										prevDec = idxDec
										records++
										pos, off = next, end
										if n == 0 {
											break
										}
									}
									dec, err := Decompress(enc)
									if err != nil || !bytes.Equal(dec, data) {
										t.Fatalf("%s: planar decode diverges: %v", name, err)
									}
								}
							}
						}
					}
				}
			}
		}
	}
	// The matrix is only as good as the paths it reaches: an adjacent run, a
	// mask with a gap (the gather into aux), a cleared mask (fallback or
	// nothing compressible).
	gap := false
	for m := range masksSeen {
		if run := m >> uint(bits.TrailingZeros64(m)); m != 0 && run&(run+1) != 0 {
			gap = true
		}
	}
	if !gap || !masksSeen[0] || fallbacks == 0 || len(masksSeen) < 3 {
		t.Fatalf("matrix too narrow: masks %v, gap=%v, cleared-mask chunks %d", masksSeen, gap, fallbacks)
	}
	t.Logf("%d records compared, masks seen %v", records, masksSeen)
}

// TestPlanarPathV3RecordsMatchReference repeats the differential on PRM3
// records (transform byte after the flag) through the selecting modes: the
// payload handed to the chain is the forward transform's output, so the
// reference is built from the decoded chunk re-transformed.
func TestPlanarPathV3RecordsMatchReference(t *testing.T) {
	for _, prec := range []Precision{Float64, Float32} {
		lay, _ := prec.Layout()
		data := planarData("narrow", lay, 700, 5)
		opts := Options{Solver: "lzo", ChunkBytes: 256 * lay.ElemBytes, Precision: prec,
			Precond: PrecondOptions{Selection: precond.APosteriori}}
		enc, err := Compress(data, opts)
		if err != nil {
			t.Fatal(err)
		}
		h, err := parseHeader(enc)
		if err != nil || h.version != 3 {
			t.Fatalf("want a v3 container, got %+v, %v", h, err)
		}
		sv, _ := solver.Get("lzo")
		pos := h.end
		for off := 0; off < len(data); off += opts.ChunkBytes {
			rec, _, next, err := h.frame(enc, pos)
			if err != nil {
				t.Fatal(err)
			}
			chunk := data[off:min(off+opts.ChunkBytes, len(data))]
			tid := precond.TransformID(rec[5])
			payload := chunk
			if tid != precond.IDChain {
				tf, err := precond.New(tid)
				if err != nil {
					t.Fatal(err)
				}
				if payload, err = tf.Forward(nil, chunk, lay.ElemBytes); err != nil {
					t.Fatal(err)
				}
			}
			ref, _, _ := referenceRecord(t, payload, sv, opts, lay, nil, int(tid))
			if !bytes.Equal(rec, ref) {
				t.Fatalf("precision %d chunk at %d (transform %d): planar v3 record differs from reference", prec, off, tid)
			}
			back, _ := referenceDecode(t, rec, 3, sv, opts.Linearization, opts.Mapping, lay, nil)
			if !bytes.Equal(back, payload) {
				t.Fatalf("precision %d chunk at %d: reference decode of v3 record diverges", prec, off)
			}
			pos = next
		}
		dec, err := Decompress(enc)
		if err != nil || !bytes.Equal(dec, data) {
			t.Fatalf("precision %d: v3 round trip: %v", prec, err)
		}
	}
}

// TestPlanarSpecialValues runs the values a byte-level transform is most
// likely to mishandle through both paths: signed zeros, infinities, quiet
// and signalling NaNs with payloads, denormals, a chunk with one exponent,
// and a chunk that uses all 65 536 high-order pairs (the index at its
// largest, every ID valid).
func TestPlanarSpecialValues(t *testing.T) {
	specials := []uint64{
		0, 1 << 63, // ±0
		0x7FF0000000000000, 0xFFF0000000000000, // ±Inf
		0x7FF8000000000001, 0xFFF8DEADBEEF0001, // quiet NaNs with payloads
		0x7FF0000000000001, 0xFFF4000000000BAD, // signalling NaNs
		1, 0x000FFFFFFFFFFFFF, 0x8000000000000001, // denormals
		math.Float64bits(math.MaxFloat64), math.Float64bits(math.SmallestNonzeroFloat64),
	}
	battery := make([]byte, 0, 8*len(specials)*9)
	for r := 0; r < 9; r++ {
		for _, v := range specials {
			battery = binary.BigEndian.AppendUint64(battery, v)
		}
	}
	oneExp := make([]byte, 8*1000)
	rand.New(rand.NewSource(3)).Read(oneExp)
	for i := 0; i < len(oneExp); i += 8 {
		oneExp[i], oneExp[i+1] = 0x40, 0x09
	}
	wide := planarData("wide", bytesplit.Float64Layout, 65536+17, 4)
	cases := map[string][]byte{"battery": battery, "single exponent": oneExp, "65536 pairs": wide}
	for name, data := range cases {
		for _, solverName := range []string{"zlib", "lzo"} {
			sv, _ := solver.Get(solverName)
			for _, prec := range []Precision{Float64, Float32} {
				lay, _ := prec.Layout()
				opts := Options{Solver: solverName, Precision: prec}
				enc, stats, err := new(Codec).AppendCompressCtx(context.Background(), nil, data, opts)
				if err != nil {
					t.Fatalf("%s/%s/%d: %v", name, solverName, prec, err)
				}
				if name == "65536 pairs" && prec == Float64 && stats.IndexBytes != freq.MarshalledSize(65536) {
					t.Fatalf("65536-pair chunk wrote a %d-byte index, want %d", stats.IndexBytes, freq.MarshalledSize(65536))
				}
				h, _ := parseHeader(enc)
				rec, _, _, err := h.frame(enc, h.end)
				if err != nil {
					t.Fatal(err)
				}
				ref, _, _ := referenceRecord(t, data, sv, opts, lay, nil, -1)
				if !bytes.Equal(rec, ref) {
					t.Fatalf("%s/%s/%d: planar record differs from reference", name, solverName, prec)
				}
				dec, err := Decompress(enc)
				if err != nil || !bytes.Equal(dec, data) {
					t.Fatalf("%s/%s/%d: round trip: %v", name, solverName, prec, err)
				}
			}
		}
	}
}

// hostileSeeds builds checksummed-but-lying containers over both container
// versions and both precisions.
func hostileSeeds(t testing.TB) map[string][]byte {
	t.Helper()
	out := map[string][]byte{}
	for _, solverName := range []string{"zlib", "lzo"} {
		for _, prec := range []Precision{Float64, Float32} {
			lay, _ := prec.Layout()
			for _, pc := range []PrecondOptions{{}, {Selection: precond.APriori}} {
				data := planarData("narrow", lay, 300, 11)
				enc, err := Compress(data, Options{Solver: solverName, Precision: prec, ChunkBytes: 200 * lay.ElemBytes, Precond: pc})
				if err != nil {
					t.Fatal(err)
				}
				vs, err := hostile.Variants(enc)
				if err != nil {
					t.Fatal(err)
				}
				for _, v := range vs {
					out[fmt.Sprintf("%s/%s/%d-byte/%s", enc[:4], solverName, lay.ElemBytes, v.Name)] = v.Data
				}
			}
		}
	}
	return out
}

// TestHostileRecordsRejected: a record whose checksums hold but whose
// fields contradict each other — solver output of the wrong size, raw
// columns of the wrong length, an ID beyond the index, an odd ID payload, a
// mask bit beyond the mantissa width (which the old decoder ignored) — must
// come back as ErrCorrupt from every decode entry point, never as a panic
// or as data.
func TestHostileRecordsRejected(t *testing.T) {
	seeds := hostileSeeds(t)
	versions := map[string]bool{}
	for name, data := range seeds {
		versions[string(data[:4])] = true
		if _, err := Decompress(data); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: Decompress = %v, want ErrCorrupt", name, err)
		}
		_, rep, err := DecompressSalvage(data)
		if err != nil || rep.Clean() {
			t.Errorf("%s: Verify = %v, %v; want a reported fault", name, rep, err)
		}
		if out, rep, err := DecompressSalvage(data); err != nil || rep.Clean() {
			t.Errorf("%s: salvage = %d bytes, %v, %v; want a reported fault", name, len(out), rep, err)
		}
		if r, err := NewChunkReader(data); err == nil {
			if _, err := r.DecodeChunk(0); !errors.Is(err, ErrCorrupt) {
				t.Errorf("%s: DecodeChunk = %v, want ErrCorrupt", name, err)
			}
		}
	}
	if !versions["PRM2"] || !versions["PRM3"] || len(seeds) < 64 {
		t.Fatalf("hostile set too narrow: %d seeds, versions %v", len(seeds), versions)
	}
}

// TestNonCanonicalMaskRejected pins the satellite on its own: every mask
// bit at or beyond the mantissa width, one at a time, on a re-checksummed
// PRM2 and PRM3 record of both precisions. The writer never sets such a bit
// (the mask it stores comes from an analysis of exactly LoBytes columns).
func TestNonCanonicalMaskRejected(t *testing.T) {
	seen := 0
	for name, data := range hostileSeeds(t) {
		if !strings.Contains(name, "mask names column") {
			continue
		}
		seen++
		_, err := Decompress(data)
		if !errors.Is(err, ErrCorrupt) || errors.Is(err, ErrChecksum) {
			t.Errorf("%s: Decompress = %v, want a non-checksum ErrCorrupt", name, err)
		}
	}
	// (2 stray bits for Float64 + 6 for Float32) × 2 versions × 2 solvers.
	if seen != (2+6)*2*2 {
		t.Fatalf("%d stray-mask records tested, want %d", seen, (2+6)*2*2)
	}
}

// allocBounds holds the most a call may allocate in steady state, {mallocs,
// bytes}, on TestCodecSteadyStateAllocations' workload (1 MiB of "narrow"
// doubles, 256 KiB chunks, a reused Codec). Decompress is its output and
// 64 KiB: each chunk's ID list, and nothing that scales with the chunk.
// Compress is the container sized from its first record plus the per-chunk
// index and its 256 KiB reverse table: 35 allocations and 2 067 096 B (zlib),
// 2 099 864 B (lzo) measured, bounded a little above. Before the append-form
// decode the two directions were 37 / 3 517 016 and 15 / 2 098 068. None of it
// is scratch, and none may become scratch.
var allocBounds = map[string][2]uint64{
	"zlib/compress":   {36, 2200000},
	"zlib/decompress": {15, 1<<20 + 64<<10},
	"lzo/compress":    {36, 2200000},
	"lzo/decompress":  {15, 1<<20 + 64<<10},
}

// codecAllocs reports mallocs and bytes allocated per call of fn in steady
// state (after warm-up calls have sized every scratch buffer): the smallest
// of three windows, so an allocation by the runtime or another goroutine
// that lands in one window is not charged to fn.
func codecAllocs(fn func()) (mallocs, nbytes uint64) {
	const runs = 20
	for i := 0; i < 3; i++ {
		fn()
	}
	// No collection inside a window: a GC empties the solvers' sync.Pools
	// and the refills would be counted against whichever run they land in.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	mallocs, nbytes = math.MaxUint64, math.MaxUint64
	for w := 0; w < 3; w++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			fn()
		}
		runtime.ReadMemStats(&after)
		mallocs = min(mallocs, (after.Mallocs-before.Mallocs)/runs)
		nbytes = min(nbytes, (after.TotalAlloc-before.TotalAlloc)/runs)
	}
	return mallocs, nbytes
}

// TestCodecSteadyStateAllocations is the allocation guard: a reused Codec
// must not allocate more often, or more bytes, per call than allocBounds
// says. Bytes get 0.1 % for the runtime's own bookkeeping (the figure moves
// by a few bytes between runs of the same binary).
func TestCodecSteadyStateAllocations(t *testing.T) {
	if testenv.RaceEnabled {
		t.Skip("the race detector's runtime allocates on its own")
	}
	data := planarData("narrow", bytesplit.Float64Layout, 128<<10, 21)
	for _, solverName := range []string{"zlib", "lzo"} {
		opts := Options{Solver: solverName, ChunkBytes: 256 << 10}
		var c Codec
		enc, err := c.Compress(data, opts)
		if err != nil {
			t.Fatal(err)
		}
		report := func(what string, fn func()) {
			mallocs, nbytes := codecAllocs(fn)
			bound := allocBounds[solverName+"/"+what]
			t.Logf("%s/%s: %d allocs/op, %d B/op (bound %d, %d)", solverName, what, mallocs, nbytes, bound[0], bound[1])
			if mallocs > bound[0] || nbytes > bound[1]+bound[1]/1000 {
				t.Errorf("%s/%s: %d allocs/op, %d B/op exceed the bound %d, %d", solverName, what, mallocs, nbytes, bound[0], bound[1])
			}
		}
		report("compress", func() {
			if _, err := c.Compress(data, opts); err != nil {
				t.Fatal(err)
			}
		})
		report("decompress", func() {
			if _, err := c.Decompress(enc); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestPlaneBufferSizedOncePerGeometry pins the plane buffer's capacity to the
// chunk geometry, not to what the records happened to need: a codec that
// decodes ever wider ISOBAR masks, and then compresses, keeps the buffer its
// first chunk allocated. Pooled codecs meet masks and directions in an order
// that depends on request timing; their cost must not.
func TestPlaneBufferSizedOncePerGeometry(t *testing.T) {
	const n = 4096
	opts := Options{Solver: "lzo", ChunkBytes: n * 8}
	var encs [][]byte
	nComps := map[int]bool{}
	for _, kind := range []string{"narrow", "skewed", "striped"} { // widening masks
		data := planarData(kind, bytesplit.Float64Layout, n, 5)
		enc, st, err := new(Codec).AppendCompressCtx(context.Background(), nil, data, opts)
		if err != nil {
			t.Fatal(err)
		}
		nComps[int(st.Alpha2*6+0.5)] = true
		encs = append(encs, enc)
	}
	if len(nComps) < 2 {
		t.Fatalf("the shapes gave one mask width only: %v", nComps)
	}
	var c Codec
	if _, err := c.Decompress(encs[0]); err != nil {
		t.Fatal(err)
	}
	first := &c.sc.planes[:1][0]
	for _, enc := range encs[1:] {
		if _, err := c.Decompress(enc); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.Compress(planarData("wide", bytesplit.Float64Layout, n, 6), opts); err != nil {
		t.Fatal(err)
	}
	if &c.sc.planes[:1][0] != first || cap(c.sc.planes) != n*8 {
		t.Errorf("plane buffer was reallocated: cap %d, want the first chunk's %d", cap(c.sc.planes), n*8)
	}
}

// TestScratchHoldsNoAliasOfPlanes guards the one aliasing hazard of the
// planar path: when the compressible planes are adjacent, comp is a view of
// sc.planes and must not be parked in sc.aux, where the next chunk's gather
// would overwrite live planes.
func TestScratchHoldsNoAliasOfPlanes(t *testing.T) {
	lay := bytesplit.Float64Layout
	sv, _ := solver.Get("lzo")
	var sc scratch
	opts := Options{Solver: "lzo", ISOBAR: isobar.Options{SampleBytes: -1}}
	for i, kind := range []string{"narrow", "striped", "narrow", "striped", "skewed"} {
		chunk := planarData(kind, lay, 500+i, int64(i))
		rec, _, err := compressChunk(nil, chunk, len(chunk), sv, opts, lay, nil, &sc, nil, trace.Span{}, -1)
		if err != nil {
			t.Fatal(err)
		}
		rec = rec[recSlot:]
		ref, _, _ := referenceRecord(t, chunk, sv, opts, lay, nil, -1)
		if !bytes.Equal(rec, ref) {
			t.Fatalf("chunk %d (%s) through a reused scratch differs from reference", i, kind)
		}
		// Scribbling over all of aux must leave the planes as they were.
		snap := append([]byte(nil), sc.planes...)
		aux := sc.aux[:cap(sc.aux)]
		for j := range aux {
			aux[j] ^= 0xFF
		}
		if !bytes.Equal(snap, sc.planes) {
			t.Fatalf("after chunk %d (%s) sc.aux aliases sc.planes", i, kind)
		}
	}
}
