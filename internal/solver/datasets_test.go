package solver_test

import (
	"bytes"
	"compress/flate"
	"compress/zlib"
	"fmt"
	"slices"
	"sync"
	"testing"

	"primacy/internal/core"
	"primacy/internal/datagen"
	"primacy/internal/solver"
	"primacy/internal/testenv"
)

// stockZlib is the reference the default level is held against: the standard
// library's own zlib writer at level 6 and its own reader, no pooling, no
// decisions. Its name is as long as "zlib" so containers compare byte for
// byte in size.
type stockZlib struct{}

func (stockZlib) Name() string { return "zstk" }

func (stockZlib) CompressTo(dst, src []byte) ([]byte, error) {
	b := bytes.NewBuffer(dst)
	w, err := zlib.NewWriterLevel(b, 6)
	if err != nil {
		return nil, err
	}
	if _, err := w.Write(src); err != nil {
		return nil, err
	}
	if err := w.Close(); err != nil {
		return nil, err
	}
	return b.Bytes(), nil
}

func (stockZlib) DecompressTo(dst, src []byte) ([]byte, error) {
	r, err := zlib.NewReader(bytes.NewReader(src))
	if err != nil {
		return nil, err
	}
	b := bytes.NewBuffer(dst)
	if _, err := b.ReadFrom(r); err != nil {
		return nil, err
	}
	return b.Bytes(), nil
}

// recordingZlib is the default zlib solver under another four-letter name
// ("zrec" unless name sets one), keeping every input core hands it. A chunk's
// ID and mantissa inputs arrive at once, from two goroutines, so the list is
// appended under a mutex; it is read only after the compression returns.
type recordingZlib struct {
	solver.Zlib
	name   string
	mu     sync.Mutex
	inputs [][]byte
}

func (r *recordingZlib) Name() string {
	if r.name != "" {
		return r.name
	}
	return "zrec"
}

func (r *recordingZlib) CompressTo(dst, src []byte) ([]byte, error) {
	in := append([]byte(nil), src...)
	r.mu.Lock()
	r.inputs = append(r.inputs, in)
	r.mu.Unlock()
	return r.Zlib.CompressTo(dst, src)
}

// checkBothReaders fails unless enc, the default level's stream for in, reads
// back through compress/zlib and through the in-tree inflater, which must
// take all of it up to the checksum.
func checkBothReaders(t *testing.T, what string, enc, in []byte) {
	t.Helper()
	if back, err := (stockZlib{}).DecompressTo(nil, enc); err != nil || !bytes.Equal(back, in) {
		t.Fatalf("%s: compress/zlib does not read a %d-byte solver input back: %v", what, len(in), err)
	}
	if back, used, err := solver.Inflate(nil, enc[2:]); err != nil || !bytes.Equal(back, in) || used != len(enc)-6 {
		t.Fatalf("%s: the in-tree inflater reads %d of %d bytes back from %d of %d: %v", what, len(back), len(in), used, len(enc)-6, err)
	}
}

// codedSize is the size of src coded alone as the class v codes it: by the
// standard library's level 6, or by the run coder.
func codedSize(t *testing.T, src []byte, v solver.ZlibVerdict) int {
	t.Helper()
	if v != solver.ZlibLZ {
		return solver.BlockSize(src, v)
	}
	var b bytes.Buffer
	w, err := flate.NewWriter(&b, 6)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write(src); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return b.Len()
}

// verdictLoss is what a single segment lost to its verdict: its size under the
// chosen class minus its size under the alternative, both coded alone.
type verdictLoss struct{ bytes, of int }

// planReport is what the encoder did to a set of solver inputs.
type planReport struct {
	segments [3]int // by verdict
	// worst is the largest loss of an order-0 or level-6 verdict against the
	// other of the two, worstRun that of a run verdict against level 6.
	worst, worstRun verdictLoss
}

func (p *planReport) add(t *testing.T, src []byte) {
	for _, run := range solver.ZlibPlan(src) {
		for s := run.Start; s < run.End; s += solver.ZlibSegment {
			seg := src[s:min(s+solver.ZlibSegment, run.End)]
			p.segments[run.Verdict]++
			other, worst := solver.ZlibLZ, &p.worst
			switch run.Verdict {
			case solver.ZlibLZ:
				other = solver.ZlibOrder0
			case solver.ZlibRLE:
				worst = &p.worstRun
			}
			if loss := codedSize(t, seg, run.Verdict) - codedSize(t, seg, other); loss > worst.bytes {
				*worst = verdictLoss{loss, len(seg)}
			}
		}
	}
}

func (p planReport) String() string {
	return fmt.Sprintf("segments %2d order-0 %2d run %2d level 6, worst verdict +%d B of %d, worst run verdict +%d B of %d",
		p.segments[solver.ZlibOrder0], p.segments[solver.ZlibRLE], p.segments[solver.ZlibLZ], p.worst.bytes, p.worst.of, p.worstRun.bytes, p.worstRun.of)
}

// price is what the class v costs the stream enc of src: its size against the
// same plan with level 6 in v's place.
func price(src, enc []byte, v solver.ZlibVerdict) int {
	runs := solver.ZlibPlan(src)
	for i := range runs {
		if runs[i].Verdict == v {
			runs[i].Verdict = solver.ZlibLZ
		}
	}
	return len(enc) - len(solver.EncodePlan(src, runs))
}

// TestDefaultLevelSizeGuard is the size guard and the misprediction report of
// the encoder. For each of the 20 datasets the raw doubles ("vanilla" zlib)
// must be byte for byte stock level 6's stream, every segment level 6: that is
// what keeps Table III's zlib columns where they are. The PRIMACY container
// under default core.Options may be at most 0.75 % larger than what stock
// level 6 makes of the same bytes, and all 20 together at most 0.2 %: a
// verdict taken on a 4 KiB sample can miss what level 6 finds with a warm
// window, and this is the budget. Every stream core asked for — ID planes and
// mantissa columns — decodes the same with the standard library's reader and
// the in-tree inflater, and the log says how many segments fell in each
// class, what the run and the order-0 class cost (each against the same plan
// with level 6 in its place) and what the worst single verdict cost.
// `go test -v -run TestDefaultLevelSizeGuard ./internal/solver` prints the
// table CHANGES.md quotes.
func TestDefaultLevelSizeGuard(t *testing.T) {
	n := 512 << 10 // one 3 MiB chunk and a 1 MiB one
	if testing.Short() || testenv.RaceEnabled {
		n = 64 << 10
	}
	solver.Register(stockZlib{})
	// The datasets run in parallel, each under a recording solver of its own;
	// their sizes and class prices are summed once all have run.
	specs := datagen.Specs()
	type sizes struct{ stock, got, runPrice, order0Price int }
	per := make([]sizes, len(specs))
	t.Run("datasets", func(t *testing.T) {
		for i, spec := range specs {
			rec := &recordingZlib{name: fmt.Sprintf("zr%02d", i)}
			solver.Register(rec)
			t.Run(spec.Name, func(t *testing.T) {
				t.Parallel()
				raw := spec.GenerateBytes(n)

				vanilla, err := solver.Zlib{}.CompressTo(nil, raw)
				if err != nil {
					t.Fatal(err)
				}
				vanillaStock, _ := stockZlib{}.CompressTo(nil, raw)
				var vanillaPlan planReport
				vanillaPlan.add(t, raw)
				if other := vanillaPlan.segments[solver.ZlibRLE] + vanillaPlan.segments[solver.ZlibOrder0]; !bytes.Equal(vanilla, vanillaStock) || other != 0 {
					t.Errorf("%s: vanilla zlib is not stock level 6's stream (%d vs %d bytes, %d segments not level 6)",
						spec.Name, len(vanilla), len(vanillaStock), other)
				}

				got, err := core.Compress(raw, core.Options{Solver: rec.Name()})
				if err != nil {
					t.Fatal(err)
				}
				stock, err := core.Compress(raw, core.Options{Solver: stockZlib{}.Name()})
				if err != nil {
					t.Fatal(err)
				}
				if back, err := core.Decompress(got); err != nil || !bytes.Equal(back, raw) {
					t.Fatalf("%s: container does not round-trip: %v", spec.Name, err)
				}
				var plan planReport
				runPrice, order0Price := 0, 0
				for _, in := range rec.inputs {
					before := plan.segments
					plan.add(t, in)
					enc, _ := solver.Zlib{}.CompressTo(nil, in)
					checkBothReaders(t, spec.Name, enc, in)
					if !bytes.Equal(solver.EncodePlan(in, solver.ZlibPlan(in)), enc) {
						t.Fatalf("%s: EncodePlan writes the encoder's own plan otherwise than the encoder", spec.Name)
					}
					if plan.segments[solver.ZlibRLE] > before[solver.ZlibRLE] {
						runPrice += price(in, enc, solver.ZlibRLE)
					}
					if plan.segments[solver.ZlibOrder0] > before[solver.ZlibOrder0] {
						order0Price += price(in, enc, solver.ZlibOrder0)
					}
				}
				per[i] = sizes{len(stock), len(got), runPrice, order0Price}
				t.Logf("%-14s container %8d vs stock %8d (%+.3f%%), run class %+6d B, order-0 class %+6d B, %v | vanilla %8d = stock",
					spec.Name, len(got), len(stock), 100*(float64(len(got))/float64(len(stock))-1), runPrice, order0Price, plan, len(vanilla))
				if len(got) > len(stock)+len(stock)*3/400 {
					t.Errorf("%s: container is %d bytes, over 1.0075 x stock level 6's %d", spec.Name, len(got), len(stock))
				}
			})
		}
	})
	var sum sizes
	for _, p := range per {
		sum.stock += p.stock
		sum.got += p.got
		sum.runPrice += p.runPrice
		sum.order0Price += p.order0Price
	}
	t.Logf("all containers: %d vs stock %d (%+.3f%%), run class %+d B, order-0 class %+d B", sum.got, sum.stock,
		100*(float64(sum.got)/float64(sum.stock)-1), sum.runPrice, sum.order0Price)
	if sum.got > sum.stock+sum.stock/500 {
		t.Errorf("all containers are %d bytes, over 1.002 x stock level 6's %d", sum.got, sum.stock)
	}
}

// TestWorkerInvariancePayloadHasAllClasses pins what pipeline's
// TestZlibVerdictsWorkerInvariant stands on and cannot see from where it is:
// its payload, msg_sppm at 256 Ki doubles in 512 KiB chunks, gives the
// encoder segments of all three classes. Its streams, with every hand-over
// between those classes, read back through both inflaters.
func TestWorkerInvariancePayloadHasAllClasses(t *testing.T) {
	rec := &recordingZlib{}
	solver.Register(rec)
	spec, _ := datagen.ByName("msg_sppm")
	if _, err := core.Compress(spec.GenerateBytes(256<<10), core.Options{Solver: rec.Name(), ChunkBytes: 512 << 10}); err != nil {
		t.Fatal(err)
	}
	var plan planReport
	for _, in := range rec.inputs {
		plan.add(t, in)
		enc, _ := solver.Zlib{}.CompressTo(nil, in)
		checkBothReaders(t, spec.Name, enc, in)
	}
	if plan.segments[solver.ZlibOrder0] == 0 || plan.segments[solver.ZlibRLE] == 0 || plan.segments[solver.ZlibLZ] == 0 {
		t.Fatalf("a class is missing: %v", plan)
	}
}

// TestZlibDecompressToZeroAllocsOnDataset is the allocation guard where the
// allocations were: the ID and mantissa streams of a hard dataset, many blocks
// with codes longer than any first-level table — compress/flate made a table
// of links for each — decode into pre-sized scratch without allocating.
func TestZlibDecompressToZeroAllocsOnDataset(t *testing.T) {
	if testenv.RaceEnabled {
		t.Skip("under the race detector sync.Pool drops a share of its items")
	}
	rec := &recordingZlib{}
	solver.Register(rec)
	spec, _ := datagen.ByName("num_brain")
	if _, err := core.Compress(spec.GenerateBytes(128<<10), core.Options{Solver: rec.Name()}); err != nil {
		t.Fatal(err)
	}
	for i, in := range rec.inputs {
		enc, _ := solver.Zlib{}.CompressTo(nil, in)
		dst := make([]byte, 0, len(in))
		allocs := testing.AllocsPerRun(5, func() {
			if out, err := (solver.Zlib{}).DecompressTo(dst, enc); err != nil || len(out) != len(in) {
				t.Fatalf("solver input %d: %d of %d bytes: %v", i, len(out), len(in), err)
			}
		})
		if allocs != 0 {
			t.Fatalf("solver input %d (%d bytes): steady-state DecompressTo allocates %.0f times per op, want 0", i, len(in), allocs)
		}
	}
}

// benchSets are bench's hard and soft datasets.
var benchSets = []struct {
	name  string
	specs []string
}{
	{"hard", []string{"gts_chkp_zeon", "gts_phi_l", "num_control", "obs_temp", "msg_lu", "num_brain"}},
	{"soft", []string{"num_plasma", "obs_error", "flash_gamc", "obs_spitzer", "msg_sppm"}},
}

// solverInputs is every input core hands the solver — ID planes and mantissa
// columns — for the named datasets at 384 Ki doubles and the default chunk
// size, and their total length.
func solverInputs(b *testing.B, specs []string) (ins [][]byte, total int) {
	rec := &recordingZlib{}
	solver.Register(rec)
	for _, name := range specs {
		spec, _ := datagen.ByName(name)
		if _, err := core.Compress(spec.GenerateBytes(384<<10), core.Options{Solver: rec.Name()}); err != nil {
			b.Fatal(err)
		}
	}
	for _, in := range rec.inputs {
		total += len(in)
	}
	return rec.inputs, total
}

// BenchmarkZlibCompress encodes every solver input of bench's hard and soft
// datasets into reused scratch, as core does.
func BenchmarkZlibCompress(b *testing.B) {
	for _, set := range benchSets {
		b.Run(set.name, func(b *testing.B) {
			ins, total := solverInputs(b, set.specs)
			var dst []byte
			b.SetBytes(int64(total))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, in := range ins {
					dst, _ = solver.Zlib{}.CompressTo(dst[:0], in)
				}
			}
		})
	}
}

// BenchmarkZlibDecompress decodes what the encoder wrote for every solver
// input of bench's hard and soft datasets into exactly pre-sized scratch, as
// core does.
func BenchmarkZlibDecompress(b *testing.B) {
	for _, set := range benchSets {
		b.Run(set.name, func(b *testing.B) {
			ins, total := solverInputs(b, set.specs)
			var encs [][]byte
			var dst []byte
			for _, in := range ins {
				enc, _ := solver.Zlib{}.CompressTo(nil, in)
				encs = append(encs, enc)
				dst = slices.Grow(dst[:0], len(in))
			}
			b.SetBytes(int64(total))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, enc := range encs {
					if _, err := (solver.Zlib{}).DecompressTo(dst[:0], enc); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}
