package solver_test

import (
	"bytes"
	"compress/flate"
	"compress/zlib"
	"encoding/binary"
	"fmt"
	"hash/adler32"
	"io"
	"slices"
	"testing"

	"primacy/internal/core"
	"primacy/internal/datagen"
	"primacy/internal/solver"
)

// stockZlib is the reference the default level is held against: the standard
// library's own zlib writer at level 6 and its own reader, no pooling, no
// decisions. Its name is as long as "zlib" so containers compare byte for
// byte in size.
type stockZlib struct{}

func (stockZlib) Name() string { return "zstk" }

func (stockZlib) Compress(src []byte) ([]byte, error) {
	var b bytes.Buffer
	w, err := zlib.NewWriterLevel(&b, 6)
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

func (stockZlib) Decompress(src []byte) ([]byte, error) {
	r, err := zlib.NewReader(bytes.NewReader(src))
	if err != nil {
		return nil, err
	}
	return io.ReadAll(r)
}

// recordingZlib is the default zlib solver under another four-letter name,
// keeping every input core hands it.
type recordingZlib struct {
	solver.Zlib
	inputs [][]byte
}

func (*recordingZlib) Name() string { return "zrec" }

func (r *recordingZlib) Compress(src []byte) ([]byte, error) { return r.CompressTo(nil, src) }

func (r *recordingZlib) CompressTo(dst, src []byte) ([]byte, error) {
	r.inputs = append(r.inputs, append([]byte(nil), src...))
	return r.Zlib.CompressTo(dst, src)
}

// checkBothReaders fails unless enc, the default level's stream for in, reads
// back through compress/zlib and through the in-tree inflater, which must
// take all of it up to the checksum.
func checkBothReaders(t *testing.T, what string, enc, in []byte) {
	t.Helper()
	if back, err := (stockZlib{}).Decompress(enc); err != nil || !bytes.Equal(back, in) {
		t.Fatalf("%s: compress/zlib does not read a %d-byte solver input back: %v", what, len(in), err)
	}
	if back, used, err := solver.Inflate(nil, enc[2:]); err != nil || !bytes.Equal(back, in) || used != len(enc)-6 {
		t.Fatalf("%s: the in-tree inflater reads %d of %d bytes back from %d of %d: %v", what, len(back), len(in), used, len(enc)-6, err)
	}
}

// codedSize is the size of src coded alone by the encoder of a class: a flate
// level, or the run class's own coder.
func codedSize(t *testing.T, src []byte, level int) int {
	t.Helper()
	if level == solver.ZlibRLE {
		return solver.RLESize(src)
	}
	var b bytes.Buffer
	w, err := flate.NewWriter(&b, level)
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

// The classes of segment, in the order planReport prints them, and their
// places in it.
var classLevels = [4]int{flate.HuffmanOnly, solver.ZlibRLE, solver.ZlibFast, solver.ZlibLZ}

const classHuff, classRun, classFast, classLZ = 0, 1, 2, 3

// verdictLoss is what a single segment lost to its verdict: its size under the
// chosen encoder minus its size under the alternative, both coded alone.
type verdictLoss struct{ bytes, of int }

// planReport is what the default level did to a set of solver inputs.
type planReport struct {
	segments [4]int // by class, as in classLevels
	// worst is the largest loss of an entropy-only or level-6 verdict against
	// the other of the two, worstRun that of a run or fast verdict against
	// level 6.
	worst, worstRun verdictLoss
}

func (p *planReport) add(t *testing.T, src []byte) {
	for _, run := range solver.ZlibPlan(src) {
		for s := run.Start; s < run.End; s += solver.ZlibSegment {
			seg := src[s:min(s+solver.ZlibSegment, run.End)]
			p.segments[slices.Index(classLevels[:], run.Level)]++
			other, worst := solver.ZlibLZ, &p.worstRun
			switch run.Level {
			case solver.ZlibLZ:
				other, worst = flate.HuffmanOnly, &p.worst
			case flate.HuffmanOnly:
				worst = &p.worst
			}
			if loss := codedSize(t, seg, run.Level) - codedSize(t, seg, other); loss > worst.bytes {
				*worst = verdictLoss{loss, len(seg)}
			}
		}
	}
}

func (p planReport) String() string {
	return fmt.Sprintf("segments %2d entropy-only %2d run %2d fast %2d level 6, worst verdict +%d B of %d, worst run verdict +%d B of %d",
		p.segments[0], p.segments[1], p.segments[2], p.segments[3], p.worst.bytes, p.worst.of, p.worstRun.bytes, p.worstRun.of)
}

// withoutRunClass is the stream the default level writes for src when every
// run verdict is level 6 instead, coded by the standard library's writers. It
// is the reference that prices the run class alone.
func withoutRunClass(t *testing.T, src []byte) []byte {
	t.Helper()
	b := bytes.NewBuffer([]byte{0x78, 0x9c})
	runs := solver.ZlibPlan(src)
	for i := range runs {
		if runs[i].Level == solver.ZlibRLE {
			runs[i].Level = solver.ZlibLZ
		}
	}
	for i := 0; i < len(runs); {
		j := i + 1
		for j < len(runs) && runs[j].Level == runs[i].Level {
			j++
		}
		w, err := flate.NewWriter(b, runs[i].Level)
		if err != nil {
			t.Fatal(err)
		}
		_, _ = w.Write(src[runs[i].Start:runs[j-1].End])
		if j == len(runs) {
			err = w.Close()
		} else {
			err = w.Flush()
		}
		if err != nil {
			t.Fatal(err)
		}
		i = j
	}
	return binary.BigEndian.AppendUint32(b.Bytes(), adler32.Checksum(src))
}

// TestDefaultLevelSizeGuard is the size guard and the misprediction report of
// the default level. For each of the 20 datasets the raw doubles ("vanilla"
// zlib) must be byte for byte stock level 6's stream, with no fast segment:
// that is what keeps Table III's zlib columns where they are. The PRIMACY
// container under default core.Options may be at most 0.75 % larger than what
// stock level 6 makes of the same bytes, and all 20 together at most 0.2 %:
// the fast class buys its speed with ratio, and this is the budget. Every
// stream core asked for — ID planes and mantissa columns — decodes the same
// with the standard library's reader and the in-tree inflater, and the
// log says how many segments fell in each class, what the fast class alone
// cost (against the same plan with level 6 in its place) and what the worst
// single verdict cost. `go test -v -run TestDefaultLevelSizeGuard
// ./internal/solver` prints the table CHANGES.md quotes.
func TestDefaultLevelSizeGuard(t *testing.T) {
	n := 512 << 10 // one 3 MiB chunk and a 1 MiB one
	if testing.Short() || solver.RaceEnabled {
		n = 64 << 10
	}
	rec := &recordingZlib{}
	solver.Register(rec)
	solver.Register(stockZlib{})
	var sumStock, sumGot, sumRunPrice int
	for _, spec := range datagen.Specs() {
		raw := spec.GenerateBytes(n)

		vanilla, err := solver.Zlib{}.Compress(raw)
		if err != nil {
			t.Fatal(err)
		}
		vanillaStock, _ := stockZlib{}.Compress(raw)
		var vanillaPlan planReport
		vanillaPlan.add(t, raw)
		if !bytes.Equal(vanilla, vanillaStock) || vanillaPlan.segments[classRun]+vanillaPlan.segments[classFast] != 0 {
			t.Errorf("%s: vanilla zlib is not stock level 6's stream (%d vs %d bytes, %d run or fast segments)",
				spec.Name, len(vanilla), len(vanillaStock), vanillaPlan.segments[classRun]+vanillaPlan.segments[classFast])
		}

		rec.inputs = rec.inputs[:0]
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
		runPrice := 0
		for _, in := range rec.inputs {
			before := plan.segments[classRun]
			plan.add(t, in)
			enc, _ := solver.Zlib{}.Compress(in)
			checkBothReaders(t, spec.Name, enc, in)
			if plan.segments[classRun] > before {
				runPrice += len(enc) - len(withoutRunClass(t, in))
			}
		}
		sumStock += len(stock)
		sumGot += len(got)
		sumRunPrice += runPrice
		t.Logf("%-14s container %8d vs stock %8d (%+.3f%%), run class %+6d B (%+.3f%%), %v | vanilla %8d = stock, %2d entropy-only",
			spec.Name, len(got), len(stock), 100*(float64(len(got))/float64(len(stock))-1),
			runPrice, 100*float64(runPrice)/float64(len(got)-runPrice), plan, len(vanilla), vanillaPlan.segments[classHuff])
		if len(got) > len(stock)+len(stock)*3/400 {
			t.Errorf("%s: container is %d bytes, over 1.0075 x stock level 6's %d", spec.Name, len(got), len(stock))
		}
	}
	t.Logf("all containers: %d vs stock %d (%+.3f%%), run class %+d B (%+.3f%%)", sumGot, sumStock,
		100*(float64(sumGot)/float64(sumStock)-1), sumRunPrice, 100*float64(sumRunPrice)/float64(sumGot-sumRunPrice))
	if sumGot > sumStock+sumStock/500 {
		t.Errorf("all containers are %d bytes, over 1.002 x stock level 6's %d", sumGot, sumStock)
	}
}

// TestWorkerInvariancePayloadHasAllClasses pins what pipeline's
// TestZlibVerdictsWorkerInvariant stands on and cannot see from where it is:
// its payload, msg_sweep3d at 256 Ki doubles in 512 KiB chunks, gives the
// default level segments of every class the 20 datasets reach — entropy-only,
// run and level 6; the fast class is for near repeats none of them has. Its
// streams, with every hand-over between those classes, read back through both
// inflaters.
func TestWorkerInvariancePayloadHasAllClasses(t *testing.T) {
	rec := &recordingZlib{}
	solver.Register(rec)
	spec, _ := datagen.ByName("msg_sweep3d")
	if _, err := core.Compress(spec.GenerateBytes(256<<10), core.Options{Solver: rec.Name(), ChunkBytes: 512 << 10}); err != nil {
		t.Fatal(err)
	}
	var plan planReport
	for _, in := range rec.inputs {
		plan.add(t, in)
		enc, _ := solver.Zlib{}.Compress(in)
		checkBothReaders(t, spec.Name, enc, in)
	}
	if plan.segments[classHuff] == 0 || plan.segments[classRun] == 0 || plan.segments[classLZ] == 0 {
		t.Fatalf("a class is missing: %v", plan)
	}
}

// TestZlibDecompressToZeroAllocsOnDataset is the allocation guard where the
// allocations were: the ID and mantissa streams of a hard dataset, many blocks
// with codes longer than any first-level table — compress/flate made a table
// of links for each — decode into pre-sized scratch without allocating.
func TestZlibDecompressToZeroAllocsOnDataset(t *testing.T) {
	if solver.RaceEnabled {
		t.Skip("under the race detector sync.Pool drops a share of its items")
	}
	rec := &recordingZlib{}
	solver.Register(rec)
	spec, _ := datagen.ByName("num_brain")
	if _, err := core.Compress(spec.GenerateBytes(128<<10), core.Options{Solver: rec.Name()}); err != nil {
		t.Fatal(err)
	}
	for i, in := range rec.inputs {
		enc, _ := solver.Zlib{}.Compress(in)
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

// BenchmarkZlibDecompress decodes what the default level wrote for every
// solver input — ID planes and mantissa columns — of bench's hard and soft
// datasets at the default chunk size, into exactly pre-sized scratch as core
// does.
func BenchmarkZlibDecompress(b *testing.B) {
	rec := &recordingZlib{}
	solver.Register(rec)
	for _, set := range []struct {
		name  string
		specs []string
	}{
		{"hard", []string{"gts_chkp_zeon", "gts_phi_l", "num_control", "obs_temp", "msg_lu", "num_brain"}},
		{"soft", []string{"num_plasma", "obs_error", "flash_gamc", "obs_spitzer", "msg_sppm"}},
	} {
		b.Run(set.name, func(b *testing.B) {
			var encs [][]byte
			var dst []byte
			total := 0
			for _, name := range set.specs {
				spec, _ := datagen.ByName(name)
				rec.inputs = rec.inputs[:0]
				if _, err := core.Compress(spec.GenerateBytes(384<<10), core.Options{Solver: rec.Name()}); err != nil {
					b.Fatal(err)
				}
				for _, in := range rec.inputs {
					enc, _ := solver.Zlib{}.Compress(in)
					encs = append(encs, enc)
					total += len(in)
					dst = slices.Grow(dst[:0], len(in))
				}
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
