package solver_test

import (
	"bytes"
	"compress/flate"
	"compress/zlib"
	"fmt"
	"io"
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

// deflateSize is the size of src coded alone at a flate level.
func deflateSize(t *testing.T, src []byte, level int) int {
	t.Helper()
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

// planReport is what the default level did to a set of solver inputs.
type planReport struct {
	segments, entropyOnly int
	// worst is the most a single segment lost to its verdict: its size under
	// the chosen encoder minus its size under the other, both coded alone.
	worst, worstOf int
}

func (p *planReport) add(t *testing.T, src []byte) {
	for _, run := range solver.ZlibPlan(src) {
		for s := run.Start; s < run.End; s += solver.ZlibSegment {
			seg := src[s:min(s+solver.ZlibSegment, run.End)]
			p.segments++
			other := flate.HuffmanOnly
			if run.Level == flate.HuffmanOnly {
				p.entropyOnly++
				other = 6
			}
			if loss := deflateSize(t, seg, run.Level) - deflateSize(t, seg, other); loss > p.worst {
				p.worst, p.worstOf = loss, len(seg)
			}
		}
	}
}

func (p planReport) String() string {
	return fmt.Sprintf("%3d/%3d segments entropy-only, worst verdict +%d B of %d", p.entropyOnly, p.segments, p.worst, p.worstOf)
}

// TestDefaultLevelSizeGuard is the size guard and the misprediction report of
// the default level: for each of the 20 datasets, the raw doubles ("vanilla"
// zlib) and the PRIMACY container under default core.Options may be at most
// 0.1 % larger than what stock level 6 makes of the same bytes; every stream
// core asked for decodes with the standard library's reader; and the log
// says how many segments were coded entropy-only and what the worst single
// verdict cost. `go test -v -run TestDefaultLevelSizeGuard ./internal/solver`
// prints the table CHANGES.md quotes.
func TestDefaultLevelSizeGuard(t *testing.T) {
	n := 512 << 10 // one 3 MiB chunk and a 1 MiB one
	if testing.Short() || solver.RaceEnabled {
		n = 64 << 10
	}
	rec := &recordingZlib{}
	solver.Register(rec)
	solver.Register(stockZlib{})
	var sumStock, sumGot int
	for _, spec := range datagen.Specs() {
		raw := spec.GenerateBytes(n)

		vanilla, err := solver.Zlib{}.Compress(raw)
		if err != nil {
			t.Fatal(err)
		}
		vanillaStock, _ := stockZlib{}.Compress(raw)
		var vanillaPlan planReport
		vanillaPlan.add(t, raw)

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
		for _, in := range rec.inputs {
			plan.add(t, in)
			enc, _ := solver.Zlib{}.Compress(in)
			if back, err := (stockZlib{}).Decompress(enc); err != nil || !bytes.Equal(back, in) {
				t.Fatalf("%s: compress/zlib does not read a %d-byte solver input back: %v", spec.Name, len(in), err)
			}
		}
		sumStock += len(stock)
		sumGot += len(got)
		t.Logf("%-14s container %8d vs %8d (%+.3f%%) %v | vanilla %8d vs %8d (%+.3f%%) %v",
			spec.Name, len(got), len(stock), 100*(float64(len(got))/float64(len(stock))-1), plan,
			len(vanilla), len(vanillaStock), 100*(float64(len(vanilla))/float64(len(vanillaStock))-1), vanillaPlan)
		for what, pair := range map[string][2]int{"container": {len(got), len(stock)}, "vanilla": {len(vanilla), len(vanillaStock)}} {
			if pair[0] > pair[1]+pair[1]/1000 {
				t.Errorf("%s: %s is %d bytes, over 1.001 x stock level 6's %d", spec.Name, what, pair[0], pair[1])
			}
		}
	}
	t.Logf("all containers: %d vs %d (%+.3f%%)", sumGot, sumStock, 100*(float64(sumGot)/float64(sumStock)-1))
}
