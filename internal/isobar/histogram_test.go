package isobar

import (
	"reflect"
	"testing"

	"primacy/internal/bytesplit"
	"primacy/internal/datagen"
)

// referenceAnalyze is analyze with the sampled histogram in one counter per
// byte value, incremented sample by sample: the obviously-right form of
// columnHistogram's four interleaved tables.
func referenceAnalyze(data []byte, width int, planar bool, opts Options) Analysis {
	n := len(data) / width
	a := Analysis{Width: width, Columns: make([]ColumnReport, width)}
	rowStep, colStep := width, 1
	if planar {
		rowStep, colStep = 1, n
	}
	stride := 1
	if sample := opts.sampleBytes(); sample < n {
		stride = (n + sample - 1) / sample
	}
	for c := 0; c < width && n > 0; c++ {
		var hist [256]int
		count := 0
		for r, i := 0, c*colStep; r < n; r, i = r+stride, i+stride*rowStep {
			hist[data[i]]++
			count++
		}
		rep := analyzeHistogram(hist, count)
		rep.Compressible = rep.Entropy <= DefaultEntropyThreshold || rep.TopFrequency >= DefaultTopFreqThreshold
		a.Columns[c] = rep
		if rep.Compressible {
			a.Mask |= 1 << uint(c)
		}
	}
	return a
}

// TestColumnHistogramMatchesOneCounter holds the interleaved histogram to the
// one-counter reference on the mantissa planes of all 20 datasets, in the
// planar and the row-major layout, sampled and scanned whole, at lengths that
// leave every remainder of the four-way unroll: the same ColumnReports and
// the same Mask.
func TestColumnHistogramMatchesOneCounter(t *testing.T) {
	lay := bytesplit.Float64Layout
	lb := lay.LoBytes()
	n := 96<<10 + 3
	if testing.Short() {
		n = 16<<10 + 3
	}
	for _, spec := range datagen.Specs() {
		raw := spec.GenerateBytes(n)
		for _, elems := range []int{n, n - 1, n - 2, n - 3, 5} {
			chunk := raw[:elems*lay.ElemBytes]
			pl, err := lay.AppendPlanes(nil, chunk, nil)
			if err != nil {
				t.Fatal(err)
			}
			_, rows, err := lay.AppendSplit(nil, nil, chunk)
			if err != nil {
				t.Fatal(err)
			}
			for _, opts := range []Options{{}, {SampleBytes: -1}, {SampleBytes: 1000}} {
				planes := pl[lay.HiBytes*elems:]
				got, err := AnalyzePlanes(planes, lb, opts)
				if err != nil {
					t.Fatal(err)
				}
				if want := referenceAnalyze(planes, lb, true, opts); !reflect.DeepEqual(got, want) {
					t.Fatalf("%s, %d elements, %+v, planar: %+v, reference %+v", spec.Name, elems, opts, got, want)
				}
				got, err = Analyze(rows, lb, opts)
				if err != nil {
					t.Fatal(err)
				}
				if want := referenceAnalyze(rows, lb, false, opts); !reflect.DeepEqual(got, want) {
					t.Fatalf("%s, %d elements, %+v, row-major: %+v, reference %+v", spec.Name, elems, opts, got, want)
				}
			}
		}
	}
}

// BenchmarkAnalyzePlanesDataset is AnalyzePlanes on the mantissa planes of a
// hard dataset, whose repeated bytes are what the interleaved tables are for.
func BenchmarkAnalyzePlanesDataset(b *testing.B) {
	lay := bytesplit.Float64Layout
	spec, _ := datagen.ByName("obs_temp")
	n := 384 << 10
	pl, err := lay.AppendPlanes(nil, spec.GenerateBytes(n), nil)
	if err != nil {
		b.Fatal(err)
	}
	planes := pl[lay.HiBytes*n:]
	b.SetBytes(int64(len(planes)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := AnalyzePlanes(planes, lay.LoBytes(), Options{}); err != nil {
			b.Fatal(err)
		}
	}
}
