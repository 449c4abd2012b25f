package isobar

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"
)

// columnMajor transposes a row-major N×width matrix.
func columnMajor(data []byte, width int) []byte {
	n := len(data) / width
	out := make([]byte, len(data))
	for r := 0; r < n; r++ {
		for c := 0; c < width; c++ {
			out[c*n+r] = data[r*width+c]
		}
	}
	return out
}

// TestAnalyzePlanesMatchesAnalyze: same rows sampled, so the same reports,
// mask and α₂, for every stride the sampling rule can produce and both
// classifiers.
func TestAnalyzePlanesMatchesAnalyze(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, width := range []int{1, 2, 6} {
		for _, n := range []int{0, 1, 7, 64, 1000, 4099} {
			data := makeMatrix(n, width, func(c, r int) byte {
				switch c % 3 {
				case 0:
					return byte(r % 5)
				case 1:
					return byte(rng.Intn(256))
				default:
					return byte(rng.Intn(256)) & 0x0F
				}
			})
			cols := columnMajor(data, width)
			for _, opts := range []Options{
				{}, {SampleBytes: -1}, {SampleBytes: 1}, {SampleBytes: 33}, {SampleBytes: 1000},
				{Mode: ModeBitFrequency, SampleBytes: 100},
			} {
				want, err := Analyze(data, width, opts)
				if err != nil {
					t.Fatal(err)
				}
				got, err := AnalyzePlanes(cols, width, opts)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("width %d n=%d opts %+v: planes verdict %+v, rows verdict %+v", width, n, opts, got, want)
				}
			}
		}
	}
	if _, err := AnalyzePlanes(make([]byte, 7), 6, Options{}); err == nil {
		t.Fatal("ragged planes accepted")
	}
	if _, err := AnalyzePlanes(nil, 0, Options{}); err == nil {
		t.Fatal("width 0 accepted")
	}
}

// TestPlaneRoutingMatchesPartition walks every mask of the float64 and
// float32 mantissa widths: the routed planes are AppendPartition's two buffers,
// adjacent masks alias instead of copying, and RoutePlanes hands back the
// columns AppendUnpartition would scatter.
func TestPlaneRoutingMatchesPartition(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for _, width := range []int{2, 6} {
		for _, n := range []int{0, 1, 9, 257} {
			data := make([]byte, n*width)
			rng.Read(data)
			cols := columnMajor(data, width)
			for mask := uint64(0); mask < 1<<uint(width); mask++ {
				wantComp, wantIncomp, err := AppendPartition(nil, nil, data, width, mask)
				if err != nil {
					t.Fatal(err)
				}
				dst := make([]byte, 0, len(cols))
				comp, copied, err := CompressiblePlanes(dst, cols, width, mask)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(comp, wantComp) {
					t.Fatalf("width %d n=%d mask %#b: compressible planes differ from AppendPartition", width, n, mask)
				}
				run := mask
				for run != 0 && run&1 == 0 {
					run >>= 1
				}
				if adjacent := run&(run+1) == 0; copied == adjacent {
					t.Fatalf("width %d mask %#b: copied=%v for adjacent=%v", width, mask, copied, adjacent)
				}
				if !copied && n > 0 && mask != 0 {
					comp[0] ^= 0xFF
					aliased := !bytes.Equal(cols, columnMajor(data, width))
					comp[0] ^= 0xFF
					if !aliased {
						t.Fatalf("width %d mask %#b: uncopied result does not alias cols", width, mask)
					}
				}
				incomp, err := AppendIncompressiblePlanes([]byte{7}, cols, width, mask)
				if err != nil {
					t.Fatal(err)
				}
				if incomp[0] != 7 || !bytes.Equal(incomp[1:], wantIncomp) {
					t.Fatalf("width %d n=%d mask %#b: incompressible planes differ from AppendPartition", width, n, mask)
				}

				planes := make([][]byte, width)
				if err := RoutePlanes(planes, wantComp, wantIncomp, mask, n); err != nil {
					t.Fatal(err)
				}
				for c, p := range planes {
					if !bytes.Equal(p, cols[c*n:(c+1)*n]) {
						t.Fatalf("width %d n=%d mask %#b: routed plane %d is not column %d", width, n, mask, c, c)
					}
				}
			}
		}
	}
}

func TestPlaneRoutingRejects(t *testing.T) {
	cols := make([]byte, 12)
	if _, _, err := CompressiblePlanes(nil, cols, 6, 1<<6); err == nil {
		t.Fatal("mask bit 6 of width 6 accepted")
	}
	if _, err := AppendIncompressiblePlanes(nil, cols, 6, 1<<7); err == nil {
		t.Fatal("mask bit 7 of width 6 accepted")
	}
	if _, _, err := CompressiblePlanes(nil, cols[:11], 6, 1); err == nil {
		t.Fatal("ragged planes accepted")
	}
	planes := make([][]byte, 6)
	if err := RoutePlanes(planes, nil, cols, 1<<6, 2); err == nil {
		t.Fatal("RoutePlanes accepted mask bit 6 of width 6")
	}
	if err := RoutePlanes(planes, cols[:2], cols[:9], 0b000001, 2); err == nil {
		t.Fatal("RoutePlanes accepted a short incompressible buffer")
	}
	if err := RoutePlanes(planes, cols[:3], cols[:10], 0b000001, 2); err == nil {
		t.Fatal("RoutePlanes accepted a long compressible buffer")
	}
	if err := RoutePlanes(planes, nil, nil, 0, -1); err == nil {
		t.Fatal("RoutePlanes accepted a negative element count")
	}
	if err := RoutePlanes(make([][]byte, 65), nil, nil, 0, 0); err == nil {
		t.Fatal("RoutePlanes accepted 65 planes")
	}
}

func BenchmarkAnalyzePlanes(b *testing.B) {
	n := 384 << 10
	cols := make([]byte, n*6)
	rand.New(rand.NewSource(1)).Read(cols)
	b.SetBytes(int64(len(cols)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := AnalyzePlanes(cols, 6, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}
