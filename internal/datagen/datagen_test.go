package datagen

import (
	"crypto/sha256"
	"encoding/hex"
	"math"
	"runtime"
	"testing"

	"primacy/internal/bytesplit"
	"primacy/internal/freq"
	"primacy/internal/solver"
)

func TestTwentyDatasets(t *testing.T) {
	specs := Specs()
	if len(specs) != 20 {
		t.Fatalf("expected 20 datasets, got %d", len(specs))
	}
	seen := map[string]bool{}
	for _, s := range specs {
		if seen[s.Name] {
			t.Fatalf("duplicate dataset %q", s.Name)
		}
		seen[s.Name] = true
		if s.Description == "" {
			t.Fatalf("%s: missing description", s.Name)
		}
	}
}

func TestByName(t *testing.T) {
	s, ok := ByName("msg_sppm")
	if !ok || s.Name != "msg_sppm" {
		t.Fatalf("ByName failed: %+v %v", s, ok)
	}
	if _, ok := ByName("nonexistent"); ok {
		t.Fatal("unknown name found")
	}
}

func TestNamesOrder(t *testing.T) {
	specs := Specs()
	if len(specs) != 20 || specs[0].Name != "gts_chkp_zeon" || specs[19].Name != "obs_temp" {
		t.Fatalf("names order wrong: %v", specs)
	}
}

func TestDeterminism(t *testing.T) {
	s, _ := ByName("gts_phi_l")
	a := s.Generate(1000)
	b := s.Generate(1000)
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			t.Fatalf("non-deterministic at %d", i)
		}
	}
}

func TestDefaultN(t *testing.T) {
	s, _ := ByName("obs_temp")
	if got := len(s.Generate(0)); got != DefaultN {
		t.Fatalf("default N = %d", got)
	}
}

func TestGenerateBytesMatches(t *testing.T) {
	s, _ := ByName("msg_bt")
	values := s.Generate(500)
	raw := s.GenerateBytes(500)
	want := bytesplit.Float64sToBytes(values)
	if len(raw) != len(want) {
		t.Fatalf("lengths differ")
	}
	for i := range raw {
		if raw[i] != want[i] {
			t.Fatalf("byte %d differs", i)
		}
	}
}

func TestExponentLocality(t *testing.T) {
	// The paper (Sec. II-C): the majority of datasets have well under
	// 2,000 unique high-order byte pairs out of 65,536.
	for _, s := range Specs() {
		raw := s.GenerateBytes(100_000)
		hi, _, err := bytesplit.Float64Layout.AppendSplit(nil, nil, raw)
		if err != nil {
			t.Fatal(err)
		}
		counts, err := freq.Histogram(hi)
		if err != nil {
			t.Fatal(err)
		}
		unique := 0
		for _, c := range counts {
			if c > 0 {
				unique++
			}
		}
		if unique > 4000 {
			t.Errorf("%s: %d unique high-order pairs (want scientific-data locality)", s.Name, unique)
		}
		if unique < 2 {
			t.Errorf("%s: degenerate exponent distribution (%d pairs)", s.Name, unique)
		}
	}
}

func TestHardDatasetsAreHardForZlib(t *testing.T) {
	// The four GTS datasets and obs_temp have paper zlib CRs of ~1.04; our
	// stand-ins must stay hard-to-compress (CR < 1.25).
	z, err := solver.Get("zlib")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"gts_chkp_zeon", "gts_phi_l", "obs_temp"} {
		s, _ := ByName(name)
		raw := s.GenerateBytes(100_000)
		enc, err := z.CompressTo(nil, raw)
		if err != nil {
			t.Fatal(err)
		}
		cr := float64(len(raw)) / float64(len(enc))
		if cr > 1.25 {
			t.Errorf("%s: zlib CR %.3f — too easy for a hard dataset", name, cr)
		}
	}
}

func TestSppmIsEasy(t *testing.T) {
	z, err := solver.Get("zlib")
	if err != nil {
		t.Fatal(err)
	}
	s, _ := ByName("msg_sppm")
	raw := s.GenerateBytes(100_000)
	enc, err := z.CompressTo(nil, raw)
	if err != nil {
		t.Fatal(err)
	}
	cr := float64(len(raw)) / float64(len(enc))
	if cr < 3 {
		t.Errorf("msg_sppm: zlib CR %.3f — paper reports 7.42 (easy-to-compress)", cr)
	}
}

func TestZeroFracProducesZeros(t *testing.T) {
	s, _ := ByName("msg_sppm")
	values := s.Generate(50_000)
	zeros := 0
	for _, v := range values {
		if v == 0 {
			zeros++
		}
	}
	frac := float64(zeros) / float64(len(values))
	if frac < 0.05 {
		t.Fatalf("zero fraction %.3f too low for sppm", frac)
	}
}

func TestNegativeDatasetsHaveBothSigns(t *testing.T) {
	s, _ := ByName("gts_phi_l")
	values := s.Generate(10_000)
	pos, neg := 0, 0
	for _, v := range values {
		if v > 0 {
			pos++
		}
		if v < 0 {
			neg++
		}
	}
	if pos == 0 || neg == 0 {
		t.Fatalf("signed dataset lacks both signs: +%d -%d", pos, neg)
	}
}

func TestPermute(t *testing.T) {
	s, _ := ByName("num_comet")
	values := s.Generate(10_000)
	perm := Permute(values, 7)
	if len(perm) != len(values) {
		t.Fatal("length changed")
	}
	// Deterministic.
	perm2 := Permute(values, 7)
	same := true
	moved := 0
	for i := range perm {
		if math.Float64bits(perm[i]) != math.Float64bits(perm2[i]) {
			same = false
		}
		if math.Float64bits(perm[i]) != math.Float64bits(values[i]) {
			moved++
		}
	}
	if !same {
		t.Fatal("permutation not deterministic")
	}
	if moved < len(values)/2 {
		t.Fatalf("permutation barely moved anything: %d", moved)
	}
	// Multiset preserved (sum of bit patterns as a weak check).
	var a, b uint64
	for i := range values {
		a += math.Float64bits(values[i])
		b += math.Float64bits(perm[i])
	}
	if a != b {
		t.Fatal("permutation changed the multiset")
	}
	// Input untouched.
	if math.Float64bits(values[0]) != math.Float64bits(s.Generate(10_000)[0]) {
		t.Fatal("Permute mutated its input")
	}
}

func TestNoNaNsFromGenerators(t *testing.T) {
	for _, s := range Specs() {
		for _, v := range s.Generate(5_000) {
			if math.IsNaN(v) {
				t.Fatalf("%s produced NaN", s.Name)
			}
			if math.IsInf(v, 0) {
				t.Fatalf("%s produced Inf", s.Name)
			}
		}
	}
}

// TestGenerateMatchesReference checks Generate bit for bit against the
// serial oracle across seeds, sizes around block and worker boundaries, and
// GOMAXPROCS values that split the value pass differently. The last spec
// reaches the corners: binades past the float64 range, more noise bits than
// a mantissa holds, full precision, no waves and a ragged block length.
func TestGenerateMatchesReference(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	corners := Spec{Name: "corners", Seed: 5, Binades: 1 << 40, Skew: 0.5, BlockLen: 3,
		NoiseBits: 60, RepeatFrac: 0.3, ZeroFrac: 0.1, Negative: true}
	for _, spec := range append(Specs(), corners) {
		for _, offset := range []int64{0, 7919, 3 * 7919} {
			s := spec
			s.Seed += offset
			for _, n := range []int{1, 8, 9, 10, s.BlockLen - 1, s.BlockLen, s.BlockLen + 1, 4099, 48 << 10, 0} {
				want := s.referenceGenerate(n)
				for _, procs := range []int{1, 2, 7} {
					runtime.GOMAXPROCS(procs)
					got := s.Generate(n)
					if len(got) != len(want) {
						t.Fatalf("%s seed %d n %d procs %d: len %d, want %d", s.Name, s.Seed, n, procs, len(got), len(want))
					}
					for i := range want {
						if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
							t.Fatalf("%s seed %d n %d procs %d: element %d is %016x, want %016x",
								s.Name, s.Seed, n, procs, i, math.Float64bits(got[i]), math.Float64bits(want[i]))
						}
					}
				}
			}
		}
	}
}

// TestGenerateBytesPinned pins the SHA-256 of every dataset's first 48 Ki
// doubles, so no change to the generators goes unnoticed.
func TestGenerateBytesPinned(t *testing.T) {
	want := map[string]string{
		"gts_chkp_zeon": "2b9de45292a99b7d4bd74457a8d2d63eca4f3eb35b5a2e246760c168f4563d12",
		"gts_chkp_zion": "8d64142641b49a65be56fa444264c69ca5e6ca41f618dbc20304e594d3ac0a24",
		"gts_phi_l":     "1dc7d13662a5c0e6f87169117f2189e59252f5bd4bef18af7b8e4ed6ab8d9a8a",
		"gts_phi_nl":    "40f390a0f93317fa5f657a15657378f724de331f4a33ff6278a162de20114ed9",
		"flash_gamc":    "13c7be8ab593b0564b049bc050efde99f43c85646841c2aa6015f5e7baa66410",
		"flash_velx":    "a25113f4d95b43e187dd9981104161ff1108ae80e47a15ea019192990addbd3f",
		"flash_vely":    "f14b0cd49b2e228db3f383702f02e3bf7ed967854b4d4664b41fb9259441b615",
		"msg_bt":        "f12129efd2cdcf34b3c0c9934f3f330ff0767dc675037f58cdf41376fa0c30f3",
		"msg_lu":        "da19ab4a7dd52d87b1a3e178538dcd50e29c7fe2098ab1606c777ff4dc73a979",
		"msg_sp":        "b77b0a8ec029314e7df076d62eb63ac571de289fe5c261a3d127b10d8d2493f6",
		"msg_sppm":      "c1bb59894a384f0e29f2e74b84f4e24decfef353e8a79c6a5958779cda88603d",
		"msg_sweep3d":   "fd241d52cef9c14339b9afb996eb14ad89daef28ebafb2573af49baa982ab1c4",
		"num_brain":     "9669b543e4cdb4b890d76cbcf76309be915ae5b055c877efe29d7532045390f2",
		"num_comet":     "32ae6257b0a0f363975ae86a4cad3aad74835adcfc2ef5d85b67b8268e9e0e9a",
		"num_control":   "4af8023f894bdc78138cd77185d544e3ce9fdbc50448c4d50e04018cf08dddf9",
		"num_plasma":    "584e96f817ac85512454bd6df154bb2131b9ee2aee9cfaa97e4069fee4061d78",
		"obs_error":     "9215d3cde6a411e2ebb0905fba3f302fc628e80bbbd19a9646cf112562ae4b48",
		"obs_info":      "cac62233bd8b0d88085509267dbef36db9750984736e9657261fc081fe2dea13",
		"obs_spitzer":   "abdac22fd3b77b41083a212eb48be070af0f9b41ebf2e5ca862baf0aeec09bcc",
		"obs_temp":      "96c54b1b99bfa4303626380ac2ab0263448172095c4cb9b00c730a6d205cdfc8",
	}
	for _, s := range Specs() {
		sum := sha256.Sum256(s.GenerateBytes(48 << 10))
		if got := hex.EncodeToString(sum[:]); got != want[s.Name] {
			t.Errorf("%s: sha256 %s, want %s", s.Name, got, want[s.Name])
		}
	}
}

// TestGenerateAllocs bounds what the three passes allocate beyond the
// serial oracle: a kind byte per element and a binade per block.
func TestGenerateAllocs(t *testing.T) {
	s, _ := ByName("obs_temp")
	allocated := func(gen func(int) []float64) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		gen(DefaultN)
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	extra := int64(allocated(s.Generate)) - int64(allocated(s.referenceGenerate))
	if limit := int64(DefaultN + 4*DefaultN/s.BlockLen); extra > limit {
		t.Fatalf("Generate allocates %d bytes more than the serial generator, limit %d", extra, limit)
	}
}

var benchSink []byte

func BenchmarkGenerateBytes(b *testing.B) {
	s, _ := ByName("gts_chkp_zeon")
	for i := 0; i < b.N; i++ {
		benchSink = s.GenerateBytes(DefaultN)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/DefaultN, "ns/double")
}

func BenchmarkGenerate(b *testing.B) {
	s, _ := ByName("gts_chkp_zeon")
	b.SetBytes(int64(DefaultN * 8))
	for i := 0; i < b.N; i++ {
		s.Generate(0)
	}
}
