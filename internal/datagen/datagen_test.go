package datagen

import (
	"math"
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
	names := Names()
	if len(names) != 20 || names[0] != "gts_chkp_zeon" || names[19] != "obs_temp" {
		t.Fatalf("names order wrong: %v", names)
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

func BenchmarkGenerate(b *testing.B) {
	s, _ := ByName("gts_chkp_zeon")
	b.SetBytes(int64(DefaultN * 8))
	for i := 0; i < b.N; i++ {
		s.Generate(0)
	}
}
