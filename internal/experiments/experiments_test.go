package experiments

import (
	"bytes"
	"compress/zlib"
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"

	"primacy/internal/core"
	"primacy/internal/datagen"
)

// Small element count keeps the full experiment suite fast in tests while
// still spanning multiple chunks at the sizes the experiments use.
const testN = 48 << 10

func TestTableIIIShape(t *testing.T) {
	rows, err := TableIII(testN)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 20 {
		t.Fatalf("expected 20 rows, got %d", len(rows))
	}
	s := Summarize(rows)
	// The paper's headline shape: PRIMACY wins CR on at least 18/20 (19 in
	// the paper), and loses on msg_sppm.
	if s.PrimacyCRWins < 18 {
		t.Fatalf("PRIMACY CR wins %d/20, want >= 18", s.PrimacyCRWins)
	}
	for _, r := range rows {
		if r.Dataset == "msg_sppm" && r.PrimacyCR >= r.ZlibCR {
			t.Fatalf("msg_sppm should favor vanilla zlib: prm %.2f vs zlib %.2f",
				r.PrimacyCR, r.ZlibCR)
		}
	}
	if s.MeanCRGain < 0.05 || s.MeanCRGain > 0.40 {
		t.Fatalf("mean CR gain %.1f%% outside plausible band", s.MeanCRGain*100)
	}
	// Where the paper's throughput gain comes from, as a count rather than a
	// timing (speed is bench's business, not a test verdict's): the solver is
	// handed a fraction of the bytes, α₁ + α₂(1−α₁). And the vanilla column
	// is what stock zlib makes of the raw doubles: the solver's default level
	// may move it by no more than 0.1 %.
	var meanShare float64
	for i, spec := range datagen.Specs() {
		raw := spec.GenerateBytes(testN)
		_, st, err := core.CompressWithStats(raw, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		share := float64(st.SolverInputBytes) / float64(st.RawBytes)
		meanShare += share / float64(len(rows))
		if spec.Name != "msg_sppm" && share > 0.75 {
			t.Errorf("%s: solver input is %.2f of the raw bytes, want <= 0.75", spec.Name, share)
		}
		var stock bytes.Buffer
		zw := zlib.NewWriter(&stock)
		if _, err := zw.Write(raw); err != nil {
			t.Fatal(err)
		}
		if err := zw.Close(); err != nil {
			t.Fatal(err)
		}
		stockCR := float64(len(raw)) / float64(stock.Len())
		if got := rows[i].ZlibCR; math.Abs(got/stockCR-1) > 0.001 {
			t.Errorf("%s: vanilla zlib CR %.4f, stock level 6 gives %.4f", spec.Name, got, stockCR)
		}
	}
	t.Logf("mean solver-input share %.3f", meanShare)
	if meanShare > 0.5 {
		t.Fatalf("mean solver-input share %.2f, want <= 0.5", meanShare)
	}
}

func TestFig1Shape(t *testing.T) {
	series, err := Fig1(testN)
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 4 {
		t.Fatalf("expected 4 series, got %d", len(series))
	}
	for _, s := range series {
		if len(s.P) != 64 {
			t.Fatalf("%s: %d points", s.Dataset, len(s.P))
		}
		// Figure 1's shape: head (first 2 bytes) predictable, tail noisy.
		head := avg(s.P[1:12])
		tail := avg(s.P[40:64])
		if head <= tail {
			t.Fatalf("%s: head %.3f should exceed tail %.3f", s.Dataset, head, tail)
		}
		if tail > 0.62 {
			t.Fatalf("%s: tail %.3f too predictable for hard data", s.Dataset, tail)
		}
	}
}

func avg(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func TestFig3Shape(t *testing.T) {
	rows, err := Fig3(testN)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("expected 4 rows, got %d", len(rows))
	}
	for _, r := range rows {
		if r.Exponent.Unique >= r.Mantissa.Unique {
			t.Fatalf("%s: exponent uniques %d >= mantissa uniques %d",
				r.Dataset, r.Exponent.Unique, r.Mantissa.Unique)
		}
		if r.Exponent.Unique > 2000 {
			t.Fatalf("%s: %d unique exponent pairs (paper: <2000 typical)",
				r.Dataset, r.Exponent.Unique)
		}
		if r.Exponent.Peak <= r.Mantissa.Peak {
			t.Fatalf("%s: exponent peak should dominate", r.Dataset)
		}
	}
}

// fig4Rates loads the committed rate table the Figure 4 and model-validation
// verdicts are computed from: the codec rates are measured once, by
//
//	go run ./cmd/benchtab -exp fig4rates -json > internal/experiments/testdata/fig4_rates.json
//
// so that the verdicts are a function of committed inputs, not of how busy
// the host running the test is.
func fig4Rates(t *testing.T) []Fig4Rates {
	t.Helper()
	var rates []Fig4Rates
	readTable(t, "fig4_rates.json", &rates)
	if len(rates) != len(Fig4Datasets) {
		t.Fatalf("rate table has %d datasets, want %d", len(rates), len(Fig4Datasets))
	}
	for i, r := range rates {
		if r.Dataset != Fig4Datasets[i] {
			t.Fatalf("rate table row %d is %q, want %q", i, r.Dataset, Fig4Datasets[i])
		}
	}
	return rates
}

func TestFig4WriteShape(t *testing.T) {
	rows, err := fig4(fig4Rates(t), DefaultEnv(), true)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		// PRIMACY must beat the null case and both vanilla compressors
		// empirically (paper Fig. 4a).
		if r.PE <= r.NullE {
			t.Errorf("%s: PRIMACY write %.2f <= null %.2f", r.Dataset, r.PE, r.NullE)
		}
		if r.PE <= r.ZE || r.PE <= r.LE {
			t.Errorf("%s: PRIMACY write %.2f not best (Z %.2f, L %.2f)",
				r.Dataset, r.PE, r.ZE, r.LE)
		}
		// Theory and empirical agree within a band.
		if relErr(r.PT, r.PE) > 0.35 {
			t.Errorf("%s: PT %.2f vs PE %.2f diverge", r.Dataset, r.PT, r.PE)
		}
	}
}

func TestFig4ReadShape(t *testing.T) {
	rows, err := fig4(fig4Rates(t), DefaultEnv(), false)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		// Paper Fig. 4b: PRIMACY reads faster than the null case and than
		// either vanilla compressor. The paper's vanilla zlib also loses to
		// null; with this repository's inflater it does not (EXPERIMENTS.md).
		if r.PE <= r.NullE {
			t.Errorf("%s: PRIMACY read %.2f <= null %.2f", r.Dataset, r.PE, r.NullE)
		}
		if r.PE <= r.ZE || r.PE <= r.LE {
			t.Errorf("%s: PRIMACY read %.2f not best (Z %.2f, L %.2f)",
				r.Dataset, r.PE, r.ZE, r.LE)
		}
	}
}

func TestRepeatabilityGain(t *testing.T) {
	rows, err := RepeatabilityGain(testN)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 20 {
		t.Fatalf("expected 20 rows, got %d", len(rows))
	}
	mean := 0.0
	for _, r := range rows {
		if r.After < r.Before {
			t.Fatalf("%s: mapping reduced repeatability (%.4f -> %.4f)",
				r.Dataset, r.Before, r.After)
		}
		mean += r.Gain()
	}
	mean /= float64(len(rows))
	if mean < 0.02 {
		t.Fatalf("mean repeatability gain %.1f%% too small (paper ~15%%)", mean*100)
	}
}

func TestLinearizationAblation(t *testing.T) {
	rows, err := LinearizationAblation(testN)
	if err != nil {
		t.Fatal(err)
	}
	colWins := 0
	for _, r := range rows {
		if r.BaseCR >= r.VariantCR {
			colWins++
		}
	}
	// Paper Sec. IV-H: column linearization wins on ID bytes.
	if colWins < 14 {
		t.Fatalf("column linearization wins only %d/20", colWins)
	}
}

func TestIDMappingAblation(t *testing.T) {
	rows, err := IDMappingAblation(testN)
	if err != nil {
		t.Fatal(err)
	}
	// Ablation finding (recorded in EXPERIMENTS.md): the frequency-ranked
	// mapping wins on turbulent datasets whose exponents vary element to
	// element (the solver's LZ stage finds no temporal runs, so reducing
	// order-0 literal entropy pays off), and can lose on block-structured
	// data where the identity layout already exposes long runs that the
	// frequency permutation scrambles.
	turbulent := map[string]bool{
		"gts_chkp_zeon": true, "gts_chkp_zion": true, "msg_sp": true,
		"msg_sweep3d": true, "obs_temp": true, "msg_lu": true,
	}
	turbWins, wins := 0, 0
	for _, r := range rows {
		if r.BaseCR > r.VariantCR {
			wins++
			if turbulent[r.Dataset] {
				turbWins++
			}
		}
	}
	if turbWins < 5 {
		t.Fatalf("ranked mapping wins only %d/6 turbulent datasets", turbWins)
	}
	if wins < 6 {
		t.Fatalf("ranked mapping wins only %d/20 overall", wins)
	}
}

// TestISOBARAblation counts the datasets on which ISOBAR compresses faster
// than compressing every mantissa column, in the committed ablation measured
// once by
//
//	go run ./cmd/benchtab -exp isobar -json > internal/experiments/testdata/isobar_ablation.json
//
// for the same reason as fig4Rates.
func TestISOBARAblation(t *testing.T) {
	var rows []AblationRow
	readTable(t, "isobar_ablation.json", &rows)
	specs := datagen.Specs()
	if len(rows) != len(specs) {
		t.Fatalf("ablation table has %d rows, want %d", len(rows), len(specs))
	}
	fasterCount := 0
	for i, r := range rows {
		if r.Dataset != specs[i].Name {
			t.Fatalf("ablation table row %d is %q, want %q", i, r.Dataset, specs[i].Name)
		}
		if r.BaseCTP > r.VariantCTP {
			fasterCount++
		}
	}
	// Skipping incompressible mantissa columns is the throughput story.
	if fasterCount < 12 {
		t.Fatalf("ISOBAR faster on only %d/20 datasets", fasterCount)
	}
}

func TestChunkSizeSweep(t *testing.T) {
	rows, err := ChunkSizeSweep(testN)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 10 {
		t.Fatalf("expected 10 rows, got %d", len(rows))
	}
	for _, r := range rows {
		if r.CR <= 0 || r.CTPMBs <= 0 {
			t.Fatalf("degenerate row: %+v", r)
		}
	}
}

func TestIndexReuseStudy(t *testing.T) {
	rows, err := IndexReuseStudy(testN)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.ReuseCount > r.PerChunkCount {
			t.Fatalf("%s: reuse emitted more indexes (%d > %d)",
				r.Dataset, r.ReuseCount, r.PerChunkCount)
		}
		if r.ReuseCR < r.PerChunkCR*0.95 {
			t.Fatalf("%s: reuse lost too much CR (%.3f vs %.3f)",
				r.Dataset, r.ReuseCR, r.PerChunkCR)
		}
	}
}

func TestPredictiveComparisonShape(t *testing.T) {
	rows, err := PredictiveComparison(testN)
	if err != nil {
		t.Fatal(err)
	}
	s := SummarizePredictive(rows)
	// Sec. V shape: PRIMACY wins a clear majority on original data and is
	// even stronger on permuted data (predictors lose their correlation).
	if s.CRWinsVsFpc < 12 {
		t.Fatalf("CR wins vs fpc %d/20, want majority", s.CRWinsVsFpc)
	}
	if s.PermWinsVsFpc < s.CRWinsVsFpc {
		t.Fatalf("permutation should help PRIMACY vs fpc: %d < %d",
			s.PermWinsVsFpc, s.CRWinsVsFpc)
	}
	if s.PermWinsVsFpzip < 14 {
		t.Fatalf("permuted CR wins vs fpzip %d/20, want strong majority", s.PermWinsVsFpzip)
	}
}

func TestModelValidation(t *testing.T) {
	rows, err := modelValidation(fig4Rates(t), DefaultEnv())
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.RelErrWrite() > 0.35 {
			t.Errorf("%s: write model error %.0f%%", r.Dataset, r.RelErrWrite()*100)
		}
		if r.RelErrRead() > 0.35 {
			t.Errorf("%s: read model error %.0f%%", r.Dataset, r.RelErrRead()*100)
		}
	}
}

// TestSolverSweepShape holds the ratios of a live sweep, which no clock
// decides, and the bzlib throughput verdict of the committed sweep measured
// once by
//
//	go run ./cmd/benchtab -exp solvers -json > internal/experiments/testdata/solver_sweep.json
//
// for the same reason as fig4Rates.
func TestSolverSweepShape(t *testing.T) {
	rows, err := SolverSweep(testN)
	if err != nil {
		t.Fatal(err)
	}
	var measured []SolverRow
	readTable(t, "solver_sweep.json", &measured)
	for _, rows := range [][]SolverRow{rows, measured} {
		if len(rows) != 9 { // 3 datasets x 3 solvers
			t.Fatalf("expected 9 rows, got %d", len(rows))
		}
		for i, r := range rows {
			if want := SolverSweepDatasets[i/3]; r.Dataset != want {
				t.Fatalf("row %d is %q, want %q", i, r.Dataset, want)
			}
		}
	}
	for _, r := range rows {
		// Sec. V: PRIMACY improves CR for every solver family on hard and
		// moderate datasets (msg_sppm, the easy one, is the known loss).
		if r.Dataset != "msg_sppm" && r.PrimacyCR <= r.VanillaCR {
			t.Errorf("%s/%s: PRIMACY CR %.3f <= vanilla %.3f",
				r.Dataset, r.Solver, r.PrimacyCR, r.VanillaCR)
		}
	}
	for _, r := range measured {
		// bzlib throughput must improve but remain the slowest family.
		if r.Solver == "bzlib" && r.Dataset != "msg_sppm" &&
			r.PrimacyCTP <= r.VanillaCTP {
			t.Errorf("%s/bzlib: PRIMACY CTP %.2f <= vanilla %.2f",
				r.Dataset, r.PrimacyCTP, r.VanillaCTP)
		}
	}
}

// readTable decodes the committed JSON table testdata/name into v.
func readTable(t *testing.T, name string, v any) {
	t.Helper()
	data, err := os.ReadFile("testdata/" + name)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, v); err != nil {
		t.Fatal(err)
	}
}

// relatedWorkRates loads the committed rate table the related-work verdicts
// are computed from, measured once by
//
//	go run ./cmd/benchtab -exp relatedworkrates -json > internal/experiments/testdata/relatedwork_rates.json
//
// for the same reason as fig4Rates.
func relatedWorkRates(t *testing.T) []RelatedWorkRates {
	t.Helper()
	var rates []RelatedWorkRates
	readTable(t, "relatedwork_rates.json", &rates)
	if len(rates) != len(relatedWorkWorkloads) {
		t.Fatalf("rate table has %d workloads, want %d", len(rates), len(relatedWorkWorkloads))
	}
	for i, r := range rates {
		if r.Workload != relatedWorkWorkloads[i] {
			t.Fatalf("rate table row %d is %q, want %q", i, r.Workload, relatedWorkWorkloads[i])
		}
	}
	return rates
}

func TestRelatedWorkStudyShape(t *testing.T) {
	rows, err := relatedWork(relatedWorkRates(t), DefaultEnv())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("expected 4 rows, got %d", len(rows))
	}
	byKey := map[string]RelatedWorkRow{}
	for _, r := range rows {
		byKey[r.Workload+"/"+r.Codec] = r
	}
	// The related-work finding: lzo clearly helps integer data...
	if g := byKey["int64-counters/lzo"].Gain(); g < 0.10 {
		t.Fatalf("lzo on integers should clearly win: %+.1f%%", g*100)
	}
	// ...and does not meaningfully help hard float data.
	if g := byKey["float64-hard/lzo"].Gain(); g > 0.05 {
		t.Fatalf("lzo on hard floats should be flat or negative: %+.1f%%", g*100)
	}
	// PRIMACY closes the float gap: better than lzo on floats.
	if byKey["float64-hard/primacy"].Gain() <= byKey["float64-hard/lzo"].Gain() {
		t.Fatalf("PRIMACY should beat lzo on floats: %+.1f%% vs %+.1f%%",
			byKey["float64-hard/primacy"].Gain()*100, byKey["float64-hard/lzo"].Gain()*100)
	}
	if !strings.Contains(RenderRelatedWork(rows), "Filgueira") {
		t.Fatal("render incomplete")
	}
}

func TestISOBARModeAblation(t *testing.T) {
	rows, err := ISOBARModeAblation(testN)
	if err != nil {
		t.Fatal(err)
	}
	// The classifiers should broadly agree: end-to-end CR within a few
	// percent on the vast majority of datasets.
	agree := 0
	for _, r := range rows {
		if relErr(r.BaseCR, r.VariantCR) < 0.05 {
			agree++
		}
	}
	if agree < 16 {
		t.Fatalf("classifiers agree on only %d/20 datasets", agree)
	}
}
