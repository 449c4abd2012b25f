package experiments

import (
	"strings"
	"testing"
)

// renderN keeps render smoke tests fast.
const renderN = 8 << 10

func TestRenderersProduceTables(t *testing.T) {
	rows, err := TableIII(renderN)
	if err != nil {
		t.Fatal(err)
	}
	out := RenderTableIII(rows)
	if !strings.Contains(out, "msg_sppm") || !strings.Contains(out, "PRIMACY CR wins") {
		t.Fatalf("table render incomplete:\n%s", out)
	}
	f1, err := Fig1(renderN)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(RenderFig1(f1), "byte7") {
		t.Fatal("fig1 render incomplete")
	}
	f3, err := Fig3(renderN)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(RenderFig3(f3), "expUniq") {
		t.Fatal("fig3 render incomplete")
	}
}

// TestRenderFig4AndModel runs the measuring entry points (the shape tests
// compute their verdicts from the committed rate table instead) and checks
// that what they measure renders.
func TestRenderFig4AndModel(t *testing.T) {
	env := DefaultEnv()
	rates, err := MeasureFig4(renderN, env)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(RenderFig4Rates(rates), "zlibDTP") {
		t.Fatal("fig4 rate render incomplete")
	}
	wr, err := Fig4Write(renderN, env)
	if err != nil {
		t.Fatal(err)
	}
	out := RenderFig4(wr, true)
	if !strings.Contains(out, "write throughput") || !strings.Contains(out, "num_comet") {
		t.Fatalf("fig4 write render incomplete:\n%s", out)
	}
	rd, err := Fig4Read(renderN, env)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(RenderFig4(rd, false), "read throughput") {
		t.Fatal("fig4 read render incomplete")
	}
	mv, err := ModelValidation(renderN, env)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(RenderModelValidation(mv), "wModel") {
		t.Fatal("model validation render incomplete")
	}
}

func TestRenderAblationsAndStudies(t *testing.T) {
	rep, err := RepeatabilityGain(renderN)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(RenderRepeatability(rep), "repeatability gain") {
		t.Fatal("repeatability render incomplete")
	}
	lin, err := LinearizationAblation(renderN)
	if err != nil {
		t.Fatal(err)
	}
	out := RenderAblation(lin, "col", "row")
	if !strings.Contains(out, "colCR") || !strings.Contains(out, "mean col advantage") {
		t.Fatalf("ablation render incomplete:\n%s", out)
	}
	iso, err := ISOBARAblation(renderN)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(RenderAblation(iso, "isobar", "all"), "isobarCR") {
		t.Fatal("ISOBAR ablation render incomplete")
	}
	cs, err := ChunkSizeSweep(renderN)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(RenderChunkSweep(cs), "CTP MB/s") {
		t.Fatal("chunk sweep render incomplete")
	}
	ir, err := IndexReuseStudy(renderN)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(RenderIndexReuse(ir), "reuseIdx") {
		t.Fatal("index reuse render incomplete")
	}
}

func TestRenderPredictiveAndSolvers(t *testing.T) {
	pr, err := PredictiveComparison(renderN)
	if err != nil {
		t.Fatal(err)
	}
	out := RenderPredictive(pr)
	if !strings.Contains(out, "fpzCR") || !strings.Contains(out, "CR wins vs fpc") {
		t.Fatalf("predictive render incomplete:\n%s", out)
	}
	sv, err := SolverSweep(renderN)
	if err != nil {
		t.Fatal(err)
	}
	out = RenderSolverSweep(sv)
	if !strings.Contains(out, "bzlib") || !strings.Contains(out, "prmCTP") {
		t.Fatalf("solver sweep render incomplete:\n%s", out)
	}
	rw, err := MeasureRelatedWork(renderN, DefaultEnv())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(RenderRelatedWorkRates(rw), "lzoCTP") {
		t.Fatal("related-work rate render incomplete")
	}
	rows, err := RelatedWorkStudy(renderN, DefaultEnv())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(RenderRelatedWork(rows), "float64-hard") {
		t.Fatal("related-work render incomplete")
	}
}
