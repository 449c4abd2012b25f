package experiments

import (
	"testing"

	"primacy/internal/datagen"
)

// TestComparePrecondSweep runs the full 20-dataset selection-mode comparison
// at a reduced element count and pins the headline acceptance claim: on at
// least 5 of the 20 datasets, APosteriori trial selection matches or beats
// the fixed classic chain. A "match" is counted net of the per-chunk
// transform-ID byte the v3 container must carry: when the selector keeps the
// chain everywhere, that byte is the entire difference, and losing more than
// it means the selector picked a worse transform.
func TestComparePrecondSweep(t *testing.T) {
	cmp, err := ComparePrecond(PrecondConfig{N: 32 << 10})
	if err != nil {
		t.Fatal(err)
	}
	if want := len(datagen.Specs()); len(cmp.Entries) != want {
		t.Fatalf("entries = %d, want %d", len(cmp.Entries), want)
	}
	matched, beat := 0, 0
	for _, e := range cmp.Entries {
		if len(e.Modes) != len(PrecondModes) {
			t.Fatalf("%s: %d mode results, want %d", e.Dataset, len(e.Modes), len(PrecondModes))
		}
		fixed, apost := e.Result("fixed"), e.Result("aposteriori")
		if fixed == nil || apost == nil {
			t.Fatalf("%s: missing mode result", e.Dataset)
		}
		if fixed.Ratio <= 0 || apost.Ratio <= 0 {
			t.Fatalf("%s: non-positive ratio", e.Dataset)
		}
		chunks := 0
		for _, c := range apost.TransformChunks {
			chunks += c
		}
		if chunks == 0 {
			t.Fatalf("%s: aposteriori reported no transform decisions", e.Dataset)
		}
		switch {
		case apost.CompressedBytes < fixed.CompressedBytes:
			matched++
			beat++
		case apost.CompressedBytes <= fixed.CompressedBytes+chunks:
			matched++
		default:
			t.Errorf("%s: aposteriori %d bytes vs fixed %d (+%d chunk ID bytes): selector chose a worse transform",
				e.Dataset, apost.CompressedBytes, fixed.CompressedBytes, chunks)
		}
	}
	if matched < 5 {
		t.Fatalf("aposteriori matched/beat fixed on %d/%d datasets, want >= 5", matched, len(cmp.Entries))
	}
	if beat < 2 {
		t.Fatalf("aposteriori strictly beat fixed on %d datasets, want >= 2: selection never fired", beat)
	}
	t.Logf("aposteriori matched/beat fixed on %d/%d datasets (%d strict wins)", matched, len(cmp.Entries), beat)
}

func TestComparePrecondUnknownDataset(t *testing.T) {
	if _, err := ComparePrecond(PrecondConfig{N: 1 << 10, Datasets: []string{"no_such"}}); err == nil {
		t.Fatal("unknown dataset not rejected")
	}
}
