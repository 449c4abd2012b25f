package experiments

import (
	"fmt"

	"primacy/internal/bytesplit"
	"primacy/internal/core"
	"primacy/internal/datagen"
	"primacy/internal/fpc"
	"primacy/internal/fpzip"
	"primacy/internal/freq"
	"primacy/internal/isobar"
	"primacy/internal/stats"
)

// RepeatabilityRow reports how much the ID mapping increases the frequency
// of the most common byte in the high-order stream (Sec. II-C: ~15% mean).
type RepeatabilityRow struct {
	Dataset string
	// Before and After are the top byte frequencies of the raw high-order
	// bytes and of the mapped ID bytes.
	Before, After float64
}

// Gain is After/Before - 1.
func (r RepeatabilityRow) Gain() float64 {
	if r.Before == 0 {
		return 0
	}
	return r.After/r.Before - 1
}

// RepeatabilityGain regenerates the Sec. II-C repeatability claim over all
// datasets.
func RepeatabilityGain(n int) ([]RepeatabilityRow, error) {
	n = elemCount(n)
	rows := make([]RepeatabilityRow, 0, 20)
	for _, spec := range datagen.Specs() {
		raw := spec.GenerateBytes(n)
		hi, _, err := bytesplit.Split(raw)
		if err != nil {
			return nil, err
		}
		counts, err := freq.Histogram(hi)
		if err != nil {
			return nil, err
		}
		idx, err := freq.BuildIndex(counts)
		if err != nil {
			return nil, err
		}
		ids, err := idx.Encode(hi)
		if err != nil {
			return nil, err
		}
		rows = append(rows, RepeatabilityRow{
			Dataset: spec.Name,
			Before:  stats.TopByteFrequency(hi),
			After:   stats.TopByteFrequency(ids),
		})
	}
	return rows, nil
}

// AblationRow compares the full PRIMACY configuration against one variant.
type AblationRow struct {
	Dataset string
	// BaseCR/VariantCR are compression ratios; BaseCTP/VariantCTP are MB/s.
	BaseCR, VariantCR   float64
	BaseCTP, VariantCTP float64
}

// crKind selects which compression ratio an ablation compares.
type crKind int

const (
	crEndToEnd crKind = iota
	// crHighOrder compares 1/sigma_ho — the ID-byte ratio the paper's
	// Sec. IV-H linearization numbers refer to (the mantissa path is
	// identical across linearizations and would dilute the signal).
	crHighOrder
)

// runAblation measures core.Options variants across all datasets.
func runAblation(n int, base, variant core.Options, kind crKind) ([]AblationRow, error) {
	n = elemCount(n)
	rows := make([]AblationRow, 0, 20)
	for _, spec := range datagen.Specs() {
		raw := spec.GenerateBytes(n)
		b, err := MeasurePRIMACY(raw, base)
		if err != nil {
			return nil, fmt.Errorf("%s base: %w", spec.Name, err)
		}
		v, err := MeasurePRIMACY(raw, variant)
		if err != nil {
			return nil, fmt.Errorf("%s variant: %w", spec.Name, err)
		}
		row := AblationRow{
			Dataset:    spec.Name,
			BaseCR:     1 / b.CompressedFraction,
			VariantCR:  1 / v.CompressedFraction,
			BaseCTP:    b.CompressBps / 1e6,
			VariantCTP: v.CompressBps / 1e6,
		}
		if kind == crHighOrder {
			row.BaseCR = 1 / b.Stats.SigmaHo
			row.VariantCR = 1 / v.Stats.SigmaHo
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// LinearizationAblation compares column (base) vs row (variant)
// linearization of the ID matrix (Sec. IV-H: columns win ~8-10% CR on the
// identification values).
func LinearizationAblation(n int) ([]AblationRow, error) {
	return runAblation(n, core.Options{}, core.Options{Linearization: core.LinearizeRows}, crHighOrder)
}

// IDMappingAblation compares ranked (base) vs identity (variant) ID
// assignment, isolating the mapper's contribution from the byte split.
func IDMappingAblation(n int) ([]AblationRow, error) {
	return runAblation(n, core.Options{}, core.Options{Mapping: core.MapIdentity}, crHighOrder)
}

// ISOBARAblation compares ISOBAR partitioning (base) against compressing
// every mantissa byte column (variant) — the no-waste principle.
func ISOBARAblation(n int) ([]AblationRow, error) {
	return runAblation(n, core.Options{}, core.Options{DisableISOBAR: true}, crEndToEnd)
}

// ISOBARModeAblation compares the byte-entropy classifier (base) against
// the ISOBAR paper's literal bit-frequency classifier (variant); the two
// should broadly agree, validating the byte-level default.
func ISOBARModeAblation(n int) ([]AblationRow, error) {
	return runAblation(n, core.Options{},
		core.Options{ISOBAR: isobar.Options{Mode: isobar.ModeBitFrequency}}, crEndToEnd)
}

// ChunkSizeRow is one point of the chunk-size sweep (Sec. II-B).
type ChunkSizeRow struct {
	Dataset    string
	ChunkBytes int
	CR         float64
	CTPMBs     float64
}

// ChunkSizeSweep measures CR and CTP across chunk sizes around the paper's
// 3 MB choice for two representative datasets.
func ChunkSizeSweep(n int) ([]ChunkSizeRow, error) {
	n = elemCount(n)
	sizes := []int{256 << 10, 512 << 10, 1 << 20, 3 << 20, 8 << 20}
	var rows []ChunkSizeRow
	for _, name := range []string{"num_comet", "obs_temp"} {
		spec, _ := datagen.ByName(name)
		raw := spec.GenerateBytes(n)
		for _, cs := range sizes {
			r, err := MeasurePRIMACY(raw, core.Options{ChunkBytes: cs})
			if err != nil {
				return nil, err
			}
			rows = append(rows, ChunkSizeRow{
				Dataset:    name,
				ChunkBytes: cs,
				CR:         1 / r.CompressedFraction,
				CTPMBs:     r.CompressBps / 1e6,
			})
		}
	}
	return rows, nil
}

// IndexReuseRow compares per-chunk indexing with coverage-based reuse
// (Sec. II-F future work).
type IndexReuseRow struct {
	Dataset        string
	PerChunkCR     float64
	ReuseCR        float64
	PerChunkCount  int
	ReuseCount     int
	PerChunkCTPMBs float64
	ReuseCTPMBs    float64
}

// IndexReuseStudy runs both index modes with small chunks so multi-chunk
// behaviour shows even on moderate inputs.
func IndexReuseStudy(n int) ([]IndexReuseRow, error) {
	n = elemCount(n)
	const chunk = 256 << 10
	rows := make([]IndexReuseRow, 0, 20)
	for _, spec := range datagen.Specs() {
		raw := spec.GenerateBytes(n)
		per, err := MeasurePRIMACY(raw, core.Options{ChunkBytes: chunk})
		if err != nil {
			return nil, err
		}
		reuse, err := MeasurePRIMACY(raw, core.Options{ChunkBytes: chunk, IndexMode: core.IndexReuse})
		if err != nil {
			return nil, err
		}
		rows = append(rows, IndexReuseRow{
			Dataset:        spec.Name,
			PerChunkCR:     1 / per.CompressedFraction,
			ReuseCR:        1 / reuse.CompressedFraction,
			PerChunkCount:  per.Stats.IndexesEmitted,
			ReuseCount:     reuse.Stats.IndexesEmitted,
			PerChunkCTPMBs: per.CompressBps / 1e6,
			ReuseCTPMBs:    reuse.CompressBps / 1e6,
		})
	}
	return rows, nil
}

// PredictiveRow is one dataset line of the Sec. V comparison against the
// predictive coders fpc and fpzip, on original and permuted data.
type PredictiveRow struct {
	Dataset string
	// Compression ratios, original order.
	PrimacyCR, FpcCR, FpzipCR float64
	// Compression ratios, permuted order.
	PrimacyPermCR, FpcPermCR, FpzipPermCR float64
	// Compression throughputs, MB/s.
	PrimacyCTP, FpcCTP, FpzipCTP float64
}

// PredictiveComparison regenerates the Sec. V analysis.
func PredictiveComparison(n int) ([]PredictiveRow, error) {
	n = elemCount(n)
	rows := make([]PredictiveRow, 0, 20)
	for _, spec := range datagen.Specs() {
		values := spec.Generate(n)
		raw := bytesplit.Float64sToBytes(values)
		permValues := datagen.Permute(values, spec.Seed+2)
		permRaw := bytesplit.Float64sToBytes(permValues)

		prim, err := MeasurePRIMACY(raw, core.Options{})
		if err != nil {
			return nil, err
		}
		primPerm, err := core.Compress(permRaw, core.Options{})
		if err != nil {
			return nil, err
		}

		fpcEnc, err := fpc.CompressFloat64s(values, fpc.Options{})
		if err != nil {
			return nil, err
		}
		fpcPerm, err := fpc.CompressFloat64s(permValues, fpc.Options{})
		if err != nil {
			return nil, err
		}
		fpcBps, err := timeOp(len(raw), func() error {
			_, err := fpc.CompressFloat64s(values, fpc.Options{})
			return err
		})
		if err != nil {
			return nil, err
		}

		fpzEnc, err := fpzip.Compress(values, fpzip.Dims{NX: len(values)})
		if err != nil {
			return nil, err
		}
		fpzPerm, err := fpzip.Compress(permValues, fpzip.Dims{NX: len(permValues)})
		if err != nil {
			return nil, err
		}
		fpzBps, err := timeOp(len(raw), func() error {
			_, err := fpzip.Compress(values, fpzip.Dims{NX: len(values)})
			return err
		})
		if err != nil {
			return nil, err
		}

		rows = append(rows, PredictiveRow{
			Dataset:       spec.Name,
			PrimacyCR:     1 / prim.CompressedFraction,
			FpcCR:         float64(len(raw)) / float64(len(fpcEnc)),
			FpzipCR:       float64(len(raw)) / float64(len(fpzEnc)),
			PrimacyPermCR: float64(len(permRaw)) / float64(len(primPerm)),
			FpcPermCR:     float64(len(permRaw)) / float64(len(fpcPerm)),
			FpzipPermCR:   float64(len(permRaw)) / float64(len(fpzPerm)),
			PrimacyCTP:    prim.CompressBps / 1e6,
			FpcCTP:        fpcBps / 1e6,
			FpzipCTP:      fpzBps / 1e6,
		})
	}
	return rows, nil
}

// PredictiveSummary aggregates the Sec. V win counts.
type PredictiveSummary struct {
	CRWinsVsFpc, CRWinsVsFpzip     int
	PermWinsVsFpc, PermWinsVsFpzip int
	CTPWinsVsFpc, CTPWinsVsFpzip   int
	MeanCTPVsFpc, MeanCTPVsFpzip   float64
}

// SummarizePredictive computes win counts over PredictiveComparison rows.
func SummarizePredictive(rows []PredictiveRow) PredictiveSummary {
	var s PredictiveSummary
	for _, r := range rows {
		if r.PrimacyCR > r.FpcCR {
			s.CRWinsVsFpc++
		}
		if r.PrimacyCR > r.FpzipCR {
			s.CRWinsVsFpzip++
		}
		if r.PrimacyPermCR > r.FpcPermCR {
			s.PermWinsVsFpc++
		}
		if r.PrimacyPermCR > r.FpzipPermCR {
			s.PermWinsVsFpzip++
		}
		if r.PrimacyCTP > r.FpcCTP {
			s.CTPWinsVsFpc++
		}
		if r.PrimacyCTP > r.FpzipCTP {
			s.CTPWinsVsFpzip++
		}
		s.MeanCTPVsFpc += r.PrimacyCTP / r.FpcCTP
		s.MeanCTPVsFpzip += r.PrimacyCTP / r.FpzipCTP
	}
	if len(rows) > 0 {
		s.MeanCTPVsFpc /= float64(len(rows))
		s.MeanCTPVsFpzip /= float64(len(rows))
	}
	return s
}
