package experiments

import (
	"fmt"
	"strings"
)

// RenderTableIII formats Table III like the paper's layout.
func RenderTableIII(rows []Table3Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-15s %8s %8s | %8s %8s | %9s %9s | %9s %9s\n",
		"Dataset", "zlibCR", "prmCR", "zlibPCR", "prmPCR",
		"zlibCTP", "prmCTP", "zlibDTP", "prmDTP")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-15s %8.2f %8.2f | %8.2f %8.2f | %9.2f %9.2f | %9.2f %9.2f\n",
			r.Dataset, r.ZlibCR, r.PrimacyCR, r.ZlibPermCR, r.PrimacyPermCR,
			r.ZlibCTP, r.PrimacyCTP, r.ZlibDTP, r.PrimacyDTP)
	}
	s := Summarize(rows)
	fmt.Fprintf(&b, "\nPRIMACY CR wins: %d/%d (paper: 19/20); mean gain %.1f%% (paper ~13%%), max %.1f%% (paper ~25%%)\n",
		s.PrimacyCRWins, len(rows), s.MeanCRGain*100, s.MaxCRGain*100)
	fmt.Fprintf(&b, "mean CTP speedup %.1fx, mean DTP speedup %.1fx (paper: 3-4x both)\n",
		s.MeanCTPSpeedup, s.MeanDTPSpeedup)
	fmt.Fprintf(&b, "permuted-order CR wins: %d/%d (paper: 19/20)\n", s.PermWins, len(rows))
	return b.String()
}

// RenderFig1 prints each dataset's dominant-bit probability per byte
// position (averaged over the byte's 8 bits for compactness).
func RenderFig1(series []Fig1Series) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-15s", "Dataset")
	for byteIdx := 0; byteIdx < 8; byteIdx++ {
		fmt.Fprintf(&b, "  byte%d", byteIdx)
	}
	b.WriteString("   (mean P(dominant bit) per byte position)\n")
	for _, s := range series {
		fmt.Fprintf(&b, "%-15s", s.Dataset)
		for byteIdx := 0; byteIdx < 8; byteIdx++ {
			avg := 0.0
			for bit := 0; bit < 8; bit++ {
				avg += s.P[byteIdx*8+bit]
			}
			fmt.Fprintf(&b, "  %.3f", avg/8)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// RenderFig3 prints the exponent-vs-mantissa distribution summaries.
func RenderFig3(rows []Fig3Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-15s | %8s %9s %8s | %8s %9s %8s\n",
		"Dataset", "expUniq", "expPeak", "expH", "manUniq", "manPeak", "manH")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-15s | %8d %9.5f %8.2f | %8d %9.6f %8.2f\n",
			r.Dataset,
			r.Exponent.Unique, r.Exponent.Peak, r.Exponent.Entropy,
			r.Mantissa.Unique, r.Mantissa.Peak, r.Mantissa.Entropy)
	}
	b.WriteString("\n(exponent pairs: few and concentrated — Fig 3a; mantissa pairs: many and thin — Fig 3b)\n")
	return b.String()
}

// RenderFig4Rates prints the measured inputs behind Figure 4's bars.
func RenderFig4Rates(rates []Fig4Rates) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-12s | %6s %7s %7s %7s %7s %7s | %6s %7s %7s | %6s %7s %7s\n",
		"Dataset", "prmS", "prmCTP", "prmDTP", "Tprec", "Tcomp", "Tdecomp",
		"zlibS", "zlibCTP", "zlibDTP", "lzoS", "lzoCTP", "lzoDTP")
	for _, r := range rates {
		p := r.PRIMACY
		fmt.Fprintf(&b, "%-12s | %6.3f %7.1f %7.1f %7.1f %7.1f %7.1f | %6.3f %7.1f %7.1f | %6.3f %7.1f %7.1f\n",
			r.Dataset, p.CompressedFraction, p.CompressBps/1e6, p.DecompressBps/1e6,
			p.PrecBps/1e6, p.SolverBps/1e6, p.DecompSolverBps/1e6,
			r.Zlib.Sigma, r.Zlib.CompressBps/1e6, r.Zlib.DecompressBps/1e6,
			r.LZO.Sigma, r.LZO.CompressBps/1e6, r.LZO.DecompressBps/1e6)
	}
	b.WriteString("\n(S = compressed/raw; MB/s, the solver rates over solver bytes, the rest over raw bytes)\n")
	return b.String()
}

// RenderFig4 prints Figure 4 bars (MB/s) with the paper's column naming.
func RenderFig4(rows []Fig4Row, write bool) string {
	var b strings.Builder
	kind := "write"
	if !write {
		kind = "read"
	}
	fmt.Fprintf(&b, "End-to-end %s throughput (MB/s); suffix T=theoretical, E=empirical\n", kind)
	fmt.Fprintf(&b, "%-12s %7s %7s %7s %7s %7s %7s %7s %7s\n",
		"Dataset", "PT", "PE", "ZT", "ZE", "LT", "LE", "nullT", "nullE")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-12s %7.2f %7.2f %7.2f %7.2f %7.2f %7.2f %7.2f %7.2f\n",
			r.Dataset, r.PT, r.PE, r.ZT, r.ZE, r.LT, r.LE, r.NullT, r.NullE)
	}
	var pGain, zGain, lGain float64
	for _, r := range rows {
		pGain += r.PE/r.NullE - 1
		zGain += r.ZE/r.NullE - 1
		lGain += r.LE/r.NullE - 1
	}
	n := float64(len(rows))
	if n > 0 {
		if write {
			fmt.Fprintf(&b, "\nmean empirical gain vs null: PRIMACY %+.0f%% (paper +27%%), zlib %+.0f%% (paper +8%%), lzo %+.0f%% (paper +10%%)\n",
				pGain/n*100, zGain/n*100, lGain/n*100)
		} else {
			fmt.Fprintf(&b, "\nmean empirical gain vs null: PRIMACY %+.0f%% (paper +19%%), zlib %+.0f%% (paper -7%%), lzo %+.0f%% (paper -4%%)\n",
				pGain/n*100, zGain/n*100, lGain/n*100)
		}
	}
	return b.String()
}

// RenderRepeatability prints the Sec. II-C repeatability gains.
func RenderRepeatability(rows []RepeatabilityRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-15s %10s %10s %8s\n", "Dataset", "before", "after", "gain")
	mean := 0.0
	for _, r := range rows {
		fmt.Fprintf(&b, "%-15s %10.4f %10.4f %+7.1f%%\n", r.Dataset, r.Before, r.After, r.Gain()*100)
		mean += r.Gain()
	}
	if len(rows) > 0 {
		fmt.Fprintf(&b, "\nmean top-byte repeatability gain: %+.1f%% (paper: ~+15%%)\n",
			mean/float64(len(rows))*100)
	}
	return b.String()
}

// RenderAblation prints base-vs-variant CR and CTP with labels.
func RenderAblation(rows []AblationRow, baseLabel, variantLabel string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-15s | %10s %10s | %12s %12s\n", "Dataset",
		baseLabel+"CR", variantLabel+"CR", baseLabel+"CTP", variantLabel+"CTP")
	var crGain, ctpGain float64
	for _, r := range rows {
		fmt.Fprintf(&b, "%-15s | %10.3f %10.3f | %10.2f %12.2f\n",
			r.Dataset, r.BaseCR, r.VariantCR, r.BaseCTP, r.VariantCTP)
		crGain += r.BaseCR/r.VariantCR - 1
		ctpGain += r.BaseCTP/r.VariantCTP - 1
	}
	if len(rows) > 0 {
		n := float64(len(rows))
		fmt.Fprintf(&b, "\nmean %s advantage: CR %+.1f%%, CTP %+.1f%%\n",
			baseLabel, crGain/n*100, ctpGain/n*100)
	}
	return b.String()
}

// RenderChunkSweep prints the chunk-size sweep.
func RenderChunkSweep(rows []ChunkSizeRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-12s %10s %8s %10s\n", "Dataset", "chunk", "CR", "CTP MB/s")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-12s %9dK %8.3f %10.2f\n", r.Dataset, r.ChunkBytes>>10, r.CR, r.CTPMBs)
	}
	return b.String()
}

// RenderIndexReuse prints the index-reuse study.
func RenderIndexReuse(rows []IndexReuseRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-15s | %8s %8s | %7s %7s | %9s %9s\n",
		"Dataset", "perCR", "reuseCR", "perIdx", "reuseIdx", "perCTP", "reuseCTP")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-15s | %8.3f %8.3f | %7d %7d | %9.2f %9.2f\n",
			r.Dataset, r.PerChunkCR, r.ReuseCR, r.PerChunkCount, r.ReuseCount,
			r.PerChunkCTPMBs, r.ReuseCTPMBs)
	}
	return b.String()
}

// RenderPredictive prints the Sec. V comparison.
func RenderPredictive(rows []PredictiveRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-15s | %7s %7s %7s | %7s %7s %7s | %8s %8s %8s\n",
		"Dataset", "prmCR", "fpcCR", "fpzCR", "prmPCR", "fpcPCR", "fpzPCR",
		"prmCTP", "fpcCTP", "fpzCTP")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-15s | %7.2f %7.2f %7.2f | %7.2f %7.2f %7.2f | %8.2f %8.2f %8.2f\n",
			r.Dataset, r.PrimacyCR, r.FpcCR, r.FpzipCR,
			r.PrimacyPermCR, r.FpcPermCR, r.FpzipPermCR,
			r.PrimacyCTP, r.FpcCTP, r.FpzipCTP)
	}
	s := SummarizePredictive(rows)
	n := len(rows)
	fmt.Fprintf(&b, "\nCR wins vs fpc %d/%d (paper 16/20), vs fpzip %d/%d (paper 13/20)\n",
		s.CRWinsVsFpc, n, s.CRWinsVsFpzip, n)
	fmt.Fprintf(&b, "permuted CR wins vs fpc %d/%d (paper 20/20), vs fpzip %d/%d (paper 19/20)\n",
		s.PermWinsVsFpc, n, s.PermWinsVsFpzip, n)
	fmt.Fprintf(&b, "CTP wins vs fpc %d/%d, vs fpzip %d/%d (paper: 13/20 each); mean CTP %.1fx fpc (paper ~3x), %.1fx fpzip (paper ~2x)\n",
		s.CTPWinsVsFpc, n, s.CTPWinsVsFpzip, n, s.MeanCTPVsFpc, s.MeanCTPVsFpzip)
	return b.String()
}

// RenderModelValidation prints theory-vs-simulation agreement.
func RenderModelValidation(rows []ModelValidationRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-12s | %9s %9s %7s | %9s %9s %7s\n",
		"Dataset", "wModel", "wSim", "wErr", "rModel", "rSim", "rErr")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-12s | %9.2f %9.2f %6.1f%% | %9.2f %9.2f %6.1f%%\n",
			r.Dataset, r.WriteModelMBs, r.WriteSimMBs, r.RelErrWrite()*100,
			r.ReadModelMBs, r.ReadSimMBs, r.RelErrRead()*100)
	}
	return b.String()
}
