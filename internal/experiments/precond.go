package experiments

import (
	"context"
	"fmt"
	"strings"
	"time"

	"primacy/internal/core"
	"primacy/internal/datagen"
	"primacy/internal/precond"
)

// PrecondModes are the selection modes the preconditioner comparison sweeps,
// in the order they appear in each entry.
var PrecondModes = []precond.SelectionMode{precond.Fixed, precond.APriori, precond.APosteriori}

// PrecondModeResult is one selection mode's outcome on one dataset.
type PrecondModeResult struct {
	Mode            string  `json:"mode"`
	CompressedBytes int     `json:"compressed_bytes"`
	Ratio           float64 `json:"ratio"`
	// CTPMBps is single-pass compression throughput — enough to rank the
	// modes' selection overhead against each other, not a calibrated
	// baseline number.
	CTPMBps float64 `json:"ctp_mbps"`
	// TransformChunks counts chunks per chosen transform (nil for Fixed,
	// which bypasses selection).
	TransformChunks map[string]int `json:"transform_chunks,omitempty"`
}

// PrecondEntry compares the selection modes on one dataset.
type PrecondEntry struct {
	Dataset  string              `json:"dataset"`
	RawBytes int                 `json:"raw_bytes"`
	Modes    []PrecondModeResult `json:"modes"`
}

// Result returns the named mode's result, or nil.
func (e PrecondEntry) Result(mode string) *PrecondModeResult {
	for i := range e.Modes {
		if e.Modes[i].Mode == mode {
			return &e.Modes[i]
		}
	}
	return nil
}

// PrecondComparison is the result of `benchtab -exp precond`: every
// selection mode run over every dataset with one solver.
type PrecondComparison struct {
	Solver   string         `json:"solver"`
	Elements int            `json:"elements_per_dataset"`
	Entries  []PrecondEntry `json:"entries"`
}

// PrecondConfig parameterizes ComparePrecond.
type PrecondConfig struct {
	// N is the per-dataset element count (DefaultN when 0).
	N int
	// Solver names the downstream solver ("zlib" when empty).
	Solver string
	// Datasets overrides the full datagen sweep when non-empty.
	Datasets []string
	// ChunkBytes overrides the codec default chunk size when > 0.
	ChunkBytes int
}

// ComparePrecond compresses every configured dataset under each selection
// mode (Fixed classic chain, APriori sampled classifier, APosteriori trial
// compression) and reports per-mode ratio, throughput, and the per-chunk
// transform decisions — the experiment behind the claim that per-chunk
// preconditioner choice buys compression on real mixtures. Every mode's
// output is round-tripped before it is reported.
func ComparePrecond(cfg PrecondConfig) (*PrecondComparison, error) {
	n := elemCount(cfg.N)
	solver := cfg.Solver
	if solver == "" {
		solver = "zlib"
	}
	names := cfg.Datasets
	if len(names) == 0 {
		for _, spec := range datagen.Specs() {
			names = append(names, spec.Name)
		}
	}
	out := &PrecondComparison{Solver: solver, Elements: n}
	var codec core.Codec
	for _, name := range names {
		spec, ok := datagen.ByName(name)
		if !ok {
			return nil, fmt.Errorf("experiments: unknown dataset %q", name)
		}
		raw := spec.GenerateBytes(n)
		entry := PrecondEntry{Dataset: name, RawBytes: len(raw)}
		for _, mode := range PrecondModes {
			opts := core.Options{Solver: solver, ChunkBytes: cfg.ChunkBytes}
			if mode != precond.Fixed {
				opts.Precond = core.PrecondOptions{Selection: mode}
			}
			start := time.Now()
			enc, stats, err := codec.AppendCompressCtx(context.Background(), nil, raw, opts)
			if err != nil {
				return nil, fmt.Errorf("experiments: %s/%s/%s: %w", solver, name, mode, err)
			}
			elapsed := time.Since(start).Seconds()
			dec, err := codec.Decompress(enc)
			if err != nil || len(dec) != len(raw) {
				return nil, fmt.Errorf("experiments: %s/%s/%s: round trip: %w", solver, name, mode, err)
			}
			res := PrecondModeResult{
				Mode:            mode.String(),
				CompressedBytes: len(enc),
				Ratio:           float64(len(raw)) / float64(len(enc)),
				TransformChunks: stats.TransformChunks,
			}
			if elapsed > 0 {
				res.CTPMBps = float64(len(raw)) / elapsed / 1e6
			}
			entry.Modes = append(entry.Modes, res)
		}
		out.Entries = append(out.Entries, entry)
	}
	return out, nil
}

// RenderPrecond prints each dataset's ratio and throughput per selection
// mode, and the transforms the a-posteriori selector picked.
func RenderPrecond(cmp *PrecondComparison) string {
	var b strings.Builder
	fmt.Fprintf(&b, "preconditioner selection (%s, %d elements/dataset):\n", cmp.Solver, cmp.Elements)
	for _, e := range cmp.Entries {
		fmt.Fprintf(&b, "%-16s", e.Dataset)
		for _, m := range e.Modes {
			fmt.Fprintf(&b, "  %s %6.4f (%6.1f MB/s)", m.Mode, m.Ratio, m.CTPMBps)
		}
		if a := e.Result("aposteriori"); a != nil && len(a.TransformChunks) > 0 {
			fmt.Fprintf(&b, "  picks %v", a.TransformChunks)
		}
		b.WriteByte('\n')
	}
	return b.String()
}
