package model_test

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"

	"primacy/internal/core"
	"primacy/internal/model"
	"primacy/internal/precond"
	"primacy/internal/telemetry"
)

func estTestData(n int, seed int64) []byte {
	rng := rand.New(rand.NewSource(seed))
	out := make([]byte, 0, n*8)
	v := 300.0
	for i := 0; i < n; i++ {
		v += rng.NormFloat64()
		bits := math.Float64bits(v)
		for j := 0; j < 8; j++ {
			out = append(out, byte(bits>>(56-8*j)))
		}
	}
	return out
}

func testEnv() model.Params {
	return model.Params{Rho: 8, Theta: 1200e6, MuWrite: 12e6, MuRead: 200e6}
}

// A real round trip through the codec must yield a fully-populated Params
// and a finite, small compute-side residual: the estimator and the model
// are fed from the same stage measurements, so disagreement beyond the
// decomposition approximation indicates a broken fit.
func TestEstimateFromLiveRoundTrip(t *testing.T) {
	reg := telemetry.NewRegistry()
	core.EnableTelemetry(reg)
	defer core.EnableTelemetry(nil)

	data := estTestData(64<<10, 9)
	enc, err := core.Compress(data, core.Options{ChunkBytes: 64 << 10})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := core.Decompress(enc); err != nil {
		t.Fatal(err)
	}

	est, err := model.EstimateFromSnapshot(reg.Snapshot(), testEnv())
	if err != nil {
		t.Fatal(err)
	}
	p := est.Params
	if math.Abs(p.Alpha1-0.25) > 1e-9 {
		t.Fatalf("Alpha1 = %v, want 0.25 (2 of 8 bytes)", p.Alpha1)
	}
	if p.Alpha2 < 0 || p.Alpha2 > 1 || p.SigmaHo <= 0 || p.SigmaLo < 0 {
		t.Fatalf("structural params out of range: %+v", p)
	}
	if p.TPrec <= 0 || p.TComp <= 0 || p.TDecomp <= 0 {
		t.Fatalf("rate params not populated: %+v", p)
	}
	if p.MetaBytes <= 0 {
		t.Fatalf("MetaBytes = %v, want > 0 (index metadata)", p.MetaBytes)
	}
	if est.Write.Throughput <= 0 || !isFinite(est.Write.Throughput) {
		t.Fatalf("predicted write throughput = %v", est.Write.Throughput)
	}
	if !isFinite(est.WriteResidual) {
		t.Fatalf("write residual = %v, want finite", est.WriteResidual)
	}
	if est.WriteResidual > 0.5 {
		t.Fatalf("write residual = %v, want < 0.5 (model should roughly explain its own inputs)", est.WriteResidual)
	}
	if !est.HasRead {
		t.Fatal("decompression ran but HasRead is false")
	}
	if est.Read.Throughput <= 0 || !isFinite(est.ReadResidual) {
		t.Fatalf("read side: throughput=%v residual=%v", est.Read.Throughput, est.ReadResidual)
	}
}

func TestEstimateNoData(t *testing.T) {
	reg := telemetry.NewRegistry()
	core.EnableTelemetry(reg)
	core.EnableTelemetry(nil)
	if _, err := model.EstimateFromSnapshot(reg.Snapshot(), testEnv()); !errors.Is(err, model.ErrNoData) {
		t.Fatalf("got %v, want ErrNoData", err)
	}
	// Missing series entirely (nothing registered).
	if _, err := model.EstimateFromSnapshot(telemetry.Snapshot{}, testEnv()); !errors.Is(err, model.ErrNoData) {
		t.Fatalf("got %v, want ErrNoData", err)
	}
}

// The fit reads the same seconds core.Stats and core.DecompStats add up, one
// clock read per stage end, so its rates are the codec's own throughputs. The
// a-posteriori case also times the transform choice as the precond stage.
func TestEstimateMatchesStats(t *testing.T) {
	for name, pre := range map[string]core.PrecondOptions{
		"fixed":       {},
		"aposteriori": {Selection: precond.APosteriori},
	} {
		t.Run(name, func(t *testing.T) {
			reg := telemetry.NewRegistry()
			core.EnableTelemetry(reg)
			defer core.EnableTelemetry(nil)

			var c core.Codec
			enc, st, err := c.AppendCompressCtx(context.Background(), nil, estTestData(32<<10, 13), core.Options{ChunkBytes: 64 << 10, Precond: pre})
			if err != nil {
				t.Fatal(err)
			}
			_, ds, err := c.AppendDecompressCtx(context.Background(), nil, enc)
			if err != nil {
				t.Fatal(err)
			}
			snap := reg.Snapshot()
			est, err := model.EstimateFromSnapshot(snap, testEnv())
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range []struct {
				name      string
				got, want float64
			}{
				{"PrecBps", est.PrecBps, st.PrecThroughput()},
				{"SolverBps", est.SolverBps, st.SolverThroughput()},
				{"DecompPrecBps", est.DecompPrecBps, ds.PrecThroughput()},
				{"DecompSolverBps", est.DecompSolverBps, ds.SolverThroughput()},
			} {
				if r.want <= 0 || math.Abs(r.got-r.want) > 1e-9*r.want {
					t.Errorf("%s = %v, Stats say %v", r.name, r.got, r.want)
				}
			}
			h, _ := snap.Histogram("primacy_core_precond_seconds")
			want := int64(st.Chunks)
			if pre.Selection == precond.Fixed {
				want = 0
			}
			if h.Count != want {
				t.Errorf("precond stage observed %d times, want %d", h.Count, want)
			}
		})
	}
}

func isFinite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }
