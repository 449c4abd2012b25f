package experiments

import (
	"bytes"
	"runtime"
	"strings"
	"testing"
	"time"

	"primacy/internal/core"
	"primacy/internal/datagen"
	"primacy/internal/pipeline"
)

// synthetic builds a structurally valid baseline with the given speedup at
// each rung of a 1/2/4 ladder.
func synthetic(gomaxprocs int, speedups map[int]float64) *MulticoreBaseline {
	b := &MulticoreBaseline{
		GOMAXPROCS:   gomaxprocs,
		NumCPU:       gomaxprocs,
		Elements:     1024,
		WorkerCounts: []int{1, 2, 4},
	}
	for _, ds := range []string{"a", "b"} {
		for _, w := range b.WorkerCounts {
			s := speedups[w]
			b.Entries = append(b.Entries, MulticoreEntry{
				Dataset: ds, Workers: w, RawBytes: 8192,
				CompressMBps: 100 * s, Speedup: s, Efficiency: s / float64(w),
			})
		}
	}
	return b
}

func TestMulticoreCheckStructural(t *testing.T) {
	good := synthetic(4, map[int]float64{1: 1, 2: 1.8, 4: 3.1})
	if err := good.Check(); err != nil {
		t.Fatalf("valid baseline rejected: %v", err)
	}

	missing := synthetic(4, map[int]float64{1: 1, 2: 1.8, 4: 3.1})
	missing.Entries = missing.Entries[:len(missing.Entries)-1]
	if err := missing.Check(); err == nil || !strings.Contains(err.Error(), "missing") {
		t.Fatalf("missing cell not caught: %v", err)
	}

	skewed := synthetic(4, map[int]float64{1: 1, 2: 1.8, 4: 3.1})
	skewed.Entries[1].Speedup = 3.0 // contradicts the goodput ratio
	if err := skewed.Check(); err == nil || !strings.Contains(err.Error(), "inconsistent") {
		t.Fatalf("inconsistent speedup not caught: %v", err)
	}

	ladder := synthetic(4, map[int]float64{1: 1, 2: 1.8, 4: 3.1})
	ladder.WorkerCounts = []int{2, 4}
	if err := ladder.Check(); err == nil {
		t.Fatal("ladder without workers=1 accepted")
	}
}

// TestMulticoreCheckScalingAdaptive drives both branches of the adaptive
// check: real speedup demanded with parallelism available, bounded overhead
// demanded without.
func TestMulticoreCheckScalingAdaptive(t *testing.T) {
	scaling := synthetic(4, map[int]float64{1: 1, 2: 1.7, 4: 2.6})
	if err := scaling.CheckScaling(); err != nil {
		t.Fatalf("scaling baseline rejected: %v", err)
	}

	flat := synthetic(4, map[int]float64{1: 1, 2: 1.0, 4: 1.05})
	if err := flat.CheckScaling(); err == nil {
		t.Fatal("flat scaling on a 4-core machine accepted")
	}

	onecore := synthetic(1, map[int]float64{1: 1, 2: 0.93, 4: 0.88})
	if err := onecore.CheckScaling(); err != nil {
		t.Fatalf("bounded 1-core overhead rejected: %v", err)
	}

	drag := synthetic(1, map[int]float64{1: 1, 2: 0.4, 4: 0.3})
	if err := drag.CheckScaling(); err == nil {
		t.Fatal("runaway parallel overhead on 1 core accepted")
	}
}

// TestMeasureMulticoreLive runs the real measurement small and fast and
// holds it to what does not depend on how fast this box is: the parallelism
// is recorded, every (dataset, workers) row is present and self-consistent,
// and every rung of the ladder compresses to the same bytes. The wall-clock
// verdict (CheckScaling) is deliberately not applied here — on a 128 KiB
// input it measures the scheduler's mood, and a faster preconditioner
// shrinks the parallel share further; scaling is recorded by the benchmark
// (pipeline.compress_speedup in bench/) and CheckScaling stays for the
// committed baseline.
func TestMeasureMulticoreLive(t *testing.T) {
	if testing.Short() {
		t.Skip("timing measurement")
	}
	cfg := PerfConfig{
		N:        16 << 10,
		MinTime:  60 * time.Millisecond,
		Samples:  3,
		Datasets: []string{"msg_sweep3d", "num_plasma"},
	}
	b, err := MeasureMulticore(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if b.GOMAXPROCS != runtime.GOMAXPROCS(0) {
		t.Fatalf("recorded GOMAXPROCS %d, live %d", b.GOMAXPROCS, runtime.GOMAXPROCS(0))
	}
	if err := b.Check(); err != nil {
		t.Fatalf("live structural check: %v", err)
	}
	if got, want := len(b.Entries), len(cfg.Datasets)*len(b.WorkerCounts); got != want {
		t.Fatalf("%d rows, want %d (datasets × worker ladder)", got, want)
	}
	for _, ds := range cfg.Datasets {
		spec, ok := datagen.ByName(ds)
		if !ok {
			t.Fatalf("unknown dataset %q", ds)
		}
		raw := spec.GenerateBytes(cfg.N)
		copts := core.Options{ChunkBytes: 8 << 10} // 16 shards: more than any rung of the ladder
		var first []byte
		for _, w := range b.WorkerCounts {
			enc, err := pipeline.Compress(raw, pipeline.Options{Core: copts, Workers: w})
			if err != nil {
				t.Fatalf("%s workers=%d: %v", ds, w, err)
			}
			if first == nil {
				first = enc
			} else if !bytes.Equal(enc, first) {
				t.Fatalf("%s: output at %d workers differs from %d workers", ds, w, b.WorkerCounts[0])
			}
		}
	}
}
