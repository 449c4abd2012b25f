package lzo_test

import (
	"bytes"
	"sync/atomic"
	"testing"

	"primacy/internal/core"
	"primacy/internal/datagen"
	"primacy/internal/lzo"
	"primacy/internal/solver"
)

// unsampled is the lzo solver as it was before the sampled early-out, under
// a name as long as "lzo" so container sizes compare. It counts the inputs
// that did not shrink, which are the ones core's no-waste guard discards. A
// chunk's two solver calls run at once, so the counts are atomic.
type unsampled struct{ calls, wasted atomic.Int64 }

func (*unsampled) Name() string { return "lzu" }

func (u *unsampled) CompressTo(dst, src []byte) ([]byte, error) {
	out := lzo.AppendCompressUnsampled(dst, src)
	u.calls.Add(1)
	if len(src) > 0 && len(out)-len(dst) >= len(src) {
		u.wasted.Add(1)
	}
	return out, nil
}

func (*unsampled) DecompressTo(dst, src []byte) ([]byte, error) {
	return lzo.AppendDecompress(dst, src)
}

// TestSampledEarlyOutKeepsContainers is the size guard of the early-out: for
// each of the 20 datasets the PRIMACY container under Solver "lzo" may be at
// most 0.1 % larger than with the match finder run on every byte, and the
// log says how many solver inputs the reference compressed for nothing.
func TestSampledEarlyOutKeepsContainers(t *testing.T) {
	n := 512 << 10 // one 3 MiB chunk and a 1 MiB one
	if testing.Short() {
		n = 128 << 10
	}
	ref := &unsampled{}
	solver.Register(ref)
	for _, spec := range datagen.Specs() {
		raw := spec.GenerateBytes(n)
		got, err := core.Compress(raw, core.Options{Solver: "lzo"})
		if err != nil {
			t.Fatal(err)
		}
		ref.calls.Store(0)
		ref.wasted.Store(0)
		want, err := core.Compress(raw, core.Options{Solver: ref.Name()})
		if err != nil {
			t.Fatal(err)
		}
		if back, err := core.Decompress(got); err != nil || !bytes.Equal(back, raw) {
			t.Fatalf("%s: container does not round-trip: %v", spec.Name, err)
		}
		t.Logf("%-14s container %8d vs %8d unsampled, %d of %d solver inputs did not shrink",
			spec.Name, len(got), len(want), ref.wasted.Load(), ref.calls.Load())
		if len(got) > len(want)+len(want)/1000 {
			t.Errorf("%s: container is %d bytes, over 1.001 x the unsampled %d", spec.Name, len(got), len(want))
		}
	}
}
