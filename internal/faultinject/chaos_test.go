// Chaos battery: drives the parallel, stream, and archive paths under
// combined cancellation, transient I/O flake, and injected worker panics,
// asserting the system's three fault-tolerance invariants — no goroutine
// leaks, no partial-state corruption (every surviving artifact decodes or
// salvages cleanly), and byte-identical output on fault-free runs.
package faultinject_test

import (
	"bytes"
	"context"
	"errors"
	"io"
	"math"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"primacy/internal/archive"
	"primacy/internal/bytesplit"
	"primacy/internal/core"
	"primacy/internal/fairshare"
	"primacy/internal/faultinject"
	"primacy/internal/pipeline"
	"primacy/internal/retry"
	"primacy/internal/stream"
)

// chaosData builds deterministic simulation-like float64 bytes.
func chaosData(n int, seed int64) []byte {
	rng := rand.New(rand.NewSource(seed))
	values := make([]float64, n)
	v := 300.0
	for i := range values {
		v += rng.NormFloat64()
		values[i] = v
	}
	return bytesplit.Float64sToBytes(values)
}

// noRetries is an aggressive retry policy with instant backoff for tests.
func noWait() retry.Policy {
	return retry.Policy{Attempts: 5, Sleep: func(time.Duration) {}}
}

// checkGoroutines fails the test if the goroutine count settled above the
// baseline (a real leak grows with the battery's many rounds; small slack
// absorbs runtime helpers).
func checkGoroutines(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		after := runtime.NumGoroutine()
		if after <= before+5 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutine leak: %d -> %d", before, after)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestChaosParallelCompress(t *testing.T) {
	before := runtime.NumGoroutine()
	data := chaosData(60_000, 90)
	popts := pipeline.Options{
		Workers:    4,
		ShardBytes: 64 * 1024,
		Core:       core.Options{ChunkBytes: 32 * 1024},
		Admitter:   fairshare.New(fairshare.Config{MemBudget: 256 * 1024, MaxConcurrent: 3}),
	}
	// Happy-path reference: repeated runs must be byte-identical.
	want, err := pipeline.Compress(data, popts)
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 3; round++ {
		got, err := pipeline.CompressCtx(context.Background(), data, popts)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("round %d: fault-free output not byte-identical", round)
		}
	}
	// Worker panics: every chunk's compression panics, so the whole container
	// degrades to raw passthrough — and still round-trips bit-exactly.
	panicky, err := faultinject.NewPanicky("chaos-panic", "zlib")
	if err != nil {
		t.Fatal(err)
	}
	panicky.PanicEvery = 1
	p2 := popts
	p2.Core.Solver = "chaos-panic"
	enc, err := pipeline.CompressCtx(context.Background(), data, p2)
	if err != nil {
		t.Fatalf("compress-side panics must degrade, not fail: %v", err)
	}
	dec, err := pipeline.Decompress(enc, popts)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dec, data) {
		t.Fatal("panic-degraded container round trip mismatched")
	}
	// Intermittent panics mixed with healthy chunks behave the same way.
	panicky.PanicEvery = 3
	enc, err = pipeline.CompressCtx(context.Background(), data, p2)
	if err != nil {
		t.Fatal(err)
	}
	if dec, err = pipeline.Decompress(enc, popts); err != nil || !bytes.Equal(dec, data) {
		t.Fatalf("intermittent-panic round trip failed: %v", err)
	}
	// Decode-side panics cannot degrade (there is nothing to fall back to);
	// they must surface as a structured per-shard error, not a crash.
	panicky.PanicEvery = 0
	panicky.PanicDecompress = true
	p3 := popts
	p3.Workers = 2
	encClean, err := pipeline.Compress(data, pipeline.Options{
		Workers: 2, ShardBytes: 64 * 1024,
		Core: core.Options{ChunkBytes: 32 * 1024, Solver: "chaos-panic"},
	})
	if err == nil {
		_, err = pipeline.Decompress(encClean, p3)
	}
	var pe *core.PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("decode-side panic surfaced as %v, want *core.PanicError", err)
	}
	// Cancellation storm: cancel at staggered points; every call must return
	// promptly with a context error or complete successfully, never corrupt.
	for round := 0; round < 8; round++ {
		ctx, cancel := context.WithCancel(context.Background())
		go func(r int) {
			for i := 0; i < r*100; i++ {
				runtime.Gosched()
			}
			cancel()
		}(round)
		got, err := pipeline.CompressCtx(ctx, data, popts)
		cancel()
		switch {
		case err == nil:
			if !bytes.Equal(got, want) {
				t.Fatalf("round %d: output after cancel race not byte-identical", round)
			}
		case errors.Is(err, context.Canceled):
		default:
			t.Fatalf("round %d: unexpected error %v", round, err)
		}
	}
	checkGoroutines(t, before)
}

func TestChaosStream(t *testing.T) {
	before := runtime.NumGoroutine()
	raw := chaosData(30_000, 91)
	opts := core.Options{ChunkBytes: 4096}
	// Reference stream.
	var want bytes.Buffer
	w, err := stream.NewWriter(&want, opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write(raw); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	// Flaky, slow sink behind retries + an admitter: identical bytes.
	var got bytes.Buffer
	sink := retry.NewWriter(context.Background(), &faultinject.SlowWriter{
		W:     &faultinject.FlakyWriter{W: &got, FailEvery: 4},
		Delay: 100 * time.Microsecond,
	}, noWait())
	w, err = stream.NewWriterWith(context.Background(), sink, stream.WriterOptions{
		Core:     opts,
		Admitter: fairshare.New(fairshare.Config{MemBudget: 8192, MaxConcurrent: 1}),
	})
	if err != nil {
		t.Fatal(err)
	}
	for off := 0; off < len(raw); off += 1000 {
		end := off + 1000
		if end > len(raw) {
			end = len(raw)
		}
		if _, err := w.Write(raw[off:end]); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatal("stream through flaky slow sink not byte-identical")
	}
	// Flaky source behind retries: exact recovery.
	src := retry.NewReader(nil, &faultinject.FlakyReader{
		R: bytes.NewReader(got.Bytes()), FailEvery: 3,
	}, noWait())
	dec, err := io.ReadAll(stream.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dec, raw) {
		t.Fatal("stream read through flaky source mismatched")
	}
	// A sink that dies permanently mid-stream: the writer goes sticky and
	// what reached the sink before death still salvages cleanly up to the cut.
	var partial bytes.Buffer
	dead := &faultinject.FlakyWriter{W: &partial, FailFrom: 6}
	w, err = stream.NewWriterWith(context.Background(), dead, stream.WriterOptions{Core: opts})
	if err != nil {
		t.Fatal(err)
	}
	var werr error
	for off := 0; off < len(raw) && werr == nil; off += 1000 {
		end := off + 1000
		if end > len(raw) {
			end = len(raw)
		}
		_, werr = w.Write(raw[off:end])
	}
	if werr == nil {
		werr = w.Close()
	}
	if werr == nil {
		t.Fatal("stream into dying sink succeeded")
	}
	sr := stream.NewSalvageReader(bytes.NewReader(partial.Bytes()))
	sal, err := io.ReadAll(sr)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(sal, raw[:len(sal)]) {
		t.Fatal("salvaged prefix is not a prefix of the source — partial-state corruption")
	}
	// Cancellation mid-stream: sticky error, and the partial stream is a
	// clean prefix.
	ctx, cancel := context.WithCancel(context.Background())
	var cut bytes.Buffer
	w, err = stream.NewWriterWith(ctx, &cut, stream.WriterOptions{Core: opts})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write(raw[:8192]); err != nil {
		t.Fatal(err)
	}
	cancel()
	if _, err := w.Write(raw[8192:]); !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	sr = stream.NewSalvageReader(bytes.NewReader(cut.Bytes()))
	sal, err = io.ReadAll(sr)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(sal, raw[:len(sal)]) {
		t.Fatal("cancelled stream left a non-prefix artifact")
	}
	checkGoroutines(t, before)
}

func TestChaosArchive(t *testing.T) {
	before := runtime.NumGoroutine()
	values := make([]float64, 2_000)
	for i := range values {
		v := 250.0 + math.Sin(float64(i)/40)
		values[i] = v
	}
	writeAll := func(w *archive.Writer) error {
		for step := 0; step < 5; step++ {
			if err := w.PutFloat64s("temperature", step, values); err != nil {
				return err
			}
			if err := w.PutFloat64s("pressure", step, values[:500]); err != nil {
				return err
			}
		}
		return w.Close()
	}
	var want bytes.Buffer
	w, err := archive.NewWriter(&want, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := writeAll(w); err != nil {
		t.Fatal(err)
	}
	// Transient flake behind retries: byte-identical archive.
	var got bytes.Buffer
	w2, err := archive.NewWriter(retry.NewWriter(context.Background(),
		&faultinject.FlakyWriter{W: &got, FailEvery: 3}, noWait()), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := writeAll(w2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatal("archive through flaky sink not byte-identical")
	}
	checkGoroutines(t, before)
}

func TestSalvageTruncatedByDeadSource(t *testing.T) {
	// A source that dies mid-transfer leaves a truncated container; salvage
	// must recover every chunk before the cut and report the loss.
	raw := chaosData(60_000, 92)
	enc, err := core.Compress(raw, core.Options{ChunkBytes: 32 * 1024})
	if err != nil {
		t.Fatal(err)
	}
	truncated := readUntilDead(&faultinject.FlakyReader{
		R: bytes.NewReader(enc), FailFrom: 8,
	})
	if len(truncated) == 0 || len(truncated) >= len(enc) {
		t.Fatalf("fixture: dead source delivered %d of %d bytes", len(truncated), len(enc))
	}
	dec, rep, err := core.DecompressSalvage(truncated)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Clean() {
		t.Fatal("truncation not reported")
	}
	if len(dec) == 0 {
		t.Fatal("salvage recovered nothing from a mostly-intact container")
	}
	if !bytes.Equal(dec, raw[:len(dec)]) {
		t.Fatal("salvaged prefix mismatched source")
	}
}

func TestParallelSalvageTruncatedByDeadSource(t *testing.T) {
	raw := chaosData(120_000, 93)
	popts := pipeline.Options{Workers: 4, ShardBytes: 128 * 1024,
		Core: core.Options{ChunkBytes: 32 * 1024}}
	enc, err := pipeline.Compress(raw, popts)
	if err != nil {
		t.Fatal(err)
	}
	truncated := readUntilDead(&faultinject.FlakyReader{
		R: bytes.NewReader(enc), FailFrom: 12,
	})
	if len(truncated) == 0 || len(truncated) >= len(enc) {
		t.Fatalf("fixture: dead source delivered %d of %d bytes", len(truncated), len(enc))
	}
	dec, rep, err := pipeline.DecompressSalvage(truncated, popts)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Clean() {
		t.Fatal("truncation not reported")
	}
	if len(dec) == 0 {
		t.Fatal("salvage recovered nothing")
	}
	if !bytes.Equal(dec, raw[:len(dec)]) {
		t.Fatal("salvaged prefix mismatched source")
	}
}

func TestSalvageThroughFlakyReaderWithRetry(t *testing.T) {
	// Transient read faults behind a retry policy are invisible to salvage:
	// full recovery, clean report.
	raw := chaosData(30_000, 94)
	var buf bytes.Buffer
	w, err := stream.NewWriter(&buf, core.Options{ChunkBytes: 4096})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write(raw); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	src := retry.NewReader(nil, &faultinject.FlakyReader{
		R: bytes.NewReader(buf.Bytes()), FailEvery: 2,
	}, noWait())
	sr := stream.NewSalvageReader(src)
	dec, err := io.ReadAll(sr)
	if err != nil {
		t.Fatal(err)
	}
	if !sr.Report().Clean() {
		t.Fatalf("retried transient faults leaked into the report: %s", sr.Report())
	}
	if !bytes.Equal(dec, raw) {
		t.Fatal("salvage through retried flaky source mismatched")
	}
}

// readUntilDead drains r until its first error, returning what arrived.
func readUntilDead(r io.Reader) []byte {
	var out []byte
	buf := make([]byte, 4096)
	for {
		n, err := r.Read(buf)
		out = append(out, buf[:n]...)
		if err != nil {
			return out
		}
	}
}
