package durable

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"primacy/internal/archive"
	"primacy/internal/core"
	"primacy/internal/datagen"
	"primacy/internal/telemetry"
)

// TestIndexHoldsNoValues: in disk mode the store holds no value bytes in
// memory — not after puts, not after a compaction, not after recovery — and
// still gets every entry back. Memory mode keeps every value.
func TestIndexHoldsNoValues(t *testing.T) {
	dir := t.TempDir()
	s, _, err := Open(dir, Options{CompactEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	put := func(s *Store, from, to int) {
		t.Helper()
		for i := from; i < to; i++ {
			if err := s.Put(ctx, "a", "v", i, testValues(100+i, float64(i)), 0); err != nil {
				t.Fatal(err)
			}
		}
	}
	resident := func(s *Store, when string) {
		t.Helper()
		if n := s.ResidentValueBytes(); n != 0 {
			t.Fatalf("%s: %d value bytes held in memory", when, n)
		}
	}
	put(s, 0, 6)
	resident(s, "after puts")
	if err := s.Compact("a"); err != nil {
		t.Fatal(err)
	}
	resident(s, "after a compaction")
	put(s, 6, 9)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, _, err := Open(dir, Options{CompactEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	resident(s2, "after recovery")
	for i := 0; i < 9; i++ {
		got, err := s2.Get("a", "v", i)
		if err != nil || !reflect.DeepEqual(got, testValues(100+i, float64(i))) {
			t.Fatalf("v@%d after recovery: %v", i, err)
		}
	}
	resident(s2, "after gets")

	mem, _, err := Open("", Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer mem.Close()
	put(mem, 0, 3)
	if n, want := mem.ResidentValueBytes(), int64(8*(100+101+102)); n != want {
		t.Fatalf("memory mode holds %d value bytes, want %d", n, want)
	}
}

// TestResumedCompactionMatchesOneBuild: a compaction that continues the
// previous segment — in the process that wrote it or after a restart —
// writes the bytes one archive.Writer writes for the same entries in the
// same order, and encodes only the entries it seals.
func TestResumedCompactionMatchesOneBuild(t *testing.T) {
	copts := core.Options{Solver: "lzo", ChunkBytes: 2048}
	reg := telemetry.NewRegistry()
	archive.EnableTelemetry(reg)
	t.Cleanup(func() { archive.EnableTelemetry(nil) })
	encodes := func() int64 {
		n, _ := reg.Snapshot().Counter("primacy_archive_entries_written_total")
		return n
	}
	name := func(i int) string { return []string{"temp", "rho"}[i%2] }
	dir := t.TempDir()
	ctx := context.Background()
	step := 0
	round := func(s *Store, n int) {
		t.Helper()
		before := encodes()
		for k := 0; k < n; k++ {
			if err := s.Put(ctx, "a", name(step), step, testValues(300+step, float64(step)), 0); err != nil {
				t.Fatal(err)
			}
			step++
		}
		if err := s.Compact("a"); err != nil {
			t.Fatal(err)
		}
		if got := encodes() - before; got != int64(n) {
			t.Fatalf("compaction sealing %d entries encoded %d", n, got)
		}
	}
	s, _, err := Open(dir, Options{CompactEvery: -1, Core: copts})
	if err != nil {
		t.Fatal(err)
	}
	round(s, 3)
	round(s, 2)
	s.Close()
	// Recovery lists sealed entries by name, not in segment order; the
	// segment keeps its own order.
	s, _, err = Open(dir, Options{CompactEvery: -1, Core: copts})
	if err != nil {
		t.Fatal(err)
	}
	round(s, 3)
	s.Close()

	var want bytes.Buffer
	w, err := archive.NewWriter(&want, copts)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < step; i++ {
		if err := w.PutFloat64s(name(i), i, testValues(300+i, float64(i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join(dir, "t_a", fmt.Sprintf("sealed-%016d.par", 3)))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("resumed segment (%d bytes) differs from one build (%d bytes)", len(got), want.Len())
	}
}

// TestGetRacesCompaction: gets and Each of acknowledged entries, run
// while puts land and background compactions move entries from the journal
// into new segments, never fail and never return another entry's bytes.
func TestGetRacesCompaction(t *testing.T) {
	s, _, err := Open(t.TempDir(), Options{NoFsync: true, CompactEvery: 5})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	vals := func(i int) []float64 { return testValues(40+i%7, float64(i)) }
	var acked atomic.Int64
	stop := make(chan struct{})
	errs := make(chan error, 4)
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for k := r; ; k++ {
				select {
				case <-stop:
					return
				default:
				}
				n := int(acked.Load())
				if n == 0 {
					continue
				}
				i := k % n
				if r == 0 {
					snap, err := entriesFrom(s, "a", i)
					if err != nil || len(snap) < n-i || snap[0].Step != i || !reflect.DeepEqual(snap[0].Values, vals(i)) {
						errs <- fmt.Errorf("each from %d of %d: %d entries, %v", i, n, len(snap), err)
						return
					}
					continue
				}
				got, err := s.Get("a", "v", i)
				if err != nil || !reflect.DeepEqual(got, vals(i)) {
					errs <- fmt.Errorf("get v@%d of %d: %d values, %v", i, n, len(got), err)
					return
				}
			}
		}(r)
	}
	ctx := context.Background()
	for i := 0; i < 300; i++ {
		if err := s.Put(ctx, "a", "v", i, vals(i), 0); err != nil {
			t.Error(err)
			break
		}
		acked.Store(int64(i + 1))
		if i%17 == 16 {
			if err := s.Compact("a"); err != nil {
				t.Error(err)
				break
			}
		}
	}
	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// gatedReads blocks the first ReadAt of a file whose name starts with the
// armed prefix until the test releases it: a read caught mid-way.
type gatedReads struct {
	OSFS
	mu               sync.Mutex
	prefix           string
	entered, release chan struct{}
}

func (f *gatedReads) arm(prefix string) (entered, release chan struct{}) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.prefix, f.entered, f.release = prefix, make(chan struct{}), make(chan struct{})
	return f.entered, f.release
}

func (f *gatedReads) ReadAt(name string, p []byte, off int64) (int, error) {
	f.mu.Lock()
	gated := f.prefix != "" && strings.HasPrefix(filepath.Base(name), f.prefix)
	entered, release := f.entered, f.release
	if gated {
		f.prefix = ""
	}
	f.mu.Unlock()
	if gated {
		close(entered)
		<-release
	}
	return f.OSFS.ReadAt(name, p, off)
}

// TestGetHoldsItsEntryAcrossCompaction: a get caught mid-read — of a
// journal record, then of a sealed entry — while a compaction runs still
// returns its entry, because the compaction does not replace the journal or
// remove the old segment until the read is done.
func TestGetHoldsItsEntryAcrossCompaction(t *testing.T) {
	fsys := &gatedReads{}
	s, _, err := Open(t.TempDir(), Options{FS: fsys, NoFsync: true, CompactEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ctx := context.Background()
	for _, tc := range []struct {
		puts   []int
		prefix string
	}{
		{[]int{0, 1, 2}, journalName}, // v@1 journaled
		{[]int{3, 4}, sealedPrefix},   // v@1 sealed in generation 1
	} {
		for _, i := range tc.puts {
			if err := s.Put(ctx, "a", "v", i, testValues(50+i, float64(i)), 0); err != nil {
				t.Fatal(err)
			}
		}
		entered, release := fsys.arm(tc.prefix)
		got := make(chan error, 1)
		go func() {
			v, err := s.Get("a", "v", 1)
			if err == nil && !reflect.DeepEqual(v, testValues(51, 1)) {
				err = fmt.Errorf("%d values that are not v@1's", len(v))
			}
			got <- err
		}()
		<-entered
		compacted := make(chan error, 1)
		go func() { compacted <- s.Compact("a") }()
		select {
		case err := <-compacted:
			close(release)
			t.Fatalf("%s: compaction finished (%v) under a get's read, which then returned %v", tc.prefix, err, <-got)
		case <-time.After(50 * time.Millisecond):
		}
		close(release)
		if err := <-got; err != nil {
			t.Fatalf("%s: get v@1 across a compaction: %v", tc.prefix, err)
		}
		if err := <-compacted; err != nil {
			t.Fatalf("%s: compaction: %v", tc.prefix, err)
		}
	}
}

// TestResumedCompactionStreamsTheSegment: continuing a large sealed segment
// reads it piecewise instead of into the heap, so sealing one 512 KiB entry
// behind a 25 MB segment allocates a small fraction of the segment.
func TestResumedCompactionStreamsTheSegment(t *testing.T) {
	spec, _ := datagen.ByName("obs_temp")
	s, _, err := Open(t.TempDir(), Options{NoFsync: true, CompactEvery: -1, Core: core.Options{Solver: "lzo"}})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ctx := context.Background()
	put := func(step int) {
		t.Helper()
		spec.Seed++
		if err := s.Put(ctx, "a", "temp", step, spec.Generate(64<<10), 0); err != nil {
			t.Fatal(err)
		}
	}
	const sealed = 59 // about 25 MB of segment
	for step := 0; step < sealed; step++ {
		put(step)
	}
	if err := s.Compact("a"); err != nil {
		t.Fatal(err)
	}
	put(sealed)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	if err := s.Compact("a"); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got >= 8<<20 {
		t.Fatalf("sealing one entry behind %d entries allocated %d bytes, want under 8 MiB", sealed, got)
	}
}
