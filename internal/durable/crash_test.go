// Crash battery for the durable store. Every scenario scripts puts against a
// crash-simulating filesystem (faultinject.MemFS behind a FaultFS), fires a
// deterministic fault or crash point, simulates the power loss, reopens the
// store on the surviving bytes, and asserts the recovery invariant: exactly
// the acknowledged puts come back, byte-identical, and nothing unacknowledged
// surfaces as data. Lives in package durable_test because faultinject imports
// durable for the FS interface.
package durable_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"primacy/internal/archive"
	"primacy/internal/core"
	"primacy/internal/datagen"
	"primacy/internal/durable"
	"primacy/internal/faultinject"
)

const crashTenant = "crash-tenant"

// crashVals is the deterministic payload for put step i.
func crashVals(i int) []float64 {
	out := make([]float64, 16)
	for j := range out {
		out[j] = float64(i*31+j) * 0.5
	}
	return out
}

func openCrashStore(t *testing.T, fsys durable.FS) (*durable.Store, *durable.RecoveryReport) {
	t.Helper()
	s, rep, err := durable.Open("data", durable.Options{FS: fsys, CompactEvery: -1})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	return s, rep
}

// putUntilError issues puts for steps [0, n) and returns how many were
// acknowledged plus the first error (nil if all landed).
func putUntilError(s *durable.Store, n int) (acked int, err error) {
	ctx := context.Background()
	for i := 0; i < n; i++ {
		if err := s.Put(ctx, crashTenant, "v", i, crashVals(i), 0); err != nil {
			return i, err
		}
	}
	return n, nil
}

// assertExactly asserts the store holds byte-identical values for steps
// [0, acked) of the crash script and nothing else for the tenant.
func assertExactly(t *testing.T, s *durable.Store, acked int) {
	t.Helper()
	n := 0
	if err := s.Each(crashTenant, 0, func(durable.Entry) error { n++; return nil }); err != nil {
		t.Fatalf("each: %v", err)
	}
	if n != acked {
		t.Fatalf("recovered %d entries, want exactly the %d acknowledged", n, acked)
	}
	for i := 0; i < acked; i++ {
		got, err := s.Get(crashTenant, "v", i)
		if err != nil {
			t.Fatalf("acknowledged entry v@%d lost: %v", i, err)
		}
		want := crashVals(i)
		if len(got) != len(want) {
			t.Fatalf("v@%d: %d values, want %d", i, len(got), len(want))
		}
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("v@%d: value %d = %v, want %v (not byte-identical)", i, j, got[j], want[j])
			}
		}
	}
}

// assertAlive proves the recovered store accepts and serves new writes.
func assertAlive(t *testing.T, s *durable.Store) {
	t.Helper()
	if err := s.Put(context.Background(), crashTenant, "post-recovery", 0, crashVals(999), 0); err != nil {
		t.Fatalf("recovered store rejects writes: %v", err)
	}
	if _, err := s.Get(crashTenant, "post-recovery", 0); err != nil {
		t.Fatalf("recovered store lost a fresh write: %v", err)
	}
}

// oneTenant digs the single tenant's recovery out of the report.
func oneTenant(t *testing.T, rep *durable.RecoveryReport) durable.TenantRecovery {
	t.Helper()
	if len(rep.Tenants) != 1 {
		t.Fatalf("recovered %d tenants, want 1 (%s)", len(rep.Tenants), rep.Summary())
	}
	return rep.Tenants[0]
}

// TestCrashTornRecordWrite kills the machine mid-way through a put's journal
// write, with a prefix of the record reaching the platter. Recovery must
// truncate the torn tail and keep every prior acknowledged put.
func TestCrashTornRecordWrite(t *testing.T) {
	// Write #1 is the journal magic at tenant creation; put k is write #1+k.
	for _, ackWant := range []int{0, 1, 5} {
		mfs := faultinject.NewMemFS()
		ffs := &faultinject.FaultFS{Inner: mfs, CrashAtWrite: 2 + ackWant, TornBytes: 13}
		s, _ := openCrashStore(t, ffs)
		acked, err := putUntilError(s, ackWant+3)
		if acked != ackWant {
			t.Fatalf("acked %d puts before crash, want %d", acked, ackWant)
		}
		if !errors.Is(err, faultinject.ErrCrashed) {
			t.Fatalf("crashing put returned %v", err)
		}
		if !ffs.Crashed() {
			t.Fatal("crash point never fired")
		}
		mfs.Crash()

		s2, rep := openCrashStore(t, mfs)
		tr := oneTenant(t, rep)
		if tr.TornTailBytes != 13 {
			t.Fatalf("TornTailBytes = %d, want the 13 torn bytes truncated", tr.TornTailBytes)
		}
		assertExactly(t, s2, ackWant)
		assertAlive(t, s2)
		s2.Close()
	}
}

// TestCrashBeforeFsync kills the machine after a record is fully written but
// before its fsync: the put was never acknowledged, so it must vanish
// entirely — a clean journal, no torn tail.
func TestCrashBeforeFsync(t *testing.T) {
	const ackWant = 4
	mfs := faultinject.NewMemFS()
	// Sync #1 is the journal magic; put k is sync #1+k.
	ffs := &faultinject.FaultFS{Inner: mfs, CrashAtSync: 2 + ackWant}
	s, _ := openCrashStore(t, ffs)
	acked, err := putUntilError(s, ackWant+3)
	if acked != ackWant || !errors.Is(err, faultinject.ErrCrashed) {
		t.Fatalf("acked=%d err=%v", acked, err)
	}
	mfs.Crash()

	s2, rep := openCrashStore(t, mfs)
	tr := oneTenant(t, rep)
	if tr.TornTailBytes != 0 {
		t.Fatalf("unsynced record should vanish, not tear: %d torn bytes", tr.TornTailBytes)
	}
	assertExactly(t, s2, ackWant)
	assertAlive(t, s2)
	s2.Close()
}

// TestNoSpaceRepairsJournal drives the journal into ENOSPC mid-record. The
// failed put must be rejected, the partial record truncated away, and the
// journal must still be clean on the next recovery.
func TestNoSpaceRepairsJournal(t *testing.T) {
	// Record size: 12 framing + 6 body header + 1-byte name + 128 payload.
	const recSize = 147
	mfs := faultinject.NewMemFS()
	ffs := &faultinject.FaultFS{Inner: mfs, FailWriteAfter: 4 + 2*recSize + 30}
	s, _ := openCrashStore(t, ffs)
	acked, err := putUntilError(s, 5)
	if acked != 2 || !errors.Is(err, faultinject.ErrNoSpace) {
		t.Fatalf("acked=%d err=%v, want 2 acked then ENOSPC", acked, err)
	}
	// The store survives the fault (no crash): acked entries stay readable.
	assertExactly(t, s, 2)

	// What hit the disk is a clean journal — the 30-byte partial is gone.
	mfs.Crash()
	s2, rep := openCrashStore(t, mfs)
	tr := oneTenant(t, rep)
	if tr.TornTailBytes != 0 {
		t.Fatalf("repair left a torn tail of %d bytes", tr.TornTailBytes)
	}
	assertExactly(t, s2, 2)
	assertAlive(t, s2)
	s2.Close()
}

// TestFsyncFailureRepairsJournal fails a put's fsync. The record was fully
// written but never became durable-by-contract; the put is rejected and the
// journal truncated back so the unacknowledged record cannot surface.
func TestFsyncFailureRepairsJournal(t *testing.T) {
	const ackWant = 2
	mfs := faultinject.NewMemFS()
	ffs := &faultinject.FaultFS{Inner: mfs, FailSyncAt: 2 + ackWant}
	s, _ := openCrashStore(t, ffs)
	acked, err := putUntilError(s, ackWant+2)
	if acked != ackWant || !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("acked=%d err=%v", acked, err)
	}
	assertExactly(t, s, ackWant)

	mfs.Crash()
	s2, rep := openCrashStore(t, mfs)
	if tr := oneTenant(t, rep); tr.TornTailBytes != 0 {
		t.Fatalf("repair left a torn tail of %d bytes", tr.TornTailBytes)
	}
	assertExactly(t, s2, ackWant)
	s2.Close()
}

// TestCrashDuringSealWrite kills the machine while compaction is streaming
// the sealed segment into its temp file. The temp never became durable; the
// journal remains the sole authority and loses nothing.
func TestCrashDuringSealWrite(t *testing.T) {
	const ackWant = 6
	mfs := faultinject.NewMemFS()
	// Crash on the first write the archive writer issues into the temp file.
	ffs := &faultinject.FaultFS{Inner: mfs, CrashAtWrite: 2 + ackWant}
	s, _ := openCrashStore(t, ffs)
	if acked, err := putUntilError(s, ackWant); acked != ackWant || err != nil {
		t.Fatalf("setup puts: acked=%d err=%v", acked, err)
	}
	if err := s.Compact(crashTenant); !errors.Is(err, faultinject.ErrCrashed) {
		t.Fatalf("compaction returned %v, want the crash", err)
	}
	mfs.Crash()

	s2, rep := openCrashStore(t, mfs)
	tr := oneTenant(t, rep)
	if tr.SealedGen != 0 || tr.SealedEntries != 0 {
		t.Fatalf("a half-written seal surfaced: gen %d, %d entries", tr.SealedGen, tr.SealedEntries)
	}
	if tr.JournalEntries != ackWant {
		t.Fatalf("journal replayed %d entries, want %d", tr.JournalEntries, ackWant)
	}
	assertExactly(t, s2, ackWant)
	assertAlive(t, s2)
	s2.Close()
}

// TestCrashAtSealRename kills the machine at the rename that would publish
// the sealed segment. Same invariant: journal remains authoritative.
func TestCrashAtSealRename(t *testing.T) {
	const ackWant = 6
	mfs := faultinject.NewMemFS()
	ffs := &faultinject.FaultFS{Inner: mfs, CrashAtRename: 1}
	s, _ := openCrashStore(t, ffs)
	if acked, err := putUntilError(s, ackWant); acked != ackWant || err != nil {
		t.Fatalf("setup puts: acked=%d err=%v", acked, err)
	}
	if err := s.Compact(crashTenant); !errors.Is(err, faultinject.ErrCrashed) {
		t.Fatalf("compaction returned %v, want the crash", err)
	}
	mfs.Crash()

	s2, rep := openCrashStore(t, mfs)
	tr := oneTenant(t, rep)
	if tr.SealedGen != 0 {
		t.Fatalf("unpublished seal surfaced as gen %d", tr.SealedGen)
	}
	assertExactly(t, s2, ackWant)
	s2.Close()
}

// TestCrashAtSealDirSync kills the machine between the seal rename and the
// directory fsync that would commit it: the rename rolls back, the journal
// still holds everything.
func TestCrashAtSealDirSync(t *testing.T) {
	const ackWant = 6
	mfs := faultinject.NewMemFS()
	// SyncDirs #1 and #2 happen at tenant creation; #3 commits the seal.
	ffs := &faultinject.FaultFS{Inner: mfs, CrashAtSyncDir: 3}
	s, _ := openCrashStore(t, ffs)
	if acked, err := putUntilError(s, ackWant); acked != ackWant || err != nil {
		t.Fatalf("setup puts: acked=%d err=%v", acked, err)
	}
	if err := s.Compact(crashTenant); !errors.Is(err, faultinject.ErrCrashed) {
		t.Fatalf("compaction returned %v, want the crash", err)
	}
	mfs.Crash()

	s2, rep := openCrashStore(t, mfs)
	tr := oneTenant(t, rep)
	if tr.SealedGen != 0 {
		t.Fatalf("uncommitted seal surfaced as gen %d", tr.SealedGen)
	}
	assertExactly(t, s2, ackWant)
	s2.Close()
}

// TestCrashBetweenSealAndJournalReset kills the machine after the sealed
// segment is fully committed but before the journal is rewritten without the
// sealed records — the double-presence window. Recovery must detect every
// journal record as a duplicate of the sealed state and keep exactly one
// copy.
func TestCrashBetweenSealAndJournalReset(t *testing.T) {
	const ackWant = 6
	mfs := faultinject.NewMemFS()
	// Rename #1 publishes the seal; rename #2 would swap in the reset
	// journal. Crash there.
	ffs := &faultinject.FaultFS{Inner: mfs, CrashAtRename: 2}
	s, _ := openCrashStore(t, ffs)
	if acked, err := putUntilError(s, ackWant); acked != ackWant || err != nil {
		t.Fatalf("setup puts: acked=%d err=%v", acked, err)
	}
	if err := s.Compact(crashTenant); !errors.Is(err, faultinject.ErrCrashed) {
		t.Fatalf("compaction returned %v, want the crash", err)
	}
	mfs.Crash()

	s2, rep := openCrashStore(t, mfs)
	tr := oneTenant(t, rep)
	if tr.SealedEntries != ackWant {
		t.Fatalf("sealed segment recovered %d entries, want %d", tr.SealedEntries, ackWant)
	}
	if tr.JournalDuplicates != ackWant {
		t.Fatalf("JournalDuplicates = %d, want all %d journal records deduplicated", tr.JournalDuplicates, ackWant)
	}
	assertExactly(t, s2, ackWant)
	assertAlive(t, s2)
	s2.Close()
}

// TestRecoverySalvagesCorruptSeal damages a committed sealed segment at rest
// (container magic zeroed) and asserts recovery routes it through the
// archive salvage decoder instead of aborting startup.
func TestRecoverySalvagesCorruptSeal(t *testing.T) {
	const ackWant = 6
	mfs := faultinject.NewMemFS()
	s, _ := openCrashStore(t, mfs)
	if acked, err := putUntilError(s, ackWant); acked != ackWant || err != nil {
		t.Fatalf("setup puts: acked=%d err=%v", acked, err)
	}
	if err := s.Compact(crashTenant); err != nil {
		t.Fatalf("compact: %v", err)
	}
	s.Close()

	sealed := fmt.Sprintf("data/t_%s/sealed-%016d.par", crashTenant, 1)
	// Zero the 4-byte container magic: the clean open fails, the entry
	// headers stay intact for the salvage scan.
	if err := mfs.Corrupt(sealed, func(b []byte) []byte {
		return faultinject.ZeroRegion(b, 0, 4)
	}); err != nil {
		t.Fatalf("corrupting seal: %v", err)
	}

	s2, rep := openCrashStore(t, mfs)
	tr := oneTenant(t, rep)
	if !tr.Salvaged {
		t.Fatalf("corrupt seal did not go through salvage: %s", rep.Summary())
	}
	if got := tr.Entries(); got != ackWant {
		t.Fatalf("salvage recovered %d entries, want %d (%s)", got, ackWant, rep.Summary())
	}
	assertExactly(t, s2, ackWant)
	assertAlive(t, s2)
	s2.Close()
}

// TestRecoveryRemovesLeftoverTemps plants a durable temp file (as a crash
// between a later dir sync and compaction could) and asserts recovery sweeps
// it.
func TestRecoveryRemovesLeftoverTemps(t *testing.T) {
	mfs := faultinject.NewMemFS()
	s, _ := openCrashStore(t, mfs)
	if acked, err := putUntilError(s, 2); acked != 2 || err != nil {
		t.Fatalf("setup puts: acked=%d err=%v", acked, err)
	}
	s.Close()

	tdir := "data/t_" + crashTenant
	f, err := mfs.OpenFile(tdir+"/sealed-0000000000000009.par.tmp", os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte("half a seal"))
	f.Sync()
	f.Close()
	if err := mfs.SyncDir(tdir); err != nil {
		t.Fatal(err)
	}
	mfs.Crash()

	s2, rep := openCrashStore(t, mfs)
	tr := oneTenant(t, rep)
	if tr.TmpRemoved != 1 {
		t.Fatalf("TmpRemoved = %d, want 1", tr.TmpRemoved)
	}
	assertExactly(t, s2, 2)
	s2.Close()
}

// TestEveryCrashPointKeepsAcknowledgedEntries sweeps every write, sync,
// rename and directory-sync crash point of a script that puts and compacts
// by turns, so crashes find entries both journaled and sealed. After each,
// every acknowledged entry reads back byte-identical and nothing else
// surfaces.
func TestEveryCrashPointKeepsAcknowledgedEntries(t *testing.T) {
	script := func(s *durable.Store) (acked int, err error) {
		ctx := context.Background()
		for i := 0; i < 10; i++ {
			if err := s.Put(ctx, crashTenant, "v", i, crashVals(i), 0); err != nil {
				return i, err
			}
			if i%3 == 2 {
				if err := s.Compact(crashTenant); err != nil {
					return i + 1, err
				}
			}
		}
		return 10, nil
	}
	for _, knob := range []struct {
		name string
		set  func(*faultinject.FaultFS, int)
	}{
		{"write", func(f *faultinject.FaultFS, n int) { f.CrashAtWrite = n }},
		{"sync", func(f *faultinject.FaultFS, n int) { f.CrashAtSync = n }},
		{"rename", func(f *faultinject.FaultFS, n int) { f.CrashAtRename = n }},
		{"syncdir", func(f *faultinject.FaultFS, n int) { f.CrashAtSyncDir = n }},
	} {
		for n := 1; ; n++ {
			mfs := faultinject.NewMemFS()
			ffs := &faultinject.FaultFS{Inner: mfs}
			knob.set(ffs, n)
			s, _ := openCrashStore(t, ffs)
			acked, err := script(s)
			if !ffs.Crashed() {
				if err != nil {
					t.Fatalf("%s %d: script failed without a crash: %v", knob.name, n, err)
				}
				s.Close()
				if n == 1 {
					t.Fatalf("%s: the script has no crash point", knob.name)
				}
				break
			}
			if !errors.Is(err, faultinject.ErrCrashed) {
				t.Fatalf("%s %d: crashing script returned %v", knob.name, n, err)
			}
			mfs.Crash()
			s2, _ := openCrashStore(t, mfs)
			assertExactly(t, s2, acked)
			assertAlive(t, s2)
			s2.Close()
		}
	}
}

// sealedReads counts ReadFile calls on sealed segments.
type sealedReads struct {
	durable.FS
	n int
}

func (c *sealedReads) ReadFile(name string) ([]byte, error) {
	if strings.HasPrefix(filepath.Base(name), "sealed-") {
		c.n++
	}
	return c.FS.ReadFile(name)
}

// sealedSegment names generation gen of the crash tenant's sealed segment.
func sealedSegment(gen int) string {
	return fmt.Sprintf("data/t_%s/sealed-%016d.par", crashTenant, gen)
}

// zeroMagic zeroes the 4-byte container magic: the clean open fails, the
// entry headers stay intact for the salvage scan.
func zeroMagic(b []byte) []byte { return faultinject.ZeroRegion(b, 0, 4) }

// TestRecoveryReadsNoSegmentWhole: recovery opens a sealed segment once,
// through ReadAt, and never reads it whole — clean or salvaged — and the
// gets that follow do not either.
func TestRecoveryReadsNoSegmentWhole(t *testing.T) {
	const ackWant = 6
	for _, salvage := range []bool{false, true} {
		mfs := faultinject.NewMemFS()
		s, _ := openCrashStore(t, mfs)
		if acked, err := putUntilError(s, ackWant); acked != ackWant || err != nil {
			t.Fatalf("setup puts: acked=%d err=%v", acked, err)
		}
		if err := s.Compact(crashTenant); err != nil {
			t.Fatalf("compact: %v", err)
		}
		s.Close()
		if salvage {
			if err := mfs.Corrupt(sealedSegment(1), zeroMagic); err != nil {
				t.Fatal(err)
			}
		}

		fsys := &sealedReads{FS: mfs}
		s2, rep := openCrashStore(t, fsys)
		if tr := oneTenant(t, rep); tr.Salvaged != salvage || tr.SealedEntries != ackWant {
			t.Fatalf("salvage %v: %s", salvage, rep.Summary())
		}
		assertExactly(t, s2, ackWant)
		if fsys.n != 0 {
			t.Fatalf("salvage %v: %d ReadFile calls on the sealed segment, want 0", salvage, fsys.n)
		}
		s2.Close()
	}
}

// TestCompactionAfterSalvage: a segment recovery had to salvage is not
// continued: the next compaction writes what one archive.Writer pass over
// the surviving entries and the journaled ones writes, in index order, and
// the reopen after it is clean.
func TestCompactionAfterSalvage(t *testing.T) {
	const ackWant = 6
	for _, tc := range []struct {
		name   string
		damage func([]byte) []byte
	}{
		{"zeroed magic", zeroMagic},
		{"cut in half", func(b []byte) []byte { return faultinject.Truncate(b, len(b)/2) }},
	} {
		mfs := faultinject.NewMemFS()
		s, _ := openCrashStore(t, mfs)
		if acked, err := putUntilError(s, ackWant); acked != ackWant || err != nil {
			t.Fatalf("%s: setup puts: acked=%d err=%v", tc.name, acked, err)
		}
		if err := s.Compact(crashTenant); err != nil {
			t.Fatalf("%s: compact: %v", tc.name, err)
		}
		s.Close()
		if err := mfs.Corrupt(sealedSegment(1), tc.damage); err != nil {
			t.Fatal(err)
		}

		s2, rep := openCrashStore(t, mfs)
		tr := oneTenant(t, rep)
		kept := tr.Entries()
		if !tr.Salvaged || kept == 0 {
			t.Fatalf("%s: %s", tc.name, rep.Summary())
		}
		t.Logf("%s: %d of %d entries survive", tc.name, kept, ackWant)
		// The survivors are a prefix of the steps; two more go to the journal.
		assertExactly(t, s2, kept)
		ctx := context.Background()
		for i := kept; i < kept+2; i++ {
			if err := s2.Put(ctx, crashTenant, "v", i, crashVals(i), 0); err != nil {
				t.Fatal(err)
			}
		}
		if err := s2.Compact(crashTenant); err != nil {
			t.Fatalf("%s: compact after salvage: %v", tc.name, err)
		}
		var want bytes.Buffer
		w, err := archive.NewWriter(&want, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < kept+2; i++ {
			if err := w.PutFloat64s("v", i, crashVals(i)); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		got, err := mfs.ReadFile(sealedSegment(2))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("%s: segment after salvage (%d bytes) differs from one build (%d bytes)", tc.name, len(got), want.Len())
		}
		s2.Close()

		s3, rep := openCrashStore(t, mfs)
		if tr := oneTenant(t, rep); tr.Salvaged || tr.SealedEntries != kept+2 || tr.JournalEntries != 0 {
			t.Fatalf("%s: reopen after compaction: %s", tc.name, rep.Summary())
		}
		assertExactly(t, s3, kept+2)
		s3.Close()
	}
}

// TestReopenHoldsOneEntry: recovery checks a sealed segment one entry at a
// time. Reopening a store whose one segment holds 59 entries of 512 KiB
// allocates a few MiB, not the segment's decoded size; with the segment's
// magic zeroed, the rebuild of its lost TOC adds one read of the file.
func TestReopenHoldsOneEntry(t *testing.T) {
	const entries, n = 59, 64 << 10 // 512 KiB of doubles each
	dir := t.TempDir()
	opts := durable.Options{NoFsync: true, CompactEvery: -1, Core: core.Options{Solver: "lzo"}}
	s, _, err := durable.Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	spec, _ := datagen.ByName("obs_temp")
	for i := 0; i < entries; i++ {
		spec.Seed++
		if err := s.Put(context.Background(), crashTenant, "v", i, spec.Generate(n), 0); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Compact(crashTenant); err != nil {
		t.Fatal(err)
	}
	s.Close()
	segs, err := filepath.Glob(filepath.Join(dir, "*", "sealed-*.par"))
	if err != nil || len(segs) != 1 {
		t.Fatalf("sealed segments %v, %v; want one", segs, err)
	}
	info, err := os.Stat(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name    string
		salvage bool
		limit   uint64
	}{
		{"clean", false, 8 << 20},
		{"zeroed magic", true, uint64(info.Size()) + 8<<20},
	} {
		if tc.salvage {
			f, err := os.OpenFile(segs[0], os.O_WRONLY, 0)
			if err != nil {
				t.Fatal(err)
			}
			_, err = f.WriteAt(make([]byte, 4), 0)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		s, rep, err := durable.Open(dir, opts)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		got := after.TotalAlloc - before.TotalAlloc
		t.Logf("%s: reopening a %.1f MB segment allocated %.1f MB", tc.name, float64(info.Size())/1e6, float64(got)/1e6)
		if tr := oneTenant(t, rep); tr.Salvaged != tc.salvage || tr.Entries() != entries {
			t.Fatalf("%s: %s", tc.name, rep.Summary())
		}
		if got > tc.limit {
			t.Fatalf("%s: reopen allocated %d bytes, want under %d", tc.name, got, tc.limit)
		}
		s.Close()
	}
}
