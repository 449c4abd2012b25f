package durable

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"primacy/internal/bytesplit"
)

func testValues(n int, seed float64) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = math.Sin(seed + float64(i)*0.1)
	}
	return out
}

func TestJournalRoundTrip(t *testing.T) {
	var buf []byte
	buf = append(buf, journalMagic...)
	want := []struct {
		name   string
		step   uint32
		values []float64
	}{
		{"pressure", 0, testValues(64, 1)},
		{"pressure", 1, testValues(64, 2)},
		{"velocity-x", 7, testValues(3, 3)},
	}
	var offs []int64
	for _, r := range want {
		offs = append(offs, int64(len(buf)))
		buf = appendRecord(buf, r.name, r.step, r.values)
	}
	recs, goodLen, torn := replayJournal(buf)
	if torn != 0 {
		t.Fatalf("clean journal reported %d torn bytes", torn)
	}
	if goodLen != int64(len(buf)) {
		t.Fatalf("goodLen = %d, want %d", goodLen, len(buf))
	}
	if len(recs) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(recs), len(want))
	}
	for i, r := range recs {
		if r.name != want[i].name || r.step != want[i].step {
			t.Fatalf("record %d = %s@%d, want %s@%d", i, r.name, r.step, want[i].name, want[i].step)
		}
		if r.off != offs[i] || r.off+r.size > int64(len(buf)) || (i+1 < len(offs) && r.off+r.size != offs[i+1]) {
			t.Fatalf("record %d at [%d, +%d), written at %d", i, r.off, r.size, offs[i])
		}
		if !bytes.Equal(r.payload, bytesplit.Float64sToBytes(want[i].values)) {
			t.Fatalf("record %d payload mismatch", i)
		}
	}
}

func TestJournalTornTail(t *testing.T) {
	full := append([]byte(nil), journalMagic...)
	full = appendRecord(full, "a", 0, testValues(16, 1))
	mark := len(full)
	full = appendRecord(full, "b", 0, testValues(16, 2))

	for cut := mark + 1; cut < len(full); cut += 7 {
		recs, goodLen, torn := replayJournal(full[:cut])
		if len(recs) != 1 || recs[0].name != "a" {
			t.Fatalf("cut %d: replayed %d records", cut, len(recs))
		}
		if goodLen != int64(mark) {
			t.Fatalf("cut %d: goodLen = %d, want %d", cut, goodLen, mark)
		}
		if torn != int64(cut-mark) {
			t.Fatalf("cut %d: torn = %d, want %d", cut, torn, cut-mark)
		}
	}

	// A flipped bit in the tail record is also a torn tail, not a panic.
	dam := append([]byte(nil), full...)
	dam[mark+12] ^= 0x40
	recs, goodLen, torn := replayJournal(dam)
	if len(recs) != 1 || goodLen != int64(mark) || torn == 0 {
		t.Fatalf("bit flip: recs=%d goodLen=%d torn=%d", len(recs), goodLen, torn)
	}
}

func TestJournalBadMagic(t *testing.T) {
	recs, goodLen, torn := replayJournal([]byte("garbage-not-a-journal"))
	if len(recs) != 0 || goodLen != 0 || torn != 21 {
		t.Fatalf("recs=%d goodLen=%d torn=%d", len(recs), goodLen, torn)
	}
	recs, goodLen, torn = replayJournal(nil)
	if len(recs) != 0 || goodLen != 0 || torn != 0 {
		t.Fatalf("empty: recs=%d goodLen=%d torn=%d", len(recs), goodLen, torn)
	}
}

func TestTenantKeyRoundTrip(t *testing.T) {
	for _, name := range []string{"alpha", "team-a.prod_2", "UPPER", "has space", "sl/ash", "héllo", string([]byte{0, 1})} {
		key := encodeTenant(name)
		if filepath.Base(key) != key || key == "." || key == ".." {
			t.Fatalf("key %q for %q is not a safe path element", key, name)
		}
		back, ok := decodeTenant(key)
		if !ok || back != name {
			t.Fatalf("round trip %q -> %q -> %q (ok=%v)", name, key, back, ok)
		}
	}
	if _, ok := decodeTenant("random-dir"); ok {
		t.Fatal("decoded a non-tenant directory name")
	}
}

func TestMemoryMode(t *testing.T) {
	s, rep, err := Open("", Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if len(rep.Tenants) != 0 {
		t.Fatalf("memory mode recovered %d tenants", len(rep.Tenants))
	}
	ctx := context.Background()
	vals := testValues(32, 1)
	if err := s.Put(ctx, "a", "rho", 0, vals, 0); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(ctx, "a", "rho", 0, vals, 0); !errors.Is(err, ErrExists) {
		t.Fatalf("duplicate put: %v", err)
	}
	if err := s.Put(ctx, "a", "rho", 1, testValues(32, 2), 300); !errors.Is(err, ErrOverBudget) {
		t.Fatalf("over-budget put: %v", err)
	}
	got, err := s.Get("a", "rho", 0)
	if err != nil || len(got) != 32 {
		t.Fatalf("get: %v (%d values)", err, len(got))
	}
	// Steps Put cannot store are missing too, not wrapped onto rho@0.
	for _, step := range []int{9, -1, 1 << 32} {
		if _, err := s.Get("a", "rho", step); !errors.Is(err, ErrNotFound) {
			t.Fatalf("missing entry rho@%d: %v", step, err)
		}
	}
	if _, err := s.Get("nobody", "rho", 0); !errors.Is(err, ErrNotFound) {
		t.Fatalf("missing tenant: %v", err)
	}
	if rb := s.RawBytes("a"); rb != 32*8 {
		t.Fatalf("RawBytes = %d", rb)
	}
}

// entriesFrom collects what Each hands out from the from-th entry on.
func entriesFrom(s *Store, tenant string, from int) ([]Entry, error) {
	var out []Entry
	err := s.Each(tenant, from, func(e Entry) error {
		out = append(out, e)
		return nil
	})
	return out, err
}

// TestEachFrom: Each hands out the entries from the given index on, in put
// order, in both modes and across a compaction, refuses an index past the
// last entry before calling fn, and stops at fn's first error.
func TestEachFrom(t *testing.T) {
	for _, dir := range []string{"", t.TempDir()} {
		s, _, err := Open(dir, Options{CompactEvery: -1})
		if err != nil {
			t.Fatal(err)
		}
		ctx := context.Background()
		for i := 0; i < 5; i++ {
			if err := s.Put(ctx, "a", "v", i, testValues(8, float64(i)), 0); err != nil {
				t.Fatal(err)
			}
			if i == 2 {
				if err := s.Compact("a"); err != nil {
					t.Fatal(err)
				}
			}
		}
		for from := 0; from <= 5; from++ {
			got, err := entriesFrom(s, "a", from)
			if err != nil || len(got) != 5-from {
				t.Fatalf("dir %q: each from %d: %d entries, %v", dir, from, len(got), err)
			}
			for k, e := range got {
				want := testValues(8, float64(from+k))
				if e.Name != "v" || e.Step != from+k || !reflect.DeepEqual(e.Values, want) {
					t.Fatalf("dir %q: each from %d: entry %d is %s@%d", dir, from, k, e.Name, e.Step)
				}
			}
		}
		for _, from := range []int{6, -1} {
			called := false
			err := s.Each("a", from, func(Entry) error { called = true; return nil })
			if !errors.Is(err, ErrNotFound) || called {
				t.Fatalf("dir %q: each from %d: %v, fn called %v", dir, from, err, called)
			}
		}
		stop := errors.New("stop")
		calls := 0
		if err := s.Each("a", 0, func(Entry) error { calls++; return stop }); !errors.Is(err, stop) || calls != 1 {
			t.Fatalf("dir %q: each after fn failed: %v, %d calls", dir, err, calls)
		}
		if got, err := entriesFrom(s, "nobody", 0); err != nil || len(got) != 0 {
			t.Fatalf("unknown tenant: %d entries, %v", len(got), err)
		}
		s.Close()
	}
}

func TestDurableReopen(t *testing.T) {
	dir := t.TempDir()
	s, _, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	type key struct {
		name string
		step int
	}
	want := map[key][]float64{}
	for i := 0; i < 20; i++ {
		v := testValues(16+i, float64(i))
		name := fmt.Sprintf("var%d", i%4)
		if err := s.Put(ctx, "tenant-a", name, i, v, 0); err != nil {
			t.Fatal(err)
		}
		want[key{name, i}] = v
	}
	if err := s.Put(ctx, "tenant-b", "other", 0, testValues(8, 99), 0); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(ctx, "tenant-a", "late", 0, testValues(8, 1), 0); !errors.Is(err, ErrClosed) {
		t.Fatalf("put after close: %v", err)
	}

	s2, rep, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if rep.Dirty() {
		t.Fatalf("clean shutdown reported dirty: %s", rep.Summary())
	}
	if got := s2.Tenants(); len(got) != 2 {
		t.Fatalf("recovered tenants %v", got)
	}
	for k, v := range want {
		got, err := s2.Get("tenant-a", k.name, k.step)
		if err != nil {
			t.Fatalf("get %s@%d: %v", k.name, k.step, err)
		}
		if len(got) != len(v) {
			t.Fatalf("get %s@%d: %d values, want %d", k.name, k.step, len(got), len(v))
		}
		for i := range v {
			if got[i] != v[i] {
				t.Fatalf("get %s@%d: value %d differs", k.name, k.step, i)
			}
		}
	}
}

func TestCompactAndRecover(t *testing.T) {
	dir := t.TempDir()
	s, _, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for i := 0; i < 10; i++ {
		if err := s.Put(ctx, "a", "u", i, testValues(64, float64(i)), 0); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Compact("a"); err != nil {
		t.Fatalf("compact: %v", err)
	}
	tdir := filepath.Join(dir, "t_a")
	ents, err := os.ReadDir(tdir)
	if err != nil {
		t.Fatal(err)
	}
	sealed := 0
	for _, de := range ents {
		if _, ok := parseSealedGen(de.Name()); ok {
			sealed++
		}
	}
	if sealed != 1 {
		t.Fatalf("%d sealed segments after compaction, want 1", sealed)
	}
	jinfo, err := os.Stat(filepath.Join(tdir, journalName))
	if err != nil {
		t.Fatal(err)
	}
	if jinfo.Size() != int64(len(journalMagic)) {
		t.Fatalf("journal not reset after compaction: %d bytes", jinfo.Size())
	}

	// More puts after compaction land in the journal; both layers recover.
	for i := 10; i < 15; i++ {
		if err := s.Put(ctx, "a", "u", i, testValues(64, float64(i)), 0); err != nil {
			t.Fatal(err)
		}
	}
	// Second compaction supersedes the first generation.
	if err := s.Compact("a"); err != nil {
		t.Fatalf("compact 2: %v", err)
	}
	for i := 15; i < 18; i++ {
		if err := s.Put(ctx, "a", "u", i, testValues(64, float64(i)), 0); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()

	s2, rep, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if len(rep.Tenants) != 1 {
		t.Fatalf("recovered %d tenants", len(rep.Tenants))
	}
	tr := rep.Tenants[0]
	if tr.SealedEntries != 15 || tr.JournalEntries != 3 || tr.Entries() != 18 {
		t.Fatalf("recovery split sealed=%d journal=%d total=%d", tr.SealedEntries, tr.JournalEntries, tr.Entries())
	}
	if tr.SealedGen != 2 {
		t.Fatalf("recovered gen %d, want 2", tr.SealedGen)
	}
	for i := 0; i < 18; i++ {
		got, err := s2.Get("a", "u", i)
		if err != nil {
			t.Fatalf("get u@%d: %v", i, err)
		}
		want := testValues(64, float64(i))
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("u@%d value %d differs after compaction round trip", i, j)
			}
		}
	}
}

func TestAutoCompaction(t *testing.T) {
	dir := t.TempDir()
	s, _, err := Open(dir, Options{CompactEvery: 8})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for i := 0; i < 32; i++ {
		if err := s.Put(ctx, "a", "w", i, testValues(32, float64(i)), 0); err != nil {
			t.Fatal(err)
		}
	}
	s.Close() // waits for background compactions

	s2, rep, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if len(rep.Tenants) != 1 || rep.Tenants[0].Entries() != 32 {
		t.Fatalf("recovered %s", rep.Summary())
	}
	if rep.Tenants[0].SealedEntries == 0 {
		t.Fatal("auto-compaction never sealed anything")
	}
}

func TestRecoveryTornTailOnDisk(t *testing.T) {
	dir := t.TempDir()
	s, _, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for i := 0; i < 5; i++ {
		if err := s.Put(ctx, "a", "p", i, testValues(16, float64(i)), 0); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()

	// Simulate a torn final write: append half a record's worth of garbage.
	jpath := filepath.Join(dir, "t_a", journalName)
	f, err := os.OpenFile(jpath, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(append([]byte("PJR1"), bytes.Repeat([]byte{0xAB}, 40)...)); err != nil {
		t.Fatal(err)
	}
	f.Close()

	s2, rep, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Tenants) != 1 {
		t.Fatalf("recovered %d tenants", len(rep.Tenants))
	}
	tr := rep.Tenants[0]
	if tr.TornTailBytes != 44 {
		t.Fatalf("TornTailBytes = %d, want 44", tr.TornTailBytes)
	}
	if tr.Entries() != 5 {
		t.Fatalf("recovered %d entries, want 5", tr.Entries())
	}
	// The torn tail is gone from disk, and the store accepts new appends.
	if err := s2.Put(ctx, "a", "p", 5, testValues(16, 5), 0); err != nil {
		t.Fatal(err)
	}
	s2.Close()

	s3, rep3, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s3.Close()
	if rep3.Dirty() {
		t.Fatalf("second recovery still dirty: %s", rep3.Summary())
	}
	if rep3.Tenants[0].Entries() != 6 {
		t.Fatalf("second recovery got %d entries, want 6", rep3.Tenants[0].Entries())
	}
}

func TestRecoverySkipsForeignDirs(t *testing.T) {
	dir := t.TempDir()
	if err := os.MkdirAll(filepath.Join(dir, "lost+found"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "stray.txt"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	s, rep, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if len(rep.SkippedDirs) != 2 {
		t.Fatalf("SkippedDirs = %v", rep.SkippedDirs)
	}
}
