package faultinject

import (
	"os"
	"testing"
)

// TestMemFSDirEntrySizes: ReadDir reports each file's live length as it was
// when ReadDir ran, written but not yet synced bytes included, and a
// directory as a directory.
func TestMemFSDirEntrySizes(t *testing.T) {
	m := NewMemFS()
	if err := m.MkdirAll("d/sub", 0o755); err != nil {
		t.Fatal(err)
	}
	f, err := m.OpenFile("d/a", os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	sizes := func() map[string]int64 {
		t.Helper()
		ents, err := m.ReadDir("d")
		if err != nil {
			t.Fatal(err)
		}
		out := map[string]int64{}
		for _, e := range ents {
			info, err := e.Info()
			if err != nil {
				t.Fatal(err)
			}
			if info.Name() != e.Name() || info.IsDir() != e.IsDir() {
				t.Fatalf("%s: info says %s, dir %v", e.Name(), info.Name(), info.IsDir())
			}
			out[e.Name()] = info.Size()
		}
		return out
	}
	f.Write(make([]byte, 10))
	before, err := m.ReadDir("d")
	if err != nil {
		t.Fatal(err)
	}
	if got := sizes(); got["a"] != 10 || got["sub"] != 0 || len(got) != 2 {
		t.Fatalf("after a 10-byte write: %v", got)
	}
	f.Write(make([]byte, 5))
	if got := sizes(); got["a"] != 15 {
		t.Fatalf("after 5 more bytes: %v", got)
	}
	if info, _ := before[0].Info(); info.Size() != 10 {
		t.Fatalf("an earlier listing changed its size to %d", info.Size())
	}
	if err := m.Truncate("d/a", 3); err != nil {
		t.Fatal(err)
	}
	if got := sizes(); got["a"] != 3 {
		t.Fatalf("after truncating to 3: %v", got)
	}
}
