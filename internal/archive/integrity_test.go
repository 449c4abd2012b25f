package archive

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"testing"

	"primacy/internal/bytesplit"
	"primacy/internal/core"
	"primacy/internal/datagen"
	"primacy/internal/faultinject"
)

// entryHeaderLen is the v2 per-entry header size for a given variable name.
func entryHeaderLen(name string) int { return 4 + 2 + len(name) + 4 + 8 + 4 }

// writeSmall builds a compact archive (two variables, two steps) sized for
// exhaustive bit-flip sweeps.
func writeSmall(t *testing.T) ([]byte, map[string][][]float64) {
	t.Helper()
	var buf bytes.Buffer
	w, err := NewWriter(&buf, core.Options{ChunkBytes: 2048})
	if err != nil {
		t.Fatal(err)
	}
	data := map[string][][]float64{}
	spec, _ := datagen.ByName("flash_velx")
	for _, name := range []string{"temp", "pressure"} {
		for step := 0; step < 2; step++ {
			s := spec
			s.Seed += int64(step) + int64(len(name))
			values := s.Generate(200)
			if err := w.PutFloat64s(name, step, values); err != nil {
				t.Fatal(err)
			}
			data[name] = append(data[name], values)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), data
}

// readAllEntries opens the archive and decodes every entry, returning the
// first error hit.
func readAllEntries(blob []byte, want map[string][][]float64) error {
	r, err := NewReader(bytes.NewReader(blob), int64(len(blob)))
	if err != nil {
		return err
	}
	for name, steps := range want {
		for step := range steps {
			if _, err := r.GetFloat64s(name, step); err != nil {
				return err
			}
		}
	}
	return nil
}

// TestV1ArchiveDecodes proves pre-checksum archives still read
// byte-identically after the v2 format bump.
func TestV1ArchiveDecodes(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("testdata", "v1", "raw.bin"))
	if err != nil {
		t.Fatal(err)
	}
	blob, err := os.ReadFile(filepath.Join("testdata", "v1", "archive.par"))
	if err != nil {
		t.Fatal(err)
	}
	if string(blob[:4]) != magicV1 {
		t.Fatalf("fixture magic %q, want v1", blob[:4])
	}
	r, err := NewReader(bytes.NewReader(blob), int64(len(blob)))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range []struct {
		name       string
		step       int
		start, end int // value indices into raw
	}{
		{"temp", 0, 0, 500},
		{"temp", 1, 500, 1000},
		{"pressure", 0, 1000, 2000},
	} {
		got, err := r.GetFloat64s(e.name, e.step)
		if err != nil {
			t.Fatalf("%s@%d: %v", e.name, e.step, err)
		}
		want := raw[e.start*8 : e.end*8]
		if !bytes.Equal(bytesplit.Float64sToBytes(got), want) {
			t.Fatalf("%s@%d: v1 entry did not decode byte-identically", e.name, e.step)
		}
	}
}

// TestEveryBitFlipDetected: any single-bit flip in a v2 archive must fail
// the open or some entry read — never decode silently wrong.
func TestEveryBitFlipDetected(t *testing.T) {
	blob, data := writeSmall(t)
	for bit := 0; bit < len(blob)*8; bit++ {
		if err := readAllEntries(faultinject.FlipBit(blob, bit), data); err == nil {
			t.Fatalf("bit flip %d (byte %d) went completely undetected", bit, bit/8)
		}
	}
}

// TestCorruptionBattery: the shared mutator battery must never panic the
// reader or the salvage open, and salvage fails only with a fault reported.
func TestCorruptionBattery(t *testing.T) {
	blob, data := writeSmall(t)
	for _, m := range faultinject.Battery(blob, 13, 7) {
		if err := readAllEntries(m.Data, data); err == nil && !bytes.Equal(m.Data, blob) {
			// Mutations that keep the bytes intact (e.g. truncate at full
			// length) legitimately read clean.
			t.Fatalf("%s: read clean despite mutation", m.Name)
		}
		// OpenSalvage may fail (nothing recoverable), but not silently.
		if _, rep, err := OpenSalvage(bytes.NewReader(m.Data), int64(len(m.Data))); err != nil && rep.Clean() {
			t.Fatalf("%s: OpenSalvage = %v with a clean report", m.Name, err)
		}
	}
}

// TestSalvageDroppedEntry corrupts one entry's payload: with the TOC still
// intact, salvage must keep every other entry readable and report the loss.
func TestSalvageDroppedEntry(t *testing.T) {
	blob, data := writeSmall(t)
	r, err := NewReader(bytes.NewReader(blob), int64(len(blob)))
	if err != nil {
		t.Fatal(err)
	}
	victim := r.toc[1]
	mid := int(victim.Offset) + entryHeaderLen(victim.Name) + int(victim.Length-uint64(entryHeaderLen(victim.Name)))/2
	mut := faultinject.FlipBit(blob, mid*8)
	sal, rep, err := OpenSalvage(bytes.NewReader(mut), int64(len(mut)))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Clean() {
		t.Fatal("salvage reported clean")
	}
	if sal.NumEntries() != r.NumEntries()-1 {
		t.Fatalf("salvage kept %d entries, want %d", sal.NumEntries(), r.NumEntries()-1)
	}
	for name, steps := range data {
		for step, want := range steps {
			if name == victim.Name && step == int(victim.Step) {
				continue
			}
			got, err := sal.GetFloat64s(name, step)
			if err != nil {
				t.Fatalf("%s@%d lost by salvage: %v", name, step, err)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s@%d value %d mismatch", name, step, i)
				}
			}
		}
	}
}

// TestSalvageRebuildsTOC destroys the TOC and trailer entirely: salvage must
// rebuild it by scanning for entry magics, recovering the real variable
// names and steps from the per-entry headers.
func TestSalvageRebuildsTOC(t *testing.T) {
	blob, data := writeSmall(t)
	tocOffset := binary.LittleEndian.Uint64(blob[len(blob)-12:])
	mut := faultinject.Truncate(blob, int(tocOffset)) // lose TOC and trailer
	if _, err := NewReader(bytes.NewReader(mut), int64(len(mut))); err == nil {
		t.Fatal("strict reader accepted archive without TOC")
	}
	sal, rep, err := OpenSalvage(bytes.NewReader(mut), int64(len(mut)))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Clean() {
		t.Fatal("salvage reported clean despite lost TOC")
	}
	for name, steps := range data {
		for step, want := range steps {
			got, err := sal.GetFloat64s(name, step)
			if err != nil {
				t.Fatalf("%s@%d not recovered from rebuilt TOC: %v", name, step, err)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s@%d value %d mismatch", name, step, i)
				}
			}
		}
	}
}

// TestSalvageV1BareContainers: a v1 archive with its TOC lost has no entry
// headers to recover names from, so salvage exposes the bare containers
// under synthesized names in file order.
func TestSalvageV1BareContainers(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("testdata", "v1", "raw.bin"))
	if err != nil {
		t.Fatal(err)
	}
	blob, err := os.ReadFile(filepath.Join("testdata", "v1", "archive.par"))
	if err != nil {
		t.Fatal(err)
	}
	tocOffset := binary.LittleEndian.Uint64(blob[len(blob)-12:])
	mut := faultinject.Truncate(blob, int(tocOffset))
	sal, rep, err := OpenSalvage(bytes.NewReader(mut), int64(len(mut)))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Clean() {
		t.Fatal("salvage reported clean despite lost TOC")
	}
	if sal.NumEntries() != 3 {
		t.Fatalf("recovered %d entries, want 3", sal.NumEntries())
	}
	got, err := sal.GetFloat64s("recovered-0", 0)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(bytesplit.Float64sToBytes(got), raw[:500*8]) {
		t.Fatal("recovered-0 does not match the first v1 entry")
	}
}

// TestVerifyArchive: OpenSalvage reports clean archives as clean and
// locates faults in corrupt ones.
func TestVerifyArchive(t *testing.T) {
	blob, _ := writeSmall(t)
	_, rep, err := OpenSalvage(bytes.NewReader(blob), int64(len(blob)))
	if err != nil || !rep.Clean() {
		t.Fatalf("clean archive flagged: %v / %v", err, rep)
	}
	mut := faultinject.FlipBit(blob, (len(blob)/3)*8)
	_, rep, err = OpenSalvage(bytes.NewReader(mut), int64(len(mut)))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Clean() {
		t.Fatal("corrupt archive reported clean")
	}
}
