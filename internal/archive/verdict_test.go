package archive

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"testing"

	"primacy/internal/bytesplit"
	"primacy/internal/checksum"
	"primacy/internal/core"
	"primacy/internal/testenv"
)

// checkFirstGet is GetFloat64s as it was before the entry CRC came from core:
// sum the whole entry against its TOC row, then decode. It is the reference
// every verdict of GetFloat64s is held to.
func checkFirstGet(r *Reader, name string, step int) ([]float64, error) {
	for _, e := range r.toc {
		if e.Name != name || int(e.Step) != step {
			continue
		}
		body, err := r.entryBody(e)
		if err != nil {
			return nil, err
		}
		raw, err := core.Decompress(body)
		if err != nil {
			return nil, err
		}
		values, err := bytesplit.BytesToFloat64s(raw)
		if err != nil {
			return nil, err
		}
		if uint64(len(values)*8) != e.RawLen {
			return nil, fmt.Errorf("%w: %s@%d decoded to %d bytes, TOC says %d",
				ErrCorrupt, name, step, len(values)*8, e.RawLen)
		}
		return values, nil
	}
	return nil, fmt.Errorf("%w: %s@%d", ErrNotFound, name, step)
}

// TestEntryCRCIsTheSumOfItsBytes: the TOC CRC the writer joins from the
// header's and core's sums is the CRC32C of the entry's bytes.
func TestEntryCRCIsTheSumOfItsBytes(t *testing.T) {
	blob, _ := writeSmall(t)
	r, err := NewReader(bytes.NewReader(blob), int64(len(blob)))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range r.toc {
		if got := checksum.Sum(blob[e.Offset : e.Offset+e.Length]); !e.HasCRC || got != e.CRC {
			t.Fatalf("%s@%d: TOC CRC %#x, entry sums to %#x", e.Name, e.Step, e.CRC, got)
		}
	}
}

// TestGetVerdictMatchesCheckFirst: decoding before the entry is summed
// changes no verdict. Over single-byte flips of a small archive, every get
// of an archive that still opens returns what checkFirstGet returns: the
// same error text, or the same values. So does a whole entry under a TOC
// row with the wrong CRC.
func TestGetVerdictMatchesCheckFirst(t *testing.T) {
	blob, data := writeSmall(t)
	stride := 1
	if testenv.RaceEnabled || testing.Short() {
		stride = 7
	}
	checked := 0
	for i := 0; i < len(blob); i += stride {
		for _, x := range []byte{0x01, 0x80} {
			flipped := slices.Clone(blob)
			flipped[i] ^= x
			r, err := NewReader(bytes.NewReader(flipped), int64(len(flipped)))
			if err != nil {
				continue
			}
			for name, steps := range data {
				for step := range steps {
					got, err := r.GetFloat64s(name, step)
					want, werr := checkFirstGet(r, name, step)
					if fmt.Sprint(err) != fmt.Sprint(werr) || !slices.Equal(got, want) {
						t.Fatalf("byte %d ^ %#02x, %s@%d: %v, reference %v", i, x, name, step, err, werr)
					}
					checked++
				}
			}
		}
	}
	if checked == 0 {
		t.Fatal("no flipped archive opened")
	}

	// A TOC row whose CRC is not its entry's, around an entry that is whole:
	// only the entry CRC can tell, and the get must fail on it.
	values := data["temp"][0]
	rawLen := uint64(len(values) * 8)
	enc, err := core.Compress(bytesplit.Float64sToBytes(values), core.Options{ChunkBytes: 2048})
	if err != nil {
		t.Fatal(err)
	}
	frame := append(appendEntryHeader(nil, "temp", 0, rawLen), enc...)
	var buf bytes.Buffer
	w, err := NewWriter(&buf, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.writeEntry("temp", 0, rawLen, frame, checksum.Sum(frame)^1); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := NewReader(bytes.NewReader(buf.Bytes()), int64(buf.Len()))
	if err != nil {
		t.Fatal(err)
	}
	got, err := r.GetFloat64s("temp", 0)
	if _, werr := checkFirstGet(r, "temp", 0); !errors.Is(err, ErrChecksum) || fmt.Sprint(err) != fmt.Sprint(werr) {
		t.Fatalf("entry under a wrong TOC CRC: %d values, %v; reference %v", len(got), err, werr)
	}
}
