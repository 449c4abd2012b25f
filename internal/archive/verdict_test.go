package archive

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"slices"
	"strings"
	"testing"

	"primacy/internal/bytesplit"
	"primacy/internal/checksum"
	"primacy/internal/core"
	"primacy/internal/frame"
	"primacy/internal/pipeline"
	"primacy/internal/stream"
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
		enc, err := readEntry(r.src, e, nil)
		if err != nil {
			return nil, err
		}
		body, err := checkEntry(e, enc)
		if err != nil {
			return nil, err
		}
		raw, err := core.Decompress(body)
		if err != nil {
			return nil, fmt.Errorf("archive: entry %s@%d: %w", name, step, err)
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

// TestVerifyAppliesEveryGetCheck: an archive whose checksums all hold but
// whose TOC row disagrees with its entry (another name or step than the
// entry header's, or another RawLen than the entry decodes to) fails its
// get, so OpenSalvage must drop and report it.
func TestVerifyAppliesEveryGetCheck(t *testing.T) {
	values := sampleValues(300, 1)
	for _, tc := range []struct {
		name string
		edit func(e *tocEntry)
	}{
		{"renamed row", func(e *tocEntry) { e.Name = "tamp" }},
		{"other step", func(e *tocEntry) { e.Step = 7 }},
		{"raw length one double long", func(e *tocEntry) { e.RawLen += 8 }},
		{"raw length not whole doubles", func(e *tocEntry) { e.RawLen-- }},
		{"raw length zero", func(e *tocEntry) { e.RawLen = 0 }},
	} {
		var buf bytes.Buffer
		w, err := NewWriter(&buf, core.Options{ChunkBytes: 1024})
		if err != nil {
			t.Fatal(err)
		}
		if err := w.PutFloat64s("temp", 0, values); err != nil {
			t.Fatal(err)
		}
		tc.edit(&w.toc[0])
		e := w.toc[0]
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		blob := buf.Bytes()
		r, err := NewReader(bytes.NewReader(blob), int64(len(blob)))
		if err != nil {
			t.Fatalf("%s: NewReader = %v; the TOC checksum holds", tc.name, err)
		}
		if _, err := r.GetFloat64s(e.Name, int(e.Step)); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("%s: GetFloat64s = %v, want corruption", tc.name, err)
		}
		_, rep, err := OpenSalvage(bytes.NewReader(blob), int64(len(blob)))
		if err != nil || rep.Clean() {
			t.Fatalf("%s: OpenSalvage = %v, %v; GetFloat64s fails", tc.name, rep, err)
		}
	}
}

// TestCorruptionVerdictEveryFormat: whatever the format, damage decodes to
// one verdict. A flipped byte, and a chunk record that fails its CRC inside
// an outer frame whose CRC holds, are both core.ErrCorrupt and
// core.ErrChecksum, and the message still names the format that failed.
func TestCorruptionVerdictEveryFormat(t *testing.T) {
	values := sampleValues(2000, 3)
	raw := bytesplit.Float64sToBytes(values)
	opts := core.Options{ChunkBytes: 4096}
	cont, err := core.Compress(raw, opts)
	if err != nil {
		t.Fatal(err)
	}
	// badRecord is c with its last chunk record failing its CRC: the
	// container's header CRC still holds.
	badRecord := func(c []byte) []byte {
		c = slices.Clone(c)
		c[len(c)-1] ^= 0x20
		return c
	}
	// reseal is a pipeline or stream container with frames from data[start:]
	// whose first container has a bad record, under a frame CRC that holds.
	reseal := func(data []byte, start int) []byte {
		f, next, err := frame.Next(data, start, true)
		if err != nil {
			t.Fatal(err)
		}
		p := badRecord(f.Payload)
		out := frame.AppendHeader(slices.Clone(data[:start]), len(p), checksum.Sum(p))
		out = append(out, p...)
		return append(out, data[next:]...)
	}

	par, err := pipeline.CompressCtx(context.Background(), raw, pipeline.Options{Core: opts, ShardBytes: len(raw)})
	if err != nil {
		t.Fatal(err)
	}
	var seg bytes.Buffer
	sw, err := stream.NewWriter(&seg, opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sw.Write(raw); err != nil {
		t.Fatal(err)
	}
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}
	archiveOf := func(c []byte) []byte {
		var buf bytes.Buffer
		w, err := NewWriter(&buf, opts)
		if err != nil {
			t.Fatal(err)
		}
		entry := append(appendEntryHeader(nil, "temp", 0, uint64(len(raw))), c...)
		if err := w.writeEntry("temp", 0, uint64(len(raw)), entry, checksum.Sum(entry)); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}

	formats := []struct {
		name   string
		good   []byte
		bad    func() []byte // a chunk record failing its CRC, outer CRCs whole
		decode func([]byte) error
	}{
		{"core", cont, func() []byte { return badRecord(cont) },
			func(b []byte) error { _, err := core.Decompress(b); return err }},
		{"pipeline", par, func() []byte { return reseal(par, 8) },
			func(b []byte) error { _, err := pipeline.Decompress(b, pipeline.Options{}); return err }},
		{"stream", seg.Bytes(), func() []byte { return reseal(seg.Bytes(), 4) },
			func(b []byte) error { _, err := io.ReadAll(stream.NewReader(bytes.NewReader(b))); return err }},
		{"archive", archiveOf(cont), func() []byte { return archiveOf(badRecord(cont)) },
			func(b []byte) error {
				r, err := NewReader(bytes.NewReader(b), int64(len(b)))
				if err == nil {
					_, err = r.GetFloat64s("temp", 0)
				}
				return err
			}},
	}
	for _, f := range formats {
		if err := f.decode(f.good); err != nil {
			t.Fatalf("%s: the undamaged artifact fails: %v", f.name, err)
		}
		flipped := slices.Clone(f.good)
		flipped[len(flipped)/2] ^= 0x20
		for _, c := range []struct {
			damage string
			data   []byte
		}{{"flipped byte", flipped}, {"bad chunk record", f.bad()}} {
			err := f.decode(c.data)
			if !errors.Is(err, core.ErrCorrupt) || !errors.Is(err, core.ErrChecksum) {
				t.Errorf("%s, %s: %v; want core.ErrCorrupt and core.ErrChecksum", f.name, c.damage, err)
			}
			if !strings.HasPrefix(fmt.Sprint(err), f.name+":") {
				t.Errorf("%s, %s: %q does not name the format", f.name, c.damage, err)
			}
		}
	}
}
