package core

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"primacy/internal/bytesplit"
	"primacy/internal/checksum"
	"primacy/internal/datagen"
	"primacy/internal/faultinject"
	"primacy/internal/precond"
)

// checkContainerCRC holds Stats.CRC32C of a fresh encode and DecompStats.CRC32C
// of its decode to checksum.Sum of the container, and the decode to raw.
func checkContainerCRC(t *testing.T, name string, raw []byte, opts Options) {
	t.Helper()
	var c Codec
	enc, st, err := c.AppendCompressCtx(context.Background(), nil, raw, opts)
	if err != nil {
		t.Fatalf("%s: compress: %v", name, err)
	}
	want := checksum.Sum(enc)
	if st.CRC32C != want {
		t.Errorf("%s: Stats.CRC32C = %#08x, checksum.Sum = %#08x", name, st.CRC32C, want)
	}
	dec, ds, err := c.AppendDecompressCtx(context.Background(), nil, enc)
	if err != nil {
		t.Fatalf("%s: decompress: %v", name, err)
	}
	if ds.CRC32C != want {
		t.Errorf("%s: DecompStats.CRC32C = %#08x, checksum.Sum = %#08x", name, ds.CRC32C, want)
	}
	if string(dec) != string(raw) {
		t.Errorf("%s: round trip differs", name)
	}
}

// TestContainerCRC32C: the CRC32C core assembles from its header and record
// CRCs is the checksum of the whole container, on every dataset under both
// solvers and selection modes (two or three chunks each), on degraded
// chunks and on empty input.
func TestContainerCRC32C(t *testing.T) {
	for _, spec := range datagen.Specs() {
		raw := spec.GenerateBytes(digestValues)
		for _, dc := range digestCases {
			opts := Options{Solver: dc.solver, ChunkBytes: digestChunk}
			opts.Precond.Selection = dc.mode
			checkContainerCRC(t, fmt.Sprintf("%s %s %v", spec.Name, dc.solver, dc.mode), raw, opts)
		}
	}
	raw := bytesplit.Float64sToBytes(syntheticDoubles(20_000, 61))
	p, err := faultinject.NewPanicky("crc-panicky", "zlib")
	if err != nil {
		t.Fatal(err)
	}
	p.PanicEvery = 3 // one solver call in three: some chunks degrade, some do not
	checkContainerCRC(t, "degraded", raw, Options{Solver: p.SolverName, ChunkBytes: 16 << 10})
	checkContainerCRC(t, "empty", nil, Options{})
	checkContainerCRC(t, "empty v3", nil, Options{Solver: "lzo", Precond: PrecondOptions{Selection: precond.APosteriori}})
}

// TestDecompStatsCRC32CCoversData: the decode's CRC32C covers all of the bytes
// it was handed — v1 containers, which carry no record CRCs, and bytes
// trailing the last chunk included — and nothing of dst.
func TestDecompStatsCRC32CCoversData(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("testdata", "v1", "*.prm"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("v1 fixtures: %v, %v", paths, err)
	}
	enc, err := Compress(bytesplit.Float64sToBytes(syntheticDoubles(5_000, 62)), Options{ChunkBytes: 8 << 10})
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string][]byte{"trailing": append(enc[:len(enc):len(enc)], "tail"...)}
	for _, p := range paths {
		if cases[p], err = os.ReadFile(p); err != nil {
			t.Fatal(err)
		}
	}
	for name, data := range cases {
		_, ds, err := new(Codec).AppendDecompressCtx(context.Background(), []byte("prefix"), data)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if want := checksum.Sum(data); ds.CRC32C != want {
			t.Errorf("%s: DecompStats.CRC32C = %#08x, checksum.Sum = %#08x", name, ds.CRC32C, want)
		}
	}
}

// TestAppendDecompressLateOpensOnce: the destination is asked for once, by the
// first chunk that writes, and only by a decode that gets that far; an empty
// container asks at the end.
func TestAppendDecompressLateOpensOnce(t *testing.T) {
	raw := bytesplit.Float64sToBytes(syntheticDoubles(5_000, 63))
	enc, err := Compress(raw, Options{ChunkBytes: 8 << 10})
	if err != nil {
		t.Fatal(err)
	}
	empty, err := Compress(nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	h, err := parseVerifiedHeader(enc)
	if err != nil {
		t.Fatal(err)
	}
	broken := append([]byte(nil), enc...)
	broken[h.end+10] ^= 0x01 // the first record's CRC fails
	for _, tc := range []struct {
		name  string
		data  []byte
		calls int
		want  []byte
	}{
		{"chunks", enc, 1, raw},
		{"empty", empty, 1, nil},
		{"broken first record", broken, 0, nil},
	} {
		calls := 0
		window := make([]byte, 0, len(tc.want))
		out, _, err := new(Codec).AppendDecompressLate(context.Background(), func() []byte {
			calls++
			return window
		}, tc.data)
		if calls != tc.calls {
			t.Errorf("%s: dst called %d times, want %d", tc.name, calls, tc.calls)
		}
		if tc.calls == 0 {
			if !errors.Is(err, ErrChecksum) {
				t.Errorf("%s: %v, want ErrChecksum", tc.name, err)
			}
			continue
		}
		if err != nil || string(out) != string(tc.want) {
			t.Fatalf("%s: %d bytes, %v", tc.name, len(out), err)
		}
		if len(tc.want) > 0 && &out[0] != &window[:1][0] {
			t.Errorf("%s: decoded outside the destination it was given", tc.name)
		}
	}
}
