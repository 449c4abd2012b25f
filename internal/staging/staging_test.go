package staging

import (
	"bytes"
	"testing"

	"primacy/internal/core"
	"primacy/internal/datagen"
	"primacy/internal/testenv"
)

func testChunks(t *testing.T, rho, elems int) [][]byte {
	t.Helper()
	spec, ok := datagen.ByName("flash_velx")
	if !ok {
		t.Fatal("dataset missing")
	}
	out := make([][]byte, rho)
	for i := range out {
		s := spec
		s.Seed += int64(i)
		out[i] = s.GenerateBytes(elems)
	}
	return out
}

func writeRead(t *testing.T, cfg Config, chunks [][]byte) (Report, Report) {
	t.Helper()
	var buf bytes.Buffer
	wrep, err := WriteTimestep(cfg, chunks, &buf)
	if err != nil {
		t.Fatalf("WriteTimestep: %v", err)
	}
	got, rrep, err := ReadTimestep(cfg, bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("ReadTimestep: %v", err)
	}
	if len(got) != len(chunks) {
		t.Fatalf("chunk count %d != %d", len(got), len(chunks))
	}
	for i := range chunks {
		if !bytes.Equal(got[i], chunks[i]) {
			t.Fatalf("chunk %d mismatch", i)
		}
	}
	return wrep, rrep
}

func TestNullRoundTrip(t *testing.T) {
	chunks := testChunks(t, 4, 2_000)
	wrep, _ := writeRead(t, Config{Rho: 4}, chunks)
	if wrep.ShippedBytes != wrep.RawBytes {
		t.Fatalf("null codec changed size: %d != %d", wrep.ShippedBytes, wrep.RawBytes)
	}
}

func TestPrimacyRoundTrip(t *testing.T) {
	chunks := testChunks(t, 4, 4_000)
	cfg := Config{Rho: 4, Codec: PrimacyCodec{Opts: core.Options{ChunkBytes: 16 << 10}}}
	wrep, rrep := writeRead(t, cfg, chunks)
	if wrep.ShippedBytes >= wrep.RawBytes {
		t.Fatalf("PRIMACY did not shrink payload: %d >= %d", wrep.ShippedBytes, wrep.RawBytes)
	}
	if rrep.RawBytes != wrep.RawBytes {
		t.Fatalf("read raw bytes %d != write %d", rrep.RawBytes, wrep.RawBytes)
	}
}

func TestVanillaRoundTrip(t *testing.T) {
	chunks := testChunks(t, 2, 2_000)
	for _, sv := range []string{"zlib", "lzo"} {
		writeRead(t, Config{Rho: 2, Codec: VanillaCodec{Solver: sv}}, chunks)
	}
}

func TestCompressionWinsOnSlowDisk(t *testing.T) {
	// The paper's core result, measured in real wall-clock through the
	// throttled pipeline: with a slow disk, PRIMACY's smaller payload wins
	// despite compression time.
	if testenv.RaceEnabled {
		t.Skip("race instrumentation inflates codec CPU time; wall-clock comparison not meaningful")
	}
	chunks := testChunks(t, 4, 16_000) // 4 × 128 KB
	slow := Config{Rho: 4, LinkBps: 512e6, DiskBps: 1.5e6}
	null, _ := writeRead(t, slow, chunks)
	prim := slow
	prim.Codec = PrimacyCodec{Opts: core.Options{ChunkBytes: 64 << 10}}
	prm, _ := writeRead(t, prim, chunks)
	if prm.Throughput <= null.Throughput {
		t.Fatalf("PRIMACY %.1f MB/s <= null %.1f MB/s on a slow disk",
			prm.Throughput/1e6, null.Throughput/1e6)
	}
}

func TestThrottleEnforcesRate(t *testing.T) {
	chunks := testChunks(t, 2, 8_000) // 2 × 64 KB shipped ≈ 128 KB raw
	cfg := Config{Rho: 2, DiskBps: 2e6}
	var buf bytes.Buffer
	rep, err := WriteTimestep(cfg, chunks, &buf)
	if err != nil {
		t.Fatal(err)
	}
	// 128 KB at 2 MB/s >= ~60ms.
	minElapsed := float64(rep.ShippedBytes) / 2e6
	if rep.Elapsed.Seconds() < minElapsed*0.8 {
		t.Fatalf("throttle not enforced: %.3fs for %d bytes at 2MB/s",
			rep.Elapsed.Seconds(), rep.ShippedBytes)
	}
}

func TestValidation(t *testing.T) {
	if _, err := WriteTimestep(Config{Rho: 0}, nil, &bytes.Buffer{}); err == nil {
		t.Fatal("rho=0 accepted")
	}
	if _, err := WriteTimestep(Config{Rho: 2}, make([][]byte, 1), &bytes.Buffer{}); err == nil {
		t.Fatal("chunk count mismatch accepted")
	}
	if _, err := WriteTimestep(Config{Rho: 1, DiskBps: -1}, make([][]byte, 1), &bytes.Buffer{}); err == nil {
		t.Fatal("negative rate accepted")
	}
}

func TestReadCorrupt(t *testing.T) {
	chunks := testChunks(t, 2, 1_000)
	cfg := Config{Rho: 2, Codec: PrimacyCodec{Opts: core.Options{ChunkBytes: 4096}}}
	var buf bytes.Buffer
	if _, err := WriteTimestep(cfg, chunks, &buf); err != nil {
		t.Fatal(err)
	}
	enc := buf.Bytes()
	cases := map[string][]byte{
		"empty":     {},
		"magic":     append([]byte("XXXX"), enc[4:]...),
		"truncated": enc[:len(enc)-7],
	}
	for name, data := range cases {
		if _, _, err := ReadTimestep(cfg, bytes.NewReader(data)); err == nil {
			t.Errorf("%s: corrupt record accepted", name)
		}
	}
	// Wrong rho config.
	bad := cfg
	bad.Rho = 3
	if _, _, err := ReadTimestep(bad, bytes.NewReader(enc)); err == nil {
		t.Error("rho mismatch accepted")
	}
	// Payload bit flip must surface as an error (zlib checksum).
	mut := append([]byte(nil), enc...)
	mut[len(mut)-9] ^= 0xFF
	if out, _, err := ReadTimestep(cfg, bytes.NewReader(mut)); err == nil {
		// A flip in framing may still decode; data must then differ in a
		// detected way — chunk sizes are checked, so identical output means
		// the flip hit dead space, which framed records do not have.
		for i := range out {
			if !bytes.Equal(out[i], chunks[i]) {
				t.Error("corrupt payload decoded silently wrong")
			}
		}
	}
}

func TestMultipleTimestepsSequential(t *testing.T) {
	chunks := testChunks(t, 2, 2_000)
	cfg := Config{Rho: 2, Codec: PrimacyCodec{Opts: core.Options{ChunkBytes: 8192}}}
	var buf bytes.Buffer
	const steps = 3
	for ts := 0; ts < steps; ts++ {
		if _, err := WriteTimestep(cfg, chunks, &buf); err != nil {
			t.Fatal(err)
		}
	}
	r := bytes.NewReader(buf.Bytes())
	for ts := 0; ts < steps; ts++ {
		got, _, err := ReadTimestep(cfg, r)
		if err != nil {
			t.Fatalf("timestep %d: %v", ts, err)
		}
		for i := range chunks {
			if !bytes.Equal(got[i], chunks[i]) {
				t.Fatalf("timestep %d chunk %d mismatch", ts, i)
			}
		}
	}
}
