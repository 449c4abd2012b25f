package stream

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"testing"

	"primacy/internal/checksum"
	"primacy/internal/core"
	"primacy/internal/frame"
)

// verifyThenDecode is Reader as it stood while every segment's frame CRC was
// a pass of its own: each segment verified against its frame, then decoded.
// It returns what was decoded before the first failure, and that failure.
func verifyThenDecode(data []byte) ([]byte, error) {
	r := bytes.NewReader(data)
	var m [4]byte
	if _, err := io.ReadFull(r, m[:]); err != nil {
		return nil, fmt.Errorf("%w: missing magic: %v", ErrCorrupt, err)
	}
	if string(m[:]) != magicV1 && string(m[:]) != magicV2 {
		return nil, fmt.Errorf("%w: bad magic %q", ErrCorrupt, m)
	}
	var (
		out []byte
		seg bytes.Buffer
	)
	for {
		f, err := frame.Read(r, &seg, string(m[:]) == magicV2)
		if errors.Is(err, frame.ErrEmpty) {
			return out, nil
		}
		if err == nil {
			err = f.Verify()
		}
		if err != nil {
			return out, fmt.Errorf("%w: segment: %w", ErrCorrupt, err)
		}
		dec, err := core.Decompress(f.Payload)
		if err != nil {
			return out, fmt.Errorf("%w: segment: %w", ErrCorrupt, err)
		}
		out = append(out, dec...)
	}
}

// sameVerdict reports how Reader and verifyThenDecode disagree on data, or ""
// when they agree: on acceptance, on each sentinel, and on the bytes read.
func sameVerdict(data []byte) string {
	got, err := io.ReadAll(NewReader(bytes.NewReader(data)))
	want, werr := verifyThenDecode(data)
	for _, s := range []error{ErrCorrupt, frame.ErrChecksum} {
		if errors.Is(err, s) != errors.Is(werr, s) {
			return fmt.Sprintf("on %q: %v, reference %v", s, err, werr)
		}
	}
	if (err == nil) != (werr == nil) {
		return fmt.Sprintf("%v, reference %v", err, werr)
	}
	if !bytes.Equal(got, want) {
		return fmt.Sprintf("read %d bytes, reference %d", len(got), len(want))
	}
	return ""
}

// frameSegments assembles a stream around ready-made core containers: PRS2
// with a CRC32C per segment (crcs[i] when given, else the right one), or PRS1
// with none.
func frameSegments(v2 bool, crcs map[int][]byte, segs ...[]byte) []byte {
	out := []byte(magicV1)
	if v2 {
		out = []byte(magicV2)
	}
	for i, s := range segs {
		out = binary.LittleEndian.AppendUint32(out, uint32(len(s)))
		if c, ok := crcs[i]; ok && v2 {
			out = append(out, c...)
		} else if v2 {
			out = checksum.Append(out, s)
		}
		out = append(out, s...)
	}
	return binary.LittleEndian.AppendUint32(out, 0)
}

// TestReaderVerdictMatchesVerifyFirst: taking a segment's CRC from core
// changes no verdict. Over every single-byte flip and every cut of a small
// three-segment stream, v2 and v1, and over segment-length lies, Reader agrees
// with verify-then-decode on ErrCorrupt and frame.ErrChecksum and on the
// bytes it reads.
func TestReaderVerdictMatchesVerifyFirst(t *testing.T) {
	enc := encodeStream(t, testData(3*64), 512)
	var segs [][]byte
	for _, f := range segmentFrames(t, enc) {
		segs = append(segs, enc[f[0]+8:f[1]])
	}
	if len(segs) != 3 {
		t.Fatalf("%d segments, want 3", len(segs))
	}
	s0, s1, s2 := segs[0], segs[1], segs[2]
	lieA, lieB := s0[:len(s0)-8], append(append([]byte(nil), s0[len(s0)-8:]...), s1...)
	oldCRCs := map[int][]byte{0: enc[8:12], 1: enc[4+8+len(s0)+4 : 4+8+len(s0)+8]}
	cases := map[string][]byte{
		"v2":                    enc,
		"v1":                    frameSegments(false, nil, s0, s1, s2),
		"length lie":            frameSegments(true, nil, lieA, lieB, s2),
		"length lie, CRCs kept": frameSegments(true, oldCRCs, lieA, lieB, s2),
		"length lie, v1":        frameSegments(false, nil, lieA, lieB, s2),
	}
	if !bytes.Equal(cases["v2"], frameSegments(true, nil, s0, s1, s2)) {
		t.Fatal("frameSegments does not rebuild the stream")
	}
	for name, data := range cases {
		if d := sameVerdict(data); d != "" {
			t.Fatalf("%s: %s", name, d)
		}
		if name != "v2" && name != "v1" {
			continue
		}
		for i := range data {
			for _, x := range []byte{0x01, 0x80} {
				flipped := append([]byte(nil), data...)
				flipped[i] ^= x
				if d := sameVerdict(flipped); d != "" {
					t.Fatalf("%s, byte %d ^ %#02x: %s", name, i, x, d)
				}
			}
		}
		for n := 0; n < len(data); n++ {
			if d := sameVerdict(data[:n]); d != "" {
				t.Fatalf("%s, cut to %d bytes: %s", name, n, d)
			}
		}
	}
}
