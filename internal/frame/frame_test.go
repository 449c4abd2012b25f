package frame_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"strings"
	"testing"

	"primacy/internal/checksum"
	"primacy/internal/core"
	"primacy/internal/frame"
)

var payload = []byte("one independently compressed chunk")

// encode frames p by hand, v2 or v1, so the tests do not take the layout from
// the package they test.
func encode(p []byte, withCRC bool) []byte {
	out := binary.LittleEndian.AppendUint32(nil, uint32(len(p)))
	if withCRC {
		out = binary.LittleEndian.AppendUint32(out, checksum.Sum(p))
	}
	return append(out, p...)
}

// setLen overwrites the length field of the frame at the start of data.
func setLen(data []byte, n uint32) []byte {
	out := append([]byte(nil), data...)
	binary.LittleEndian.PutUint32(out, n)
	return out
}

// outcome is what a frame read ends in.
type outcome int

const (
	intact  outcome = iota
	empty           // ErrEmpty: the end marker
	corrupt         // ErrCorrupt
	badCRC          // parses, but Verify is ErrChecksum
	foreign         // parses and verifies, but the payload is not the one framed
)

type frameCase struct {
	name    string
	data    []byte
	withCRC bool
	want    outcome
	why     string // part of the error message, for corrupt
}

// frameCases covers each way a frame read can end, for v1 and v2.
func frameCases() []frameCase {
	var cases []frameCase
	for _, withCRC := range []bool{false, true} {
		v := "v1 "
		if withCRC {
			v = "v2 "
		}
		whole := encode(payload, withCRC)
		hdr := frame.HeaderLen(withCRC)
		cases = append(cases, frameCase{name: v + "intact", data: whole, withCRC: withCRC, want: intact})
		for cut := 0; cut < hdr; cut++ {
			cases = append(cases, frameCase{name: v + "header cut", data: whole[:cut], withCRC: withCRC, want: corrupt})
		}
		cases = append(cases,
			frameCase{name: v + "payload cut", data: whole[:len(whole)-1], withCRC: withCRC, want: corrupt, why: "payload cut"},
			frameCase{name: v + "length past the end", data: setLen(whole, uint32(len(payload)+1)), withCRC: withCRC, want: corrupt},
			frameCase{name: v + "zero length", data: setLen(whole, 0), withCRC: withCRC, want: empty},
			frameCase{name: v + "bare end marker", data: make([]byte, 4), withCRC: withCRC, want: empty},
			frameCase{name: v + "length over the bound", data: setLen(whole, frame.MaxLen+1), withCRC: withCRC, want: corrupt, why: "over bound"},
		)
	}
	v2 := encode(payload, true)
	flipped := append([]byte(nil), v2...)
	flipped[5] ^= 0x10
	cases = append(cases,
		frameCase{name: "v2 flipped CRC field", data: flipped, withCRC: true, want: badCRC},
		// To a v1 reader the CRC field is the payload's first bytes, and no
		// checksum speaks against them; to a v2 reader a v1 frame's first
		// payload bytes are its CRC, and the payload ends 4 bytes short.
		frameCase{name: "v2 bytes read as v1", data: v2, withCRC: false, want: foreign},
		frameCase{name: "v2 flipped CRC read as v1", data: flipped, withCRC: false, want: foreign},
		frameCase{name: "v1 bytes read as v2", data: encode(payload, false), withCRC: true, want: corrupt, why: "payload cut"},
	)
	return cases
}

// check holds one read's result to its case: err is the read's, f its frame.
func check(t *testing.T, c frameCase, f frame.Frame, err error) {
	t.Helper()
	if err == nil {
		err = f.Verify()
	}
	switch c.want {
	case intact:
		if err != nil || !bytes.Equal(f.Payload, payload) {
			t.Fatalf("got %q, %v; want the payload", f.Payload, err)
		}
	case empty:
		if !errors.Is(err, frame.ErrEmpty) {
			t.Fatalf("got %v, want ErrEmpty", err)
		}
	case corrupt:
		if !errors.Is(err, frame.ErrCorrupt) || !strings.Contains(err.Error(), c.why) {
			t.Fatalf("got %v, want ErrCorrupt (%q)", err, c.why)
		}
	case badCRC:
		if !errors.Is(err, frame.ErrChecksum) {
			t.Fatalf("got %v, want ErrChecksum", err)
		}
	case foreign:
		if err != nil || len(f.Payload) != len(payload) || bytes.Equal(f.Payload, payload) {
			t.Fatalf("got %q, %v; want another %d-byte payload", f.Payload, err, len(payload))
		}
	}
}

// TestNext runs the table through the strict in-memory walk, at offset 0 and
// behind a prefix.
func TestNext(t *testing.T) {
	for _, c := range frameCases() {
		t.Run(c.name, func(t *testing.T) {
			for _, prefix := range [][]byte{nil, []byte("PRP2abcd")} {
				data := append(append([]byte(nil), prefix...), c.data...)
				f, next, err := frame.Next(data, len(prefix), c.withCRC)
				check(t, c, f, err)
				switch {
				case c.want == empty && next != len(prefix)+4:
					t.Fatalf("end marker: next = %d, want %d", next, len(prefix)+4)
				case (c.want == intact || c.want == badCRC) && next != len(data):
					t.Fatalf("next = %d, want %d", next, len(data))
				}
			}
		})
	}
}

// TestRead runs the table through the io.Reader read.
func TestRead(t *testing.T) {
	for _, c := range frameCases() {
		t.Run(c.name, func(t *testing.T) {
			var buf bytes.Buffer
			f, err := frame.Read(bytes.NewReader(c.data), &buf, c.withCRC)
			check(t, c, f, err)
			if c.want == corrupt && len(c.data) < len(encode(payload, c.withCRC)) && !errors.Is(err, io.ErrUnexpectedEOF) {
				t.Fatalf("a cut frame read %v, want io.ErrUnexpectedEOF", err)
			}
		})
	}
}

// TestReadGrowsAsBytesArrive: a length claiming MaxLen with a few bytes behind
// it must fail without allocating anything near the claim.
func TestReadGrowsAsBytesArrive(t *testing.T) {
	data := setLen(encode(payload, true), frame.MaxLen)
	var buf bytes.Buffer
	if _, err := frame.Read(bytes.NewReader(data), &buf, true); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("got %v, want io.ErrUnexpectedEOF", err)
	}
	if buf.Cap() > 1<<20 {
		t.Fatalf("read of a %d-byte claim grew its buffer to %d bytes", frame.MaxLen, buf.Cap())
	}
}

// TestAppendHeaderInPlace: given the output up to a slot, the header lands in
// the slot, and the bytes parse back.
func TestAppendHeaderInPlace(t *testing.T) {
	out := make([]byte, 3+frame.HeaderLen(true)+len(payload))
	copy(out[3+frame.HeaderLen(true):], payload)
	got := frame.AppendHeader(out[:3], len(payload), checksum.Sum(payload))
	if &got[0] != &out[0] {
		t.Fatal("AppendHeader moved an output with room for the header")
	}
	if want := encode(payload, true); !bytes.Equal(out[3:], want) {
		t.Fatalf("framed bytes %x, want %x", out[3:], want)
	}
	f, next, err := frame.Next(out, 3, true)
	if err != nil || f.Verify() != nil || next != len(out) || !bytes.Equal(f.Payload, payload) {
		t.Fatalf("round trip: %q, %d, %v", f.Payload, next, err)
	}
}

// TestScan finds the next frame behind garbage, and only a plausible one whose
// CRC holds.
func TestScan(t *testing.T) {
	good := encode(payload, true)
	bad := append([]byte(nil), good...)
	bad[len(bad)-1] ^= 1
	data := append(append(append([]byte("garbage"), bad...), 0, 0), good...)
	want := len(data) - len(good)
	if got := frame.Scan(data, 0, true, nil); got != want {
		t.Fatalf("Scan = %d, want %d", got, want)
	}
	if got := frame.Scan(data, want+1, true, nil); got != -1 {
		t.Fatalf("Scan past the last frame = %d, want -1", got)
	}
	long := func(p []byte) bool { return len(p) > len(payload) }
	if got := frame.Scan(data, 0, true, long); got != -1 {
		t.Fatalf("Scan with a filter nothing passes = %d, want -1", got)
	}
	// Without CRCs any length that fits is a frame: the damaged one is
	// found first.
	v1 := append([]byte("xx"), encode(payload, false)...)
	if got := frame.Scan(v1, 0, false, func(p []byte) bool { return bytes.Equal(p, payload) }); got != 2 {
		t.Fatalf("v1 Scan = %d, want 2", got)
	}
}

// within reports whether p is a subslice of data starting at off.
func within(data, p []byte, off int) bool {
	if off < 0 || off+len(p) > len(data) {
		return false
	}
	return len(p) == 0 || &data[off] == &p[0]
}

// FuzzFrame: on any bytes, the strict walk, the resync scan, the io.Reader
// read and core's lenient walk never panic, and every payload they return
// lies inside the input.
func FuzzFrame(f *testing.F) {
	two := append(encode(payload, true), encode([]byte("second"), true)...)
	f.Add(two, true)
	f.Add(append(two, 0, 0, 0, 0), true)
	f.Add(encode(payload, false), false)
	f.Add(setLen(two, 0), true)
	f.Add([]byte{0xff, 0xff, 0xff, 0x7f, 1, 2, 3, 4}, true)
	f.Fuzz(func(t *testing.T, data []byte, withCRC bool) {
		for pos := 0; pos < len(data); {
			fr, next, err := frame.Next(data, pos, withCRC)
			if err != nil {
				break
			}
			if next <= pos || !within(data, fr.Payload, next-len(fr.Payload)) {
				t.Fatalf("frame at %d: next %d, payload of %d bytes outside the input", pos, next, len(fr.Payload))
			}
			_ = fr.Verify()
			pos = next
		}
		if pos := frame.Scan(data, 0, withCRC, nil); pos >= 0 {
			fr, _, err := frame.Next(data, pos, withCRC)
			if err != nil || fr.Verify() != nil {
				t.Fatalf("Scan found a frame at %d that Next rejects: %v", pos, err)
			}
		}
		r := bytes.NewReader(data)
		var buf bytes.Buffer
		for off := 0; ; {
			fr, err := frame.Read(r, &buf, withCRC)
			if err != nil {
				break
			}
			off += frame.HeaderLen(withCRC)
			if off+len(fr.Payload) > len(data) || !bytes.Equal(fr.Payload, data[off:off+len(fr.Payload)]) {
				t.Fatalf("Read returned %d bytes that are not the input's at %d", len(fr.Payload), off)
			}
			off += len(fr.Payload)
		}
		pieces, _ := core.WalkFramed(data, 0, withCRC)
		for _, p := range pieces {
			if !within(data, p.Data, p.Off) {
				t.Fatalf("lenient walk: piece of %d bytes at %d outside the input", len(p.Data), p.Off)
			}
		}
	})
}

// TestCheckIsVerifyWithTheSumGiven: Check against the payload's own CRC32C is
// Verify's verdict, and against any other sum a v2 frame fails; a v1 frame
// checks against anything.
func TestCheckIsVerifyWithTheSumGiven(t *testing.T) {
	for _, withCRC := range []bool{false, true} {
		for _, data := range [][]byte{encode(payload, withCRC), encode(payload[1:], withCRC)} {
			f, _, err := frame.Next(data, 0, withCRC)
			if err != nil {
				t.Fatal(err)
			}
			sum := checksum.Sum(f.Payload)
			if got, want := f.Check(sum), f.Verify(); got != want {
				t.Errorf("withCRC %v: Check(own sum) = %v, Verify = %v", withCRC, got, want)
			}
			if err := f.Check(sum ^ 1); withCRC != errors.Is(err, frame.ErrChecksum) {
				t.Errorf("withCRC %v: Check(wrong sum) = %v", withCRC, err)
			}
		}
	}
}
