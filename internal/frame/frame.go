// Package frame is the one place that knows the length+CRC32C frame PRIMACY
// nests its units in: core chunk records, parallel-container shards and
// stream segments.
//
//	v2 frame = u32 length | u32 crc32c(payload) | payload
//	v1 frame = u32 length | payload
//
// Both integers are little-endian. Writers emit v2 only. No frame is empty: a
// zero length is a stream's end marker. No payload is longer than MaxLen, for
// writers and readers alike, and no reader allocates on a length's claim.
package frame

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"

	"primacy/internal/checksum"
)

// MaxLen is the longest payload a frame carries: the largest length a 32-bit
// int indexes. Writers refuse a longer one, readers reject a longer claim.
const MaxLen = math.MaxInt32

var (
	// ErrChecksum is a payload whose CRC32C is not its frame's: the one
	// checksum sentinel of the core, parallel and stream formats.
	ErrChecksum = errors.New("checksum mismatch")
	// ErrEmpty is a zero length: not a frame, but a stream's end marker.
	ErrEmpty = errors.New("zero-length frame")
	// ErrCorrupt is any other frame that cannot be read: a header or payload
	// cut short, or a length over MaxLen.
	ErrCorrupt = errors.New("bad frame")
)

// HeaderLen is the size of a frame header: the length, and the CRC32C when
// withCRC.
func HeaderLen(withCRC bool) int {
	if withCRC {
		return 8
	}
	return 4
}

// AppendHeader appends the v2 header of a frame of n payload bytes whose
// CRC32C is crc. Given out[:off] of an output with room behind off, it writes
// the header in place, at out[off:off+HeaderLen(true)].
func AppendHeader(dst []byte, n int, crc uint32) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(n))
	return binary.LittleEndian.AppendUint32(dst, crc)
}

// Frame is one parsed frame.
type Frame struct {
	// Payload is the frame's payload, aliasing the bytes it was parsed from.
	Payload []byte
	crc     uint32
	hasCRC  bool
}

// Verify checks the payload against the frame's CRC32C and returns nil or
// ErrChecksum. A v1 frame, which has no CRC, always verifies.
func (f Frame) Verify() error {
	if !f.hasCRC {
		return nil
	}
	return f.Check(checksum.Sum(f.Payload))
}

// Check is Verify for a caller that has the payload's CRC32C already, sum,
// from a pass of its own over the bytes: nil or ErrChecksum, with no second
// pass. A v1 frame always checks.
func (f Frame) Check(sum uint32) error {
	if f.hasCRC && sum != f.crc {
		return ErrChecksum
	}
	return nil
}

// claim reads the length of the frame at data[pos:] and checks it against
// what data holds behind a header of hdr bytes. why is empty for a frame that
// fits, else the reason it does not: no allocation, so Scan may try every
// offset.
func claim(data []byte, pos, hdr int) (n int, why string) {
	if pos < 0 || len(data)-pos < 4 {
		return 0, "header cut short"
	}
	u := binary.LittleEndian.Uint32(data[pos:])
	switch {
	case u == 0:
		return 0, "zero length"
	case len(data)-pos < hdr:
		return 0, "header cut short"
	case u > MaxLen:
		return 0, "length over bound"
	case int(u) > len(data)-pos-hdr:
		return int(u), "payload cut short"
	}
	return int(u), ""
}

// Next parses the frame at data[pos:] and returns it with the offset of the
// byte after it. It checks the header against data and MaxLen, not the CRC:
// that is Verify's, so a caller may leave it to whoever decodes the payload.
// A zero length returns ErrEmpty and the offset after it.
func Next(data []byte, pos int, withCRC bool) (f Frame, next int, err error) {
	hdr := HeaderLen(withCRC)
	n, why := claim(data, pos, hdr)
	switch why {
	case "":
	case "zero length":
		return Frame{}, pos + 4, ErrEmpty
	case "payload cut short":
		return Frame{}, 0, fmt.Errorf("%w: payload cut short: %d bytes claimed, %d remain", ErrCorrupt, n, len(data)-pos-hdr)
	default:
		return Frame{}, 0, fmt.Errorf("%w: %s", ErrCorrupt, why)
	}
	f.Payload = data[pos+hdr : pos+hdr+n]
	if withCRC {
		f.crc, f.hasCRC = binary.LittleEndian.Uint32(data[pos+4:]), true
	}
	return f, pos + hdr + n, nil
}

// Scan returns the first offset at or after from where a frame fits in data,
// its payload is plausible and, withCRC, its CRC32C verifies; -1 when there is
// none. It is how a reader finds its footing again after damage. plausible
// sees each payload before its CRC is computed, so it is the cheap filter;
// nil accepts any.
func Scan(data []byte, from int, withCRC bool, plausible func(payload []byte) bool) int {
	hdr := HeaderLen(withCRC)
	for pos := max(from, 0); pos+hdr <= len(data); pos++ {
		n, why := claim(data, pos, hdr)
		if why != "" {
			continue
		}
		p := data[pos+hdr : pos+hdr+n]
		if plausible != nil && !plausible(p) {
			continue
		}
		if withCRC && !checksum.Check(data[pos+4:], p) {
			continue
		}
		return pos
	}
	return -1
}

// Read reads the next frame from r into buf, which is reset first and grows
// only as payload bytes arrive, never on the length's claim. The payload
// aliases buf until buf is next written. A zero length returns ErrEmpty; a
// source that ends inside a frame, at its start included, returns ErrCorrupt
// wrapping io.ErrUnexpectedEOF.
func Read(r io.Reader, buf *bytes.Buffer, withCRC bool) (Frame, error) {
	var hdr [8]byte
	h := hdr[:HeaderLen(withCRC)]
	if _, err := io.ReadFull(r, h[:4]); err != nil {
		return Frame{}, fmt.Errorf("%w: header: %w", ErrCorrupt, unexpected(err))
	}
	n := binary.LittleEndian.Uint32(h)
	if n == 0 {
		return Frame{}, ErrEmpty
	}
	if n > MaxLen {
		return Frame{}, fmt.Errorf("%w: length %d over bound", ErrCorrupt, n)
	}
	if _, err := io.ReadFull(r, h[4:]); err != nil {
		return Frame{}, fmt.Errorf("%w: header: %w", ErrCorrupt, unexpected(err))
	}
	buf.Reset()
	if got, err := io.CopyN(buf, r, int64(n)); err != nil {
		return Frame{}, fmt.Errorf("%w: payload cut at %d of %d bytes: %w", ErrCorrupt, got, n, unexpected(err))
	}
	f := Frame{Payload: buf.Bytes()}
	if withCRC {
		f.crc, f.hasCRC = binary.LittleEndian.Uint32(h[4:]), true
	}
	return f, nil
}

// unexpected turns the io.EOF of a source that ended inside a frame into
// io.ErrUnexpectedEOF, so no caller mistakes a cut for a clean end.
func unexpected(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}
