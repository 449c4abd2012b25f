// Package bitio provides bit-granular readers and writers on top of byte
// slices and io streams. It is the bit-transport substrate for the
// bzlib-style block compressor and the fpzip-style predictive coder.
//
// Bits are packed MSB-first within each byte: the first bit written becomes
// the highest bit of the first byte. This matches the convention used by
// bzip2-family coders and makes hex dumps readable.
package bitio

import (
	"errors"
	"io"
)

// ErrOverflow is returned when a value does not fit in the requested width.
var ErrOverflow = errors.New("bitio: value exceeds bit width")

// Writer accumulates bits MSB-first into an in-memory buffer.
// The zero value is ready to use.
type Writer struct {
	buf  []byte
	cur  uint64 // pending bits, left-aligned within the low "n" bits
	n    uint   // number of pending bits in cur (0..63)
	bits uint64 // total bits written
}

// NewWriter returns a Writer with capacity preallocated for sizeHint bytes.
func NewWriter(sizeHint int) *Writer {
	w := &Writer{}
	if sizeHint > 0 {
		w.buf = make([]byte, 0, sizeHint)
	}
	return w
}

// WriteBits appends the low "width" bits of v, most significant bit first.
// width must be in [0, 64]. Values wider than width are rejected.
func (w *Writer) WriteBits(v uint64, width uint) error {
	if width > 64 {
		return ErrOverflow
	}
	if width < 64 && v>>width != 0 {
		return ErrOverflow
	}
	w.bits += uint64(width)
	// Flush in chunks so cur never exceeds 64 pending bits.
	for width > 0 {
		take := width
		if room := 64 - w.n; take > room {
			take = room
		}
		chunk := v >> (width - take) // top "take" bits of remaining value
		if take < 64 {
			chunk &= (1 << take) - 1
		}
		w.cur = w.cur<<take | chunk
		w.n += take
		width -= take
		for w.n >= 8 {
			w.n -= 8
			w.buf = append(w.buf, byte(w.cur>>w.n))
		}
	}
	return nil
}

// WriteGamma appends v+1 as an Elias gamma code (supports v >= 0).
func (w *Writer) WriteGamma(v uint64) error {
	x := v + 1
	nbits := uint(bitLen64(x))
	if err := w.WriteBits(0, nbits-1); err != nil {
		return err
	}
	return w.WriteBits(x, nbits)
}

// BitsWritten reports the total number of bits written so far.
func (w *Writer) BitsWritten() uint64 { return w.bits }

// Bytes flushes any partial byte (zero-padded on the right) and returns the
// underlying buffer. The Writer may continue to be used afterwards only for
// reading via Bytes again; further WriteBits calls would misalign output.
func (w *Writer) Bytes() []byte {
	if w.n > 0 {
		pad := 8 - w.n
		w.buf = append(w.buf, byte(w.cur<<pad))
		w.cur = 0
		w.n = 0
		w.bits += uint64(pad) // account for padding so BitsWritten stays byte-consistent
	}
	return w.buf
}

// Reader consumes bits MSB-first from a byte slice.
type Reader struct {
	buf []byte
	pos int    // next byte index
	cur uint64 // pending bits, right-aligned
	n   uint   // pending bit count
}

// NewReader returns a Reader over p. The slice is not copied.
func NewReader(p []byte) *Reader {
	return &Reader{buf: p}
}

// ReadBits reads "width" bits MSB-first. width must be in [0, 64].
// Returns io.ErrUnexpectedEOF if the stream is exhausted mid-value.
func (r *Reader) ReadBits(width uint) (uint64, error) {
	if width > 64 {
		return 0, ErrOverflow
	}
	var out uint64
	rem := width
	for rem > 0 {
		if r.n == 0 {
			if r.pos >= len(r.buf) {
				return 0, io.ErrUnexpectedEOF
			}
			// Refill up to 7 whole bytes (keeps cur under 64 bits even
			// when a partial consume follows).
			for r.n <= 56-8 && r.pos < len(r.buf) {
				r.cur = r.cur<<8 | uint64(r.buf[r.pos])
				r.pos++
				r.n += 8
			}
			if r.n == 0 {
				return 0, io.ErrUnexpectedEOF
			}
		}
		take := rem
		if take > r.n {
			take = r.n
		}
		shift := r.n - take
		chunk := r.cur >> shift
		if take < 64 {
			chunk &= (1 << take) - 1
		}
		out = out<<take | chunk
		r.n -= take
		if r.n == 0 {
			r.cur = 0
		} else {
			r.cur &= (1 << r.n) - 1
		}
		rem -= take
	}
	return out, nil
}

// ReadBit reads one bit.
func (r *Reader) ReadBit() (uint, error) {
	v, err := r.ReadBits(1)
	return uint(v), err
}

// ReadGamma reads an Elias gamma code written by WriteGamma.
func (r *Reader) ReadGamma() (uint64, error) {
	var zeros uint
	for {
		b, err := r.ReadBit()
		if err != nil {
			return 0, err
		}
		if b == 1 {
			break
		}
		zeros++
		if zeros > 63 {
			return 0, ErrOverflow
		}
	}
	rest, err := r.ReadBits(zeros)
	if err != nil {
		return 0, err
	}
	x := uint64(1)<<zeros | rest
	return x - 1, nil
}

// PeekBits returns the next "width" bits without consuming them. If fewer
// than width bits remain, the missing low bits are zero-filled and ok
// reports how many real bits were available. width must be <= 32 so the
// refill below always fits the pending buffer.
func (r *Reader) PeekBits(width uint) (v uint64, avail uint) {
	if width > 32 {
		width = 32
	}
	// Refill pending bits up to at least width (pending cap is 56+).
	for r.n < width && r.pos < len(r.buf) {
		r.cur = r.cur<<8 | uint64(r.buf[r.pos])
		r.pos++
		r.n += 8
	}
	avail = r.n
	if avail >= width {
		avail = width
		return (r.cur >> (r.n - width)) & ((1 << width) - 1), avail
	}
	// Zero-fill the missing low bits.
	return (r.cur << (width - r.n)) & ((1 << width) - 1), avail
}

// SkipBits consumes up to "width" previously peeked bits. Skipping more
// bits than remain returns io.ErrUnexpectedEOF.
func (r *Reader) SkipBits(width uint) error {
	for width > 0 {
		if r.n == 0 {
			if r.pos >= len(r.buf) {
				return io.ErrUnexpectedEOF
			}
			r.cur = r.cur<<8 | uint64(r.buf[r.pos])
			r.pos++
			r.n = 8
		}
		take := width
		if take > r.n {
			take = r.n
		}
		r.n -= take
		if r.n == 0 {
			r.cur = 0
		} else {
			r.cur &= (1 << r.n) - 1
		}
		width -= take
	}
	return nil
}

func bitLen64(x uint64) int {
	n := 0
	for x != 0 {
		x >>= 1
		n++
	}
	return n
}
