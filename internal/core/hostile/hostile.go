// Package hostile builds damaged core containers whose checksums are right:
// test support for the decoders of core and of the containers that embed
// core containers (pipeline, archive). A flipped bit is caught by the CRC
// long before the chunk decoder runs; the records built here pass every CRC
// and reach it, each lying about exactly one thing the decoder must check
// before it slices a plane — a solver payload that inflates to the wrong
// size, raw columns of the wrong length, an ID beyond the index, an ISOBAR
// mask naming a column that does not exist.
//
// The package parses the container from the documented wire layout alone
// (DESIGN.md §8 and §13) and imports nothing of core, so core's own tests can use it.
package hostile

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"

	"primacy/internal/checksum"
	"primacy/internal/solver"
)

// Variant is one damaged container and the lie it tells.
type Variant struct {
	Name string
	Data []byte
}

// record is a parsed non-raw chunk record.
type record struct {
	rawLen uint32
	flag   byte
	tid    []byte // empty before v3
	index  []byte // nil when flag == 0
	ids    []byte // solver payload of the ID matrix
	mask   byte
	comp   []byte // solver payload of the compressible mantissa planes
	incomp []byte // raw mantissa planes
}

func (r record) bytes() []byte {
	var out []byte
	out = binary.LittleEndian.AppendUint32(out, r.rawLen)
	out = append(out, r.flag)
	out = append(out, r.tid...)
	field := func(b []byte) {
		out = binary.LittleEndian.AppendUint32(out, uint32(len(b)))
		out = append(out, b...)
	}
	if r.flag == 1 {
		field(r.index)
	}
	field(r.ids)
	out = append(out, r.mask)
	field(r.comp)
	field(r.incomp)
	return out
}

// WithTotal returns a copy of enc, a PRM2 or PRM3 container, whose header
// claims total decoded bytes, with the header checksum recomputed: a lie about
// the size that only a decoder counting what its chunk records really hold
// can catch.
func WithTotal(enc []byte, total uint64) ([]byte, error) {
	if len(enc) < 10 || (string(enc[:4]) != "PRM2" && string(enc[:4]) != "PRM3") {
		return nil, errors.New("hostile: not a PRM2 or PRM3 container")
	}
	// magic + flags + precision + nameLen + name, then total + chunkBytes + CRC.
	at := 10 + int(enc[9])
	if len(enc) < at+8+4+4 {
		return nil, errors.New("hostile: short header")
	}
	out := append([]byte(nil), enc...)
	binary.LittleEndian.PutUint64(out[at:], total)
	binary.LittleEndian.PutUint32(out[at+12:], checksum.Sum(out[:at+12]))
	return out, nil
}

// Variants returns damaged copies of enc, a valid PRM2 or PRM3 container
// written with ranked ID mapping whose first chunk is an ordinary (non-raw)
// record with an index of fewer than 65 536 sequences. Only that first
// record differs from enc; its frame checksum is recomputed, so the damage
// is visible to the chunk decoder alone.
func Variants(enc []byte) ([]Variant, error) {
	bad := errors.New("hostile: not a container this package can rebuild")
	if len(enc) < 10 {
		return nil, bad
	}
	var version int
	switch string(enc[:4]) {
	case "PRM2":
		version = 2
	case "PRM3":
		version = 3
	default:
		return nil, bad
	}
	if enc[5] != 0 {
		return nil, fmt.Errorf("%w: needs ranked ID mapping", bad)
	}
	loBytes := 6
	if enc[8] == 1 {
		loBytes = 2
	}
	nameLen := int(enc[9])
	// magic + flags + precision + nameLen + name + total + chunkBytes + CRC.
	recAt := 10 + nameLen + 8 + 4 + 4 + 8
	if len(enc) < recAt {
		return nil, bad
	}
	sv, err := solver.Get(string(enc[10 : 10+nameLen]))
	if err != nil {
		return nil, err
	}
	recLen := int(binary.LittleEndian.Uint32(enc[recAt-8:]))
	if recLen > len(enc)-recAt {
		return nil, bad
	}
	rec, rest := enc[recAt:recAt+recLen], enc[recAt+recLen:]

	// take returns the next n bytes of the record; past its end it records
	// the failure and hands back zeros so the parse can run to its one check.
	pos := 0
	var zero [4]byte
	take := func(n int) []byte {
		if n < 0 || n > len(rec)-pos {
			err = bad
			return zero[:max(0, min(n, 4))]
		}
		pos += n
		return rec[pos-n : pos]
	}
	field := func() []byte { return take(int(binary.LittleEndian.Uint32(take(4)))) }
	var r record
	r.rawLen = binary.LittleEndian.Uint32(take(4))
	r.flag = take(1)[0]
	if version >= 3 {
		r.tid = take(1)
	}
	if r.flag == 1 {
		r.index = field()
	}
	r.ids = field()
	r.mask = take(1)[0]
	r.comp = field()
	r.incomp = field()
	if err != nil || r.flag != 1 || pos != len(rec) || r.rawLen == 0 || len(r.index) >= 4+2*65536 {
		return nil, bad
	}

	// grown returns the solver payload for payload's content with extra
	// appended: a well-formed stream that inflates to the wrong size.
	grown := func(payload, extra []byte) ([]byte, error) {
		plain, err := sv.DecompressTo(nil, payload)
		if err != nil {
			return nil, err
		}
		return sv.CompressTo(nil, append(plain, extra...))
	}
	var out []Variant
	add := func(name string, mut func(r *record) error) {
		m := r
		if e := mut(&m); e != nil {
			err = errors.Join(err, fmt.Errorf("hostile: %s: %w", name, e))
			return
		}
		body := m.bytes()
		data := append([]byte(nil), enc[:recAt-8]...)
		data = binary.LittleEndian.AppendUint32(data, uint32(len(body)))
		data = checksum.Append(data, body)
		data = append(append(data, body...), rest...)
		out = append(out, Variant{name, data})
	}
	add("odd ID payload", func(r *record) (err error) {
		r.ids, err = grown(r.ids, []byte{0})
		return err
	})
	add("ID payload one element long", func(r *record) (err error) {
		r.ids, err = grown(r.ids, []byte{0, 0})
		return err
	})
	add("ID payload empty", func(r *record) (err error) {
		r.ids, err = sv.CompressTo(nil, nil)
		return err
	})
	add("ID beyond the index", func(r *record) error {
		plain, err := sv.DecompressTo(nil, r.ids)
		if err == nil {
			r.ids, err = sv.CompressTo(nil, bytes.Repeat([]byte{0xFF}, len(plain)))
		}
		return err
	})
	add("mantissa payload one byte long", func(r *record) (err error) {
		r.comp, err = grown(r.comp, []byte{0})
		return err
	})
	add("raw columns one byte short", func(r *record) error {
		if len(r.incomp) > 0 {
			r.incomp = r.incomp[:len(r.incomp)-1]
		} else {
			r.incomp = []byte{0}
		}
		return nil
	})
	add("raw columns one byte long", func(r *record) error {
		r.incomp = append(append([]byte(nil), r.incomp...), 0)
		return nil
	})
	add("mask flips a real column", func(r *record) error { r.mask ^= 1; return nil })
	for bit := loBytes; bit < 8; bit++ {
		add(fmt.Sprintf("mask names column %d of %d", bit, loBytes), func(r *record) error {
			r.mask |= 1 << uint(bit)
			return nil
		})
	}
	return out, err
}
