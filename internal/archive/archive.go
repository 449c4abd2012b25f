// Package archive is a multi-variable, multi-timestep container over the
// PRIMACY codec — the role an ADIOS-style I/O library plays for the paper's
// applications: a simulation writes named variables every output step, and
// analysis later opens the file and reads one variable at one timestep
// without touching the rest.
//
// File layout (v2, written by Writer):
//
//	"PAR2" | entry* | TOC | u64 tocOffset | "PAR2"
//	entry  = "PAE2" | u16 nameLen | name | u32 step | u64 rawLen |
//	         u32 hdrCRC | PRIMACY container (one variable at one timestep)
//	TOC    = u32 count | count × (u16 nameLen | name | u32 step |
//	         u64 offset | u64 length | u64 rawLen | u32 entryCRC) |
//	         u32 tocCRC
//
// entryCRC is the CRC32C of the whole entry (header and container); tocCRC
// covers the TOC bytes before it. The per-entry header repeats the name and
// step and carries its own CRC, so a lost TOC can be rebuilt by scanning
// for entry magics (see OpenSalvage). v1 archives ("PAR1": bare containers,
// no checksums) are still read.
//
// The table of contents sits at the end so entries stream out as they are
// produced; the trailing magic+offset makes the file self-locating. It also
// makes a finished archive resumable: entries are immutable and the TOC is
// the only thing behind them, so ResumeWriterCtx keeps the entry region,
// appends, and writes a new TOC — the bytes a from-scratch build of the same
// entries would have produced.
package archive

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"slices"
	"strings"

	"primacy/internal/bytesplit"
	"primacy/internal/checksum"
	"primacy/internal/core"
	"primacy/internal/trace"
)

// Archive magics: v1 is the original checksum-less layout, v2 adds framed
// checksummed entries and a TOC checksum. Writers emit v2; readers accept
// both.
const (
	magicV1 = "PAR1"
	magicV2 = "PAR2"
	// entryMagic frames each v2 entry so salvage can find entries without
	// a TOC.
	entryMagic = "PAE2"
)

// ErrCorrupt indicates a malformed archive. It wraps core.ErrCorrupt.
var ErrCorrupt = core.CorruptSentinel("archive: corrupt archive")

// ErrChecksum indicates a CRC32C mismatch on a v2 archive structure; it is
// wrapped together with ErrCorrupt. It is core's (and frame's) sentinel, so
// one errors.Is test covers every format.
var ErrChecksum = core.ErrChecksum

// ErrNotFound indicates a missing variable/step pair.
var ErrNotFound = errors.New("archive: entry not found")

type tocEntry struct {
	Name   string
	Step   uint32
	Offset uint64
	Length uint64
	RawLen uint64
	// CRC is the CRC32C of the entry bytes (v2 TOC entries only).
	CRC    uint32
	HasCRC bool
	// Framed marks entries carrying the v2 per-entry header.
	Framed bool
}

// Writer appends variables to an archive. Not safe for concurrent use.
//
// Failure semantics: the first error returned by PutFloat64s or Close is
// sticky — every later call returns the same error, and nothing more is
// written (a torn entry is never followed by more data that a TOC would
// then mis-describe). A successful Close is idempotent.
type Writer struct {
	ctx  context.Context
	dst  io.Writer
	opts core.Options
	pos  uint64
	toc  []tocEntry
	// seen holds every (name, step) in toc, so the duplicate check does not
	// scan the TOC on each put.
	seen   map[entryKey]struct{}
	closed bool
	err    error

	// Per-entry working memory, reused across puts: the codec's chunk
	// scratch, the big-endian serialisation of the values, and the framed
	// entry (header + container) handed to the sink in one Write.
	codec core.Codec
	raw   []byte
	frame []byte
}

type entryKey struct {
	name string
	step uint32
}

// NewWriter starts an archive on dst with the given codec options. To retry
// transient sink failures, wrap dst in retry.NewWriter.
func NewWriter(dst io.Writer, opts core.Options) (*Writer, error) {
	return ResumeWriterCtx(context.Background(), dst, nil, 0, opts)
}

// ResumeWriterCtx is NewWriter with cancellation — ctx is checked before each
// entry is compressed and emitted — for an archive that continues prev, a
// finished v2 container of size bytes: prev's entry region is copied to dst
// unchanged and its TOC rows are kept, so only entries put from here on are
// encoded, and Close writes one TOC over both. As long as prev was written
// with the same codec options, the result is byte-identical to putting all
// the entries into a new Writer. NumEntries reports how many entries prev
// contributed.
//
// prev is only read: checked one entry at a time, then copied in bounded
// pieces, so resuming never holds all of it in memory. It must be exactly
// what a Writer produces — TOC checksum, every entry checksum and header
// valid, entries contiguous in TOC order — anything else (damage, a v1
// archive) is an ErrCorrupt and nothing is written; only a read failing
// during the copy leaves part of prev in dst. A nil prev is the empty
// archive.
func ResumeWriterCtx(ctx context.Context, dst io.Writer, prev io.ReaderAt, size int64, opts core.Options) (*Writer, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	head := io.Reader(strings.NewReader(magicV2))
	var toc []tocEntry
	if prev != nil {
		var err error
		if head, toc, err = resumable(prev, size); err != nil {
			return nil, err
		}
	}
	seen := make(map[entryKey]struct{}, len(toc))
	for _, e := range toc {
		seen[entryKey{e.Name, e.Step}] = struct{}{}
	}
	if len(seen) != len(toc) {
		return nil, fmt.Errorf("%w: duplicate TOC entries", ErrCorrupt)
	}
	n, err := io.Copy(dst, head)
	if err != nil {
		return nil, err
	}
	return &Writer{ctx: ctx, dst: dst, opts: opts, pos: uint64(n), toc: toc, seen: seen}, nil
}

// resumable checks that prev is a finished v2 archive a Writer can continue
// and returns the part to keep (magic and entry region) with its TOC rows.
func resumable(prev io.ReaderAt, size int64) (head io.Reader, toc []tocEntry, err error) {
	r, err := NewReader(prev, size)
	if err != nil {
		return nil, nil, err
	}
	if r.version != 2 {
		return nil, nil, fmt.Errorf("%w: cannot resume a v%d archive", ErrCorrupt, r.version)
	}
	var enc []byte // one entry at a time
	end := uint64(len(magicV2))
	for _, e := range r.toc {
		// parseTOC bounded Offset and Length by the data region, so the
		// read below is in range once the entry starts where the last ended.
		if e.Offset != end {
			return nil, nil, fmt.Errorf("%w: entry %s@%d at %d, previous entry ends at %d",
				ErrCorrupt, e.Name, e.Step, e.Offset, end)
		}
		end += e.Length
		if enc, err = readEntry(prev, e, enc); err != nil {
			return nil, nil, err
		}
		if _, err := checkEntry(e, enc); err != nil {
			return nil, nil, err
		}
	}
	if end != r.tocOffset {
		return nil, nil, fmt.Errorf("%w: entries end at %d, TOC starts at %d", ErrCorrupt, end, r.tocOffset)
	}
	return io.NewSectionReader(prev, 0, int64(end)), r.toc, nil
}

// NumEntries reports how many entries the archive holds so far.
func (w *Writer) NumEntries() int { return len(w.toc) }

// PutFloat64s writes one variable for one timestep.
func (w *Writer) PutFloat64s(name string, step int, values []float64) error {
	if w.err != nil {
		return w.err
	}
	if w.closed {
		return errors.New("archive: put after Close")
	}
	if err := w.put(name, step, values); err != nil {
		// Validation failures (bad name, negative step, duplicate entry)
		// leave the sink untouched and the writer usable; anything that may
		// have reached the sink is sticky.
		if !errors.Is(err, errEntryInvalid) {
			w.err = err
		}
		return err
	}
	return nil
}

// errEntryInvalid marks argument-validation failures that never touch the
// sink, so they do not poison the writer.
var errEntryInvalid = errors.New("archive: invalid entry")

func (w *Writer) put(name string, step int, values []float64) (err error) {
	if len(name) == 0 || len(name) > 65535 {
		return fmt.Errorf("%w: variable name length %d out of range", errEntryInvalid, len(name))
	}
	if step < 0 {
		return fmt.Errorf("%w: negative step %d", errEntryInvalid, step)
	}
	key := entryKey{name, uint32(step)}
	if _, dup := w.seen[key]; dup {
		return fmt.Errorf("%w: duplicate entry %s@%d", errEntryInvalid, name, step)
	}
	if err := w.ctx.Err(); err != nil {
		return err
	}
	rawLen := uint64(len(values) * 8)
	es := trace.Start(trace.SpanFromContext(w.ctx), "archive.entry.put").
		AttrStr("name", name).
		Attr("step", int64(step)).
		Attr("raw_bytes", int64(rawLen))
	defer func() { es.End(err) }()
	w.raw = bytesplit.AppendFloat64s(w.raw[:0], values)
	// The container is compressed straight behind the entry header, and the
	// entry's CRC32C is the header's joined to the one core reports for the
	// container: no copy and no second pass over the entry.
	hdr := appendEntryHeader(w.frame[:0], name, step, rawLen)
	frame, st, err := w.codec.AppendCompressCtx(trace.ContextWithSpan(w.ctx, es), hdr, w.raw, w.opts)
	if err != nil {
		return err
	}
	w.frame = frame
	return w.writeEntry(name, step, rawLen, frame, checksum.Combine(checksum.Sum(hdr), st.CRC32C, st.CompressedBytes))
}

// appendEntryHeader appends the v2 entry header of name@step, its CRC
// included, to dst.
func appendEntryHeader(dst []byte, name string, step int, rawLen uint64) []byte {
	hdr := append(dst, entryMagic...)
	hdr = binary.LittleEndian.AppendUint16(hdr, uint16(len(name)))
	hdr = append(hdr, name...)
	hdr = binary.LittleEndian.AppendUint32(hdr, uint32(step))
	hdr = binary.LittleEndian.AppendUint64(hdr, rawLen)
	return checksum.Append(hdr, hdr[len(dst):])
}

// writeEntry writes one framed entry, header and container, whose CRC32C is
// crc, and records its TOC row.
func (w *Writer) writeEntry(name string, step int, rawLen uint64, frame []byte, crc uint32) error {
	if _, err := w.dst.Write(frame); err != nil {
		return err
	}
	if m := tmet.Load(); m != nil {
		m.entriesWritten.Inc()
		m.entryBytes.Add(int64(len(frame)))
	}
	w.seen[entryKey{name, uint32(step)}] = struct{}{}
	w.toc = append(w.toc, tocEntry{
		Name:   name,
		Step:   uint32(step),
		Offset: w.pos,
		Length: uint64(len(frame)),
		RawLen: rawLen,
		CRC:    crc,
		HasCRC: true,
		Framed: true,
	})
	w.pos += uint64(len(frame))
	return nil
}

// Close writes the table of contents and the trailer. A successful Close is
// idempotent; a failed Close leaves the writer sticky-failed, and later
// calls return the same error instead of appending a second partial TOC.
func (w *Writer) Close() error {
	if w.err != nil {
		return w.err
	}
	if w.closed {
		return nil
	}
	if err := w.close(); err != nil {
		w.err = err
		return err
	}
	w.closed = true
	return nil
}

func (w *Writer) close() error {
	if err := w.ctx.Err(); err != nil {
		return err
	}
	le := binary.LittleEndian
	buf := le.AppendUint32(nil, uint32(len(w.toc)))
	for _, e := range w.toc {
		buf = le.AppendUint16(buf, uint16(len(e.Name)))
		buf = append(buf, e.Name...)
		buf = le.AppendUint32(buf, e.Step)
		for _, v := range []uint64{e.Offset, e.Length, e.RawLen} {
			buf = le.AppendUint64(buf, v)
		}
		buf = le.AppendUint32(buf, e.CRC)
	}
	buf = checksum.Append(buf, buf)
	buf = le.AppendUint64(buf, w.pos)
	_, err := w.dst.Write(append(buf, magicV2...))
	return err
}

// Reader opens archives for random access via io.ReaderAt.
type Reader struct {
	src     io.ReaderAt
	toc     []tocEntry
	version int
	// tocOffset is where the entry region ends and the TOC begins.
	tocOffset uint64
}

// NewReader parses the trailer and table of contents. size is the total
// archive length in bytes (e.g. from os.FileInfo). Both format versions are
// accepted; the v2 TOC checksum is verified before any entry is trusted.
func NewReader(src io.ReaderAt, size int64) (*Reader, error) {
	if size < int64(len(magicV1))*2+8 {
		return nil, fmt.Errorf("%w: too small", ErrCorrupt)
	}
	head := make([]byte, 4)
	if _, err := src.ReadAt(head, 0); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	r := &Reader{src: src}
	switch string(head) {
	case magicV1:
		r.version = 1
	case magicV2:
		r.version = 2
	default:
		return nil, fmt.Errorf("%w: bad leading magic", ErrCorrupt)
	}
	trailer := make([]byte, 12)
	if _, err := src.ReadAt(trailer, size-12); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	if string(trailer[8:]) != string(head) {
		return nil, fmt.Errorf("%w: bad trailing magic", ErrCorrupt)
	}
	tocOffset := binary.LittleEndian.Uint64(trailer[:8])
	// Compare in uint64 space: casting a huge offset to int64 would go
	// negative and slip past the bound.
	if tocOffset < 4 || tocOffset > uint64(size-12) {
		return nil, fmt.Errorf("%w: TOC offset %d out of range", ErrCorrupt, tocOffset)
	}
	tocBytes := make([]byte, size-12-int64(tocOffset))
	if _, err := src.ReadAt(tocBytes, int64(tocOffset)); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	if r.version >= 2 {
		if len(tocBytes) < 4 {
			return nil, fmt.Errorf("%w: truncated TOC", ErrCorrupt)
		}
		body := tocBytes[:len(tocBytes)-4]
		if !checksum.Check(tocBytes[len(tocBytes)-4:], body) {
			return nil, fmt.Errorf("%w: TOC: %w", ErrCorrupt, ErrChecksum)
		}
		tocBytes = body
	}
	toc, err := parseTOC(tocBytes, tocOffset, r.version)
	if err != nil {
		return nil, err
	}
	r.toc = toc
	r.tocOffset = tocOffset
	return r, nil
}

// parseTOC decodes the table of contents and validates every entry's range
// against the data region [4, tocOffset).
func parseTOC(tocBytes []byte, tocOffset uint64, version int) ([]tocEntry, error) {
	pos := 0
	need := func(n int) error {
		if pos+n > len(tocBytes) {
			return fmt.Errorf("%w: truncated TOC", ErrCorrupt)
		}
		return nil
	}
	if err := need(4); err != nil {
		return nil, err
	}
	count := int(binary.LittleEndian.Uint32(tocBytes[pos:]))
	pos += 4
	// A TOC entry takes at least 30 bytes (34 in v2), so the count cannot
	// exceed what the TOC region can hold — reject before any per-entry
	// work.
	if count < 0 || count > len(tocBytes)/30 {
		return nil, fmt.Errorf("%w: %d TOC entries in %d bytes", ErrCorrupt, count, len(tocBytes))
	}
	rowLen := 4 + 24 // after the name: step, offset, length, rawLen
	if version >= 2 {
		rowLen += 4 // entryCRC
	}
	var toc []tocEntry
	for i := 0; i < count; i++ {
		if err := need(2); err != nil {
			return nil, err
		}
		nameLen := int(binary.LittleEndian.Uint16(tocBytes[pos:]))
		pos += 2
		if err := need(nameLen + rowLen); err != nil {
			return nil, err
		}
		e := tocEntry{Name: string(tocBytes[pos : pos+nameLen])}
		pos += nameLen
		e.Step = binary.LittleEndian.Uint32(tocBytes[pos:])
		pos += 4
		e.Offset = binary.LittleEndian.Uint64(tocBytes[pos:])
		e.Length = binary.LittleEndian.Uint64(tocBytes[pos+8:])
		e.RawLen = binary.LittleEndian.Uint64(tocBytes[pos+16:])
		pos += 24
		if version >= 2 {
			e.CRC = binary.LittleEndian.Uint32(tocBytes[pos:])
			e.HasCRC = true
			e.Framed = true
			pos += 4
		}
		// Guard against uint64 overflow in Offset+Length: validate each
		// bound independently against the data region.
		if e.Offset < 4 || e.Length > tocOffset || e.Offset > tocOffset-e.Length {
			return nil, fmt.Errorf("%w: entry %s@%d range invalid", ErrCorrupt, e.Name, e.Step)
		}
		toc = append(toc, e)
	}
	if pos != len(tocBytes) {
		return nil, fmt.Errorf("%w: %d trailing TOC bytes", ErrCorrupt, len(tocBytes)-pos)
	}
	return toc, nil
}

// Variables lists the distinct variable names, sorted.
func (r *Reader) Variables() []string {
	var out []string
	for _, e := range r.toc {
		out = append(out, e.Name)
	}
	slices.Sort(out)
	return slices.Compact(out)
}

// Steps lists the timesteps recorded for a variable, ascending.
func (r *Reader) Steps(name string) []int {
	var out []int
	for _, e := range r.toc {
		if e.Name == name {
			out = append(out, int(e.Step))
		}
	}
	slices.Sort(out)
	return out
}

// NumEntries reports the total entry count.
func (r *Reader) NumEntries() int { return len(r.toc) }

// RawBytes reports the decoded size of all entries, as the TOC records it.
func (r *Reader) RawBytes() int64 {
	var n int64
	for _, e := range r.toc {
		n += int64(e.RawLen)
	}
	return n
}

// readEntry reads the bytes TOC row e points at into buf, grown as needed.
func readEntry(src io.ReaderAt, e tocEntry, buf []byte) ([]byte, error) {
	buf = slices.Grow(buf[:0], int(e.Length))[:e.Length]
	if _, err := src.ReadAt(buf, int64(e.Offset)); err != nil {
		return buf, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	return buf, nil
}

// entryDecoder decodes entries one at a time into memory it keeps: the
// codec's chunk scratch and the decoded container.
type entryDecoder struct {
	codec core.Codec
	raw   []byte
}

// decode decodes enc, the bytes TOC row e points at, checking its CRC, its
// header against the row and its decoded size against RawLen in whole
// float64s; the result is valid until the next call. A framed entry with a
// CRC is decoded first and checked against core's CRC32C of the container
// joined to the header's; it is summed directly only when that fails, so
// every entry gets a check-then-decode's verdict.
func (d *entryDecoder) decode(e tocEntry, enc []byte) (raw []byte, err error) {
	ctx, ok := context.Background(), false
	if e.HasCRC && e.Framed {
		if hdr, herr := parseEntryHeader(enc); herr == nil && hdr.name == e.Name && hdr.step == e.Step {
			var ds core.DecompStats
			raw, ds, err = d.codec.AppendDecompressCtx(ctx, d.raw[:0], enc[hdr.len:])
			ok = err == nil && checksum.Combine(checksum.Sum(enc[:hdr.len]), ds.CRC32C, len(enc)-hdr.len) == e.CRC
		}
	}
	if !ok {
		body, err := checkEntry(e, enc)
		if err != nil {
			return nil, err
		}
		if raw, _, err = d.codec.AppendDecompressCtx(ctx, d.raw[:0], body); err != nil {
			return nil, fmt.Errorf("archive: entry %s@%d: %w", e.Name, e.Step, err)
		}
	}
	d.raw = raw
	if len(raw)%8 != 0 || uint64(len(raw)) != e.RawLen {
		return nil, fmt.Errorf("%w: %s@%d decoded to %d bytes, TOC says %d",
			ErrCorrupt, e.Name, e.Step, len(raw), e.RawLen)
	}
	return raw, nil
}

// checkEntry validates enc, the bytes TOC row e points at, against the row
// and returns the PRIMACY container inside.
func checkEntry(e tocEntry, enc []byte) ([]byte, error) {
	if e.HasCRC && checksum.Sum(enc) != e.CRC {
		return nil, fmt.Errorf("%w: entry %s@%d: %w", ErrCorrupt, e.Name, e.Step, ErrChecksum)
	}
	if !e.Framed {
		return enc, nil
	}
	hdr, err := parseEntryHeader(enc)
	if err != nil {
		return nil, err
	}
	if hdr.name != e.Name || hdr.step != e.Step {
		return nil, fmt.Errorf("%w: entry header says %s@%d, TOC says %s@%d",
			ErrCorrupt, hdr.name, hdr.step, e.Name, e.Step)
	}
	return enc[hdr.len:], nil
}

// entryHeader is the parsed v2 per-entry frame header.
type entryHeader struct {
	name   string
	step   uint32
	rawLen uint64
	len    int
}

// parseEntryHeader decodes and CRC-verifies a v2 entry header at the start
// of b.
func parseEntryHeader(b []byte) (entryHeader, error) {
	var h entryHeader
	if len(b) < 4+2 {
		return h, fmt.Errorf("%w: truncated entry header", ErrCorrupt)
	}
	if string(b[:4]) != entryMagic {
		return h, fmt.Errorf("%w: bad entry magic", ErrCorrupt)
	}
	nameLen := int(binary.LittleEndian.Uint16(b[4:]))
	h.len = 4 + 2 + nameLen + 4 + 8 + 4
	if nameLen == 0 || h.len > len(b) {
		return h, fmt.Errorf("%w: truncated entry header", ErrCorrupt)
	}
	pos := 6 + nameLen
	h.name = string(b[6:pos])
	h.step = binary.LittleEndian.Uint32(b[pos:])
	h.rawLen = binary.LittleEndian.Uint64(b[pos+4:])
	if !checksum.Check(b[pos+12:], b[:pos+12]) {
		return h, fmt.Errorf("%w: entry header: %w", ErrCorrupt, ErrChecksum)
	}
	return h, nil
}

// GetFloat64s reads one variable at one timestep.
func (r *Reader) GetFloat64s(name string, step int) (_ []float64, err error) {
	for _, e := range r.toc {
		if e.Name == name && int(e.Step) == step {
			es := trace.Start(trace.Span{}, "archive.entry.get").
				AttrStr("name", name).
				Attr("step", int64(step)).
				Attr("raw_bytes", int64(e.RawLen))
			defer func() { es.End(err) }()
			enc, err := readEntry(r.src, e, nil)
			if err != nil {
				return nil, err
			}
			raw, err := new(entryDecoder).decode(e, enc)
			if err != nil {
				return nil, err
			}
			values, _ := bytesplit.BytesToFloat64s(raw) // whole float64s: decode checked
			if m := tmet.Load(); m != nil {
				m.entriesRead.Inc()
				m.readBytes.Add(int64(len(raw)))
			}
			return values, nil
		}
	}
	return nil, fmt.Errorf("%w: %s@%d", ErrNotFound, name, step)
}
