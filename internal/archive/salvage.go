package archive

import (
	"bytes"
	"fmt"
	"io"

	"primacy/internal/core"
)

// OpenSalvage opens a damaged archive best-effort and lists only the entries
// that read back: each is decoded once, with every check GetFloat64s
// applies, and one that fails is dropped and its faults reported. The report
// is the archive's verify. A lost TOC (truncated file, corrupt trailer,
// failed TOC checksum) is rebuilt by scanning the file for entry magics: v2
// entries recover their names and steps from the per-entry headers; bare v1
// containers found without a header are exposed under synthesized names
// ("recovered-N", step 0).
//
// The error is non-nil only when nothing is recoverable.
func OpenSalvage(src io.ReaderAt, size int64) (*Reader, *core.CorruptionReport, error) {
	rep := &core.CorruptionReport{}
	var d entryDecoder
	r, err := NewReader(src, size)
	if err != nil {
		rep.Add(0, -1, err)
		r, err := scan(src, size, &d, rep)
		return r, rep, err
	}
	rep.Format = fmt.Sprintf("PAR%d", r.version)
	toc := r.toc
	r.toc = nil
	var enc []byte // one entry at a time
	for i, e := range toc {
		if enc, err = readEntry(src, e, enc); err != nil {
			rep.Add(int(e.Offset), i, err)
			continue
		}
		r.keep(&d, rep, i, e, enc)
	}
	return r, rep, nil
}

// scan rebuilds the TOC of an archive whose own is lost from the entries
// found in the whole file, keeping those that read back.
func scan(src io.ReaderAt, size int64, d *entryDecoder, rep *core.CorruptionReport) (*Reader, error) {
	if size <= 0 {
		return nil, fmt.Errorf("%w: empty archive", ErrCorrupt)
	}
	buf := make([]byte, size)
	if _, err := src.ReadAt(buf, 0); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	r := &Reader{src: src, version: 2}
	if len(buf) >= 4 {
		rep.Format = string(buf[:4])
	}
	recovered := 0
	pos := 0
	for pos < len(buf) {
		c, encLen := core.NextContainer(buf, pos)
		if e := bytes.Index(buf[pos:], []byte(entryMagic)); e >= 0 && (c < 0 || pos+e < c) {
			e += pos
			hdr, err := parseEntryHeader(buf[e:])
			if err == nil {
				encLen, _, _, ferr := core.Frame(buf[e+hdr.len:])
				if ferr == nil {
					end := e + hdr.len + encLen
					r.keep(d, rep, len(r.toc), tocEntry{
						Name:   hdr.name,
						Step:   hdr.step,
						Offset: uint64(e),
						Length: uint64(end - e),
						RawLen: hdr.rawLen,
						Framed: true,
					}, buf[e:end])
					pos = end
					continue
				}
				rep.Add(e, len(r.toc), fmt.Errorf("%w: entry %s@%d container: %v", ErrCorrupt, hdr.name, hdr.step, ferr))
			} else {
				rep.Add(e, len(r.toc), err)
			}
			pos = e + 1
			continue
		}
		if c < 0 {
			break
		}
		// Bare container: a v1 entry, or a v2 entry whose frame header was
		// destroyed.
		rawLen, _ := core.DecodedLen(buf[c:])
		r.keep(d, rep, len(r.toc), tocEntry{
			Name:   fmt.Sprintf("recovered-%d", recovered),
			Offset: uint64(c),
			Length: uint64(encLen),
			RawLen: uint64(rawLen),
		}, buf[c:c+encLen])
		recovered++
		pos = c + encLen
	}
	if len(r.toc) == 0 {
		return nil, fmt.Errorf("%w: no recoverable entries", ErrCorrupt)
	}
	return r, nil
}

// keep adds TOC row e, whose entry bytes are enc, to r's TOC if the entry
// reads back. Otherwise it reports entry i's faults: its CRC or header
// fault; else those core's salvage finds in its container; else the
// decode's own, such as a size that disagrees with the row.
func (r *Reader) keep(d *entryDecoder, rep *core.CorruptionReport, i int, e tocEntry, enc []byte) {
	_, err := d.decode(e, enc)
	if err == nil {
		r.toc = append(r.toc, e)
		return
	}
	body, cerr := checkEntry(e, enc)
	if cerr != nil {
		rep.Add(int(e.Offset), i, cerr)
		return
	}
	off := int(e.Offset) + len(enc) - len(body)
	switch _, sub, serr := core.DecompressSalvage(body); {
	case serr != nil:
		rep.Add(off, i, serr)
	case !sub.Clean():
		rep.Merge(off, sub)
	default:
		rep.Add(off, i, err)
	}
}
