package archive

import (
	"bytes"
	"fmt"
	"io"

	"primacy/internal/core"
)

// OpenSalvage opens a damaged archive best-effort. If the trailer and TOC
// parse cleanly, entries that fail their checksum are dropped into the
// report and the rest stay readable. If the TOC itself is lost (truncated
// file, corrupt trailer, failed TOC checksum), the data region is scanned
// for entry magics and the TOC is rebuilt: v2 entries recover their names
// and steps from the per-entry headers; bare v1 containers found without a
// header are exposed under synthesized names ("recovered-N", step 0).
//
// The error is non-nil only when nothing is recoverable.
func OpenSalvage(src io.ReaderAt, size int64) (*Reader, *core.CorruptionReport, error) {
	rep := &core.CorruptionReport{}
	if r, err := NewReader(src, size); err == nil {
		if r.version == 1 {
			rep.Format = magicV1
		} else {
			rep.Format = magicV2
		}
		// TOC is intact: keep only entries whose bytes verify.
		var kept []tocEntry
		for i, e := range r.toc {
			if _, berr := r.entryBody(e); berr != nil {
				rep.Add(int(e.Offset), i, berr)
				continue
			}
			kept = append(kept, e)
		}
		r.toc = kept
		return r, rep, nil
	} else {
		rep.Add(0, -1, err)
	}

	// TOC unusable: scan the whole file for entries.
	if size <= 0 {
		return nil, rep, fmt.Errorf("%w: empty archive", ErrCorrupt)
	}
	buf := make([]byte, size)
	if _, err := src.ReadAt(buf, 0); err != nil {
		return nil, rep, fmt.Errorf("%w: %v", ErrCorrupt, err)
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
					r.toc = append(r.toc, tocEntry{
						Name:   hdr.name,
						Step:   hdr.step,
						Offset: uint64(e),
						Length: uint64(hdr.len + encLen),
						RawLen: hdr.rawLen,
						Framed: true,
					})
					pos = e + hdr.len + encLen
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
		r.toc = append(r.toc, tocEntry{
			Name:   fmt.Sprintf("recovered-%d", recovered),
			Step:   0,
			Offset: uint64(c),
			Length: uint64(encLen),
			RawLen: uint64(rawLen),
		})
		recovered++
		pos = c + encLen
	}
	if len(r.toc) == 0 {
		return nil, rep, fmt.Errorf("%w: no recoverable entries", ErrCorrupt)
	}
	return r, rep, nil
}

// Verify checks an archive's integrity end to end: trailer, TOC checksum,
// every check GetFloat64s applies to an entry (its checksum, its header
// against its TOC row, and its decoded size against the row's RawLen), and
// a full verify of every embedded container. The report lists every
// detected fault; a nil error does not mean the archive is clean — check
// CorruptionReport.Clean.
func Verify(src io.ReaderAt, size int64) (*core.CorruptionReport, error) {
	rep := &core.CorruptionReport{}
	var magic [4]byte
	if _, err := src.ReadAt(magic[:], 0); err == nil {
		if m := string(magic[:]); m == magicV1 || m == magicV2 {
			rep.Format = m
		}
	}
	r, err := NewReader(src, size)
	if err != nil {
		rep.Add(0, -1, err)
		return rep, nil
	}
	if r.version == 1 {
		rep.Format = magicV1
	} else {
		rep.Format = magicV2
	}
	for i, e := range r.toc {
		enc := make([]byte, e.Length)
		if _, err := r.src.ReadAt(enc, int64(e.Offset)); err != nil {
			rep.Add(int(e.Offset), i, fmt.Errorf("%w: %v", ErrCorrupt, err))
			continue
		}
		body, err := checkEntry(e, enc)
		if err != nil {
			rep.Add(int(e.Offset), i, err)
			continue
		}
		bodyOff := int(e.Offset) + len(enc) - len(body)
		raw, subRep, verr := core.DecompressSalvage(body)
		if verr != nil {
			rep.Add(bodyOff, i, verr)
			continue
		}
		rep.Merge(bodyOff, subRep)
		if subRep.Clean() && (len(raw)%8 != 0 || uint64(len(raw)) != e.RawLen) {
			rep.Add(bodyOff, i, fmt.Errorf("%w: %s@%d decoded to %d bytes, TOC says %d",
				ErrCorrupt, e.Name, e.Step, len(raw), e.RawLen))
		}
	}
	return rep, nil
}
