package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"strings"

	"primacy/internal/bytesplit"
	"primacy/internal/checksum"
	"primacy/internal/frame"
)

// Container magics. v1 is the original checksum-less layout; v2 appends a
// CRC32C to the fixed header and frames every chunk record with one; v3 keeps
// the v2 header and framing but inserts a preconditioner transform-ID byte
// after each non-raw chunk record's flag byte. Writers emit v2 unless the
// preconditioner layer departs from the classic fixed chain (then v3);
// readers accept all three. Every magic starts with magicFamily, which is how
// NextContainer finds them.
const (
	magicFamily = "PRM"
	magicV1     = magicFamily + "1"
	magicV2     = magicFamily + "2"
	magicV3     = magicFamily + "3"
)

// ErrChecksum indicates a CRC32C mismatch in a v2 container: frame's one
// checksum sentinel. It is always wrapped together with the package's
// ErrCorrupt sentinel, so callers may test for either.
var ErrChecksum = frame.ErrChecksum

// minChunkRecLen is the smallest well-formed v1/v2 chunk record: rawLen u32 +
// index flag + idsLen u32 + ISOBAR mask + compLen u32 + incompLen u32. v3
// records add a transform-ID byte after the flag (see header.minRecLen).
const minChunkRecLen = 18

// maxChunkRaw caps the claimed decoded size of a single chunk. The codec
// never writes chunks anywhere near this large; an adversarial header
// claiming more fails fast instead of driving allocations.
const maxChunkRaw = 1 << 31

// MaxExpansion is the most output a decoder sets aside per container byte on
// the strength of a header's total alone. 1032:1 is the ceiling of DEFLATE,
// the densest format a registered solver writes, so every container a writer
// can produce gets its exact size and a hostile one pays for its claim by its
// own length; past the bound the output grows by append, as chunks verify.
const MaxExpansion = 1032

// header is the parsed fixed prefix of a core container.
type header struct {
	version int
	lin     Linearization
	mapping IDMapping
	prec    Precision
	lay     bytesplit.Layout
	// solverName aliases the container: parsing a header allocates nothing.
	solverName []byte
	total      uint64
	// end is the offset of the first chunk frame.
	end int
	// crcOK reports whether the v2 header checksum verified (always true
	// for v1). The strict decode path rejects a false value; salvage
	// records it and keeps going with the fields as parsed.
	crcOK bool
	// sum is the CRC32C of data[:end], the header's stored CRC included:
	// where the decode's CRC32C of the whole container starts.
	sum uint32
}

// crc reports whether the container's chunk frames carry a CRC32C: v2 and
// later.
func (h *header) crc() bool { return h.version >= 2 }

// minRecLen is the smallest well-formed non-raw chunk record for the
// container's version: v3 records carry one extra transform-ID byte.
func (h *header) minRecLen() int {
	if h.version >= 3 {
		return minChunkRecLen + 1
	}
	return minChunkRecLen
}

// parseHeader parses and validates the fixed container prefix. It fails
// only when the header is unusable; a v2 checksum mismatch is reported via
// h.crcOK so salvage can proceed best-effort.
func parseHeader(data []byte) (header, error) {
	// Fixed prefix: magic(4) + flags(4) + precision(1) + nameLen(1).
	if len(data) < 4+4+1+1 {
		return header{}, fmt.Errorf("%w: short header", ErrCorrupt)
	}
	h := header{crcOK: true}
	switch string(data[:4]) {
	case magicV1:
		h.version = 1
	case magicV2:
		h.version = 2
	case magicV3:
		h.version = 3
	default:
		return header{}, fmt.Errorf("%w: bad magic", ErrCorrupt)
	}
	pos := 4
	h.lin = Linearization(data[pos])
	h.mapping = IDMapping(data[pos+1])
	// data[pos+2] is the index mode, data[pos+3] the ISOBAR flag; both are
	// informational on decode (the chunk records are self-describing).
	pos += 4
	h.prec = Precision(data[pos])
	pos++
	lay, err := h.prec.layout()
	if err != nil {
		return header{}, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	h.lay = lay
	nameLen := int(data[pos])
	pos++
	tail := 12
	if h.version >= 2 {
		tail += 4 // header CRC
	}
	if pos+nameLen+tail > len(data) {
		return header{}, fmt.Errorf("%w: truncated header", ErrCorrupt)
	}
	h.solverName = data[pos : pos+nameLen]
	pos += nameLen
	h.total = binary.LittleEndian.Uint64(data[pos:])
	pos += 8
	pos += 4 // chunkBytes: informational
	h.sum = checksum.Sum(data[:pos])
	if h.version >= 2 {
		h.crcOK = binary.LittleEndian.Uint32(data[pos:]) == h.sum
		h.sum = checksum.Update(h.sum, data[pos:pos+4])
		pos += 4
	}
	if h.total > 1<<40 {
		return header{}, fmt.Errorf("%w: absurd size %d", ErrCorrupt, h.total)
	}
	h.end = pos
	return h, nil
}

// parseVerifiedHeader is parseHeader for the strict paths, which have no use
// for a header whose checksum fails.
func parseVerifiedHeader(data []byte) (header, error) {
	h, err := parseHeader(data)
	if err == nil && !h.crcOK {
		err = fmt.Errorf("%w: header: %w", ErrCorrupt, ErrChecksum)
	}
	return h, err
}

// preSize is the output capacity to set aside before any chunk of a container
// of encLen bytes has decoded: the header's total, bounded by MaxExpansion.
func (h *header) preSize(encLen int) int {
	return int(min(h.total, MaxExpansion*uint64(encLen)))
}

// DecodedLen reports the decoded size the container's header claims, having
// verified the header's own checksum (v2 and later) and nothing else: what a
// caller sizes AppendDecompressCtx's destination with, up to MaxExpansion
// times len(data) — until the decode succeeds it is only a claim.
func DecodedLen(data []byte) (int, error) {
	h, err := parseVerifiedHeader(data)
	return int(h.total), err
}

// frame returns the chunk record starting at pos, its CRC32C and the offset
// of the next frame. In v2 the record is verified against its frame's CRC
// before it is returned; a v1 record has none, and is summed here.
func (h *header) frame(data []byte, pos int) (rec []byte, sum uint32, next int, err error) {
	f, next, err := frame.Next(data, pos, h.crc())
	if err == nil {
		sum = checksum.Sum(f.Payload)
		err = f.Check(sum)
	}
	if err != nil {
		return nil, 0, 0, fmt.Errorf("%w: chunk record at offset %d: %w", ErrCorrupt, pos, err)
	}
	return f.Payload, sum, next, nil
}

// resync returns the offset of the next plausible chunk frame at or after
// from, or -1. For v2 and later plausibility means a CRC32C that verifies;
// for v1 (no checksums) a structurally valid record prefix. Degraded
// raw-passthrough records are shorter than minChunkRecLen, so the floor is
// the raw record overhead — a raw chunk right after a damaged one must still
// be recoverable.
func (h *header) resync(data []byte, from int) int {
	return frame.Scan(data, from, h.crc(), func(rec []byte) bool {
		if len(rec) < rawChunkRecLen {
			return false
		}
		if h.crc() {
			return true
		}
		rawLen := int(binary.LittleEndian.Uint32(rec))
		// rec[4] is the flag byte: 0/1 index flag or rawChunkFlag (degraded
		// raw passthrough, accepted everywhere else — rejecting it here
		// desynced salvage on v1 containers with degraded chunks).
		if rawLen <= 0 || rawLen > maxChunkRaw || rawLen%h.lay.ElemBytes != 0 || rec[4] > rawChunkFlag {
			return false
		}
		return rec[4] == rawChunkFlag || len(rec) >= h.minRecLen()
	})
}

// walkFrames walks the chunk frames — sizes and v2+ checksums, no payload
// decompression — until their raw lengths add up to the header's total,
// handing visit (when non-nil) each record's byte range in data and the raw
// offset it decodes to, and returns the container's encoded length.
func (h *header) walkFrames(data []byte, visit func(start, end, rawOff int)) (encLen int, err error) {
	pos, rawSeen := h.end, 0
	for uint64(rawSeen) < h.total {
		rec, _, next, err := h.frame(data, pos)
		if err != nil {
			return 0, err
		}
		if len(rec) < rawChunkRecLen || (rec[4] != rawChunkFlag && len(rec) < h.minRecLen()) {
			return 0, fmt.Errorf("%w: chunk record %d bytes", ErrCorrupt, len(rec))
		}
		rawLen := int(binary.LittleEndian.Uint32(rec))
		if rawLen <= 0 || rawLen > maxChunkRaw || rawLen%h.lay.ElemBytes != 0 {
			return 0, fmt.Errorf("%w: chunk raw length %d", ErrCorrupt, rawLen)
		}
		if visit != nil {
			visit(next-len(rec), next, rawSeen)
		}
		rawSeen += rawLen
		pos = next
	}
	if uint64(rawSeen) != h.total {
		return 0, fmt.Errorf("%w: chunk sizes sum to %d, header says %d", ErrCorrupt, rawSeen, h.total)
	}
	return pos, nil
}

// Frame walks the framing of the container at the start of data — headers
// and chunk sizes only, no payload decompression — and reports its encoded
// length, claimed decoded size, and format version. Trailing bytes after
// the container are ignored, which lets salvage scanners measure embedded
// containers found mid-stream.
func Frame(data []byte) (encLen, rawLen, version int, err error) {
	h, err := parseVerifiedHeader(data)
	if err != nil {
		return 0, 0, 0, err
	}
	if encLen, err = h.walkFrames(data, nil); err != nil {
		return 0, 0, 0, err
	}
	return encLen, int(h.total), h.version, nil
}

// NextContainer returns the lowest offset at or after from where a container
// starts that frames cleanly (see Frame), and its encoded length; off is -1
// when there is none. It is how salvage finds a container again once the
// framing around it is lost.
func NextContainer(data []byte, from int) (off, encLen int) {
	for pos := max(from, 0); pos < len(data); pos++ {
		i := bytes.Index(data[pos:], []byte(magicFamily))
		if i < 0 {
			break
		}
		pos += i
		if n, _, _, err := Frame(data[pos:]); err == nil {
			return pos, n
		}
	}
	return -1, 0
}

// Framed is one piece of a lenient walk over framed containers (WalkFramed).
type Framed struct {
	// Off is where Data starts in the walked bytes.
	Off int
	// Data is a framed container, or the damaged region where one was,
	// which may still hold intact chunks (DecompressSalvage).
	Data []byte
	// Err is the fault in the frame at this piece, wrapping ErrCorrupt; nil
	// for an intact frame.
	Err error
}

// WalkFramed walks data[pos:] leniently as a run of frames that each hold
// one container: the shards of a parallel container, the segments of a
// stream. An intact frame is taken whole. A damaged one still yields its
// payload when that is a container that frames cleanly, so a hit on the
// header alone loses nothing; otherwise the walk resyncs on the next such
// container and hands over the bytes before that container's frame as one
// damaged region. ended reports whether the walk stopped at an end marker, a
// zero length in the last four bytes.
func WalkFramed(data []byte, pos int, withCRC bool) (pieces []Framed, ended bool) {
	hdr := frame.HeaderLen(withCRC)
	for pos < len(data) {
		f, next, err := frame.Next(data, pos, withCRC)
		if err == nil {
			err = f.Verify()
		}
		if err == nil {
			pieces = append(pieces, Framed{Off: next - len(f.Payload), Data: f.Payload})
			pos = next
			continue
		}
		if errors.Is(err, frame.ErrEmpty) && next == len(data) {
			return pieces, true
		}
		err = fmt.Errorf("%w: frame at offset %d: %w", ErrCorrupt, pos, err)
		start := min(pos+hdr, len(data))
		c, n := NextContainer(data, pos+1)
		switch {
		case c < 0:
			return append(pieces, Framed{Off: start, Data: data[start:], Err: err}), false
		case c <= start:
			pieces = append(pieces, Framed{Off: c, Data: data[c : c+n], Err: err})
			pos = c + n
		default:
			pieces = append(pieces, Framed{Off: start, Data: data[start:max(start, c-hdr)], Err: err})
			pos = c - hdr
		}
	}
	return pieces, false
}

// Corruption locates one fault detected during a verify or salvage pass.
type Corruption struct {
	// Offset is the byte position in the container (or stream/archive)
	// where the fault was detected.
	Offset int
	// Chunk is the chunk / segment / shard / entry index, or -1 when the
	// fault is not tied to one (e.g. a header or trailer fault).
	Chunk int
	// Err describes the fault.
	Err error
}

func (c Corruption) String() string {
	if c.Chunk < 0 {
		return fmt.Sprintf("offset %d: %v", c.Offset, c.Err)
	}
	return fmt.Sprintf("offset %d (chunk %d): %v", c.Offset, c.Chunk, c.Err)
}

// CorruptionReport aggregates the faults found by a verify or salvage pass
// over one container.
type CorruptionReport struct {
	// Format is the magic of the examined container (e.g. "PRM2").
	Format string
	// Corruptions lists detected faults in offset order.
	Corruptions []Corruption
}

// Clean reports whether no corruption was found.
func (r *CorruptionReport) Clean() bool { return r == nil || len(r.Corruptions) == 0 }

// Add records one fault. It is exported for the stream, pipeline, and
// archive containers, which reuse this report type for their own passes.
func (r *CorruptionReport) Add(offset, chunk int, err error) {
	r.Corruptions = append(r.Corruptions, Corruption{Offset: offset, Chunk: chunk, Err: err})
}

// Merge folds sub's findings into r, shifting offsets by base (used when a
// container is nested inside a stream, shard, or archive entry).
func (r *CorruptionReport) Merge(base int, sub *CorruptionReport) {
	if sub == nil {
		return
	}
	for _, c := range sub.Corruptions {
		r.Add(base+c.Offset, c.Chunk, c.Err)
	}
}

func (r *CorruptionReport) String() string {
	if r.Clean() {
		return fmt.Sprintf("%s: ok", r.format())
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s: %d corruption(s)", r.format(), len(r.Corruptions))
	for _, c := range r.Corruptions {
		fmt.Fprintf(&b, "\n  %s", c)
	}
	return b.String()
}

func (r *CorruptionReport) format() string {
	if r == nil || r.Format == "" {
		return "container"
	}
	return r.Format
}
