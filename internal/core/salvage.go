package core

import (
	"fmt"

	"primacy/internal/freq"
	"primacy/internal/solver"
	"primacy/internal/trace"
)

// DecompressSalvage decompresses as much of a damaged container as possible.
// Chunks that fail their CRC32C (v2) or fail to decode are skipped and
// recorded in the report, after which the decoder resyncs to the next
// plausible chunk frame and continues. Recovered chunks are concatenated in
// order, so a container with one corrupt chunk yields every other chunk's
// data and a report naming the one that was lost.
//
// The returned error is non-nil only when nothing is recoverable — the
// fixed header is unusable or names an unknown solver. A damaged-but-
// partially-recovered container returns data, a non-clean report, and a nil
// error.
func DecompressSalvage(data []byte) ([]byte, *CorruptionReport, error) {
	rep := &CorruptionReport{}
	h, err := parseHeader(data)
	if err != nil {
		return nil, rep, err
	}
	rep.Format = string(data[:4])
	if !h.crcOK {
		rep.Add(0, -1, fmt.Errorf("%w: header: %w", ErrCorrupt, ErrChecksum))
	}
	sv, err := solver.Get(string(h.solverName))
	if err != nil {
		err = fmt.Errorf("%w: %v", ErrCorrupt, err)
		rep.Add(0, -1, err)
		return nil, rep, err
	}

	m := tmet.Load()
	cs := trace.Start(trace.Span{}, "core.salvage").Attr("container_bytes", int64(len(data)))
	if !h.crcOK {
		cs.Anomaly(trace.KindSalvageFault, "header checksum mismatch")
	}
	out := make([]byte, 0, h.preSize(len(data)))
	var ds DecompStats
	var sc scratch
	var prevIndex *freq.Index
	pos := h.end
	chunkIdx := 0
	for uint64(len(out)) < h.total && pos < len(data) {
		rec, _, next, err := h.frame(data, pos)
		if err == nil {
			var grown []byte
			var idx *freq.Index
			grown, idx, err = decompressChunk(func() []byte { return out }, rec, maxChunkRaw, &h, sv, prevIndex, &ds, &sc, m, trace.Span{})
			if err == nil {
				prevIndex = idx
				out = grown
				pos = next
				chunkIdx++
				continue
			}
		}
		rep.Add(pos, chunkIdx, err)
		cs.Anomaly(trace.KindSalvageFault,
			fmt.Sprintf("chunk %d at offset %d: %v", chunkIdx, pos, err))
		chunkIdx++
		// A lost chunk may also have carried the index later IndexReuse
		// chunks depend on; drop it so stale mappings are not applied.
		prevIndex = nil
		np := h.resync(data, pos+1)
		if np < 0 {
			break
		}
		cs.Event(trace.KindResync, fmt.Sprintf("resynced to offset %d", np))
		pos = np
	}
	if uint64(len(out)) != h.total {
		rep.Add(len(data), -1, fmt.Errorf("%w: recovered %d of %d bytes", ErrCorrupt, len(out), h.total))
		cs.Anomaly(trace.KindSalvageFault,
			fmt.Sprintf("recovered %d of %d bytes", len(out), h.total))
	}
	if m != nil {
		m.salvageFaults.Add(int64(len(rep.Corruptions)))
	}
	cs.Attr("recovered_bytes", int64(len(out))).
		Attr("faults", int64(len(rep.Corruptions))).
		End(nil)
	return out, rep, nil
}

// Verify checks a container's integrity end to end: header and per-chunk
// checksums for v2, plus a full trial decode of every chunk for both
// versions. It returns a report listing every detected fault (empty when
// the container is intact). The error is non-nil only when the input is not
// a PRIMACY container at all.
func Verify(data []byte) (*CorruptionReport, error) {
	_, rep, err := DecompressSalvage(data)
	return rep, err
}
