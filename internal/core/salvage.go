package core

import "context"

// DecompressSalvage decompresses as much of a damaged container as possible.
// Chunks that fail their CRC32C (v2) or fail to decode are skipped and
// recorded in the report, after which the decoder resyncs to the next
// plausible chunk frame and continues. Recovered chunks are concatenated in
// order, so a container with one corrupt chunk yields every other chunk's
// data and a report naming the one that was lost. An intact container gives
// Decompress's bytes and a clean report.
//
// The returned error is non-nil only when nothing is recoverable — the
// fixed header is unusable or names an unknown solver. A damaged-but-
// partially-recovered container returns data, a non-clean report, and a nil
// error.
func DecompressSalvage(data []byte) ([]byte, *CorruptionReport, error) {
	rep := &CorruptionReport{}
	var c Codec
	out, _, err := c.decode(context.Background(), func() []byte { return nil }, data, rep)
	return out, rep, err
}
