package lzo

import "encoding/binary"

// AppendCompressUnsampled is AppendCompress without the sampled early-out:
// the match finder runs over all of src whatever a sample would say. It is
// the reference the early-out's verdicts are held against.
func AppendCompressUnsampled(dst, src []byte) []byte {
	out := append(dst, magic...)
	out = binary.LittleEndian.AppendUint64(out, uint64(len(src)))
	t := matchTables.Get().(*matchTable)
	out = appendTokens(out, src, 0, len(src), &t.pos, t.begin(len(src)))
	matchTables.Put(t)
	return out
}
