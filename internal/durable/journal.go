package durable

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"

	"primacy/internal/bytesplit"
	"primacy/internal/checksum"
)

// Journal layout. The file opens with a 4-byte magic, then append-only put
// records:
//
//	journal = "PWJ1" | record*
//	record  = "PJR1" | u32 bodyLen | body | u32 recCRC
//	body    = u16 nameLen | name | u32 step | float64 values (8 × n bytes)
//
// recCRC is the CRC32C of everything before it (magic, length, body), so a
// torn write anywhere inside a record is detected as a checksum or framing
// failure. Records are fsync'd before the put is acknowledged; replay stops
// at the first record that does not verify and truncates the file there —
// bytes past that point belong to writes that were never acknowledged.
const (
	journalMagic = "PWJ1"
	recordMagic  = "PJR1"
	// recFixed is the non-body record overhead: magic + bodyLen + recCRC.
	recFixed = 4 + 4 + 4
	// bodyFixed is the non-payload body overhead: nameLen + step.
	bodyFixed = 2 + 4
	// maxJournalBody bounds a single record body (name + payload). An
	// adversarially huge length prefix in a damaged journal must not drive a
	// giant allocation; real puts are bounded far lower by the server's body
	// cap.
	maxJournalBody = 1 << 31
)

// ErrJournal indicates a malformed journal structure.
var ErrJournal = errors.New("durable: corrupt journal")

// journalRecord is one verified put record: where it sits in the journal
// and what it holds.
type journalRecord struct {
	name string
	step uint32
	// payload is the record's big-endian float64 values, a view into the
	// buffer the record was parsed from.
	payload []byte
	// off and size locate the whole record in the journal.
	off, size int64
}

// recordPool recycles the buffers records are built in and read back
// through, so neither a put nor a get keeps one past its call.
var recordPool sync.Pool

func getRecordBuf(n int) *[]byte {
	if bp, ok := recordPool.Get().(*[]byte); ok && cap(*bp) >= n {
		*bp = (*bp)[:n]
		return bp
	}
	b := make([]byte, n)
	return &b
}

// appendRecord encodes one put record onto dst.
func appendRecord(dst []byte, name string, step uint32, values []float64) []byte {
	bodyLen := bodyFixed + len(name) + len(values)*bytesplit.BytesPerValue
	start := len(dst)
	dst = append(dst, recordMagic...)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(bodyLen))
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(name)))
	dst = append(dst, name...)
	dst = binary.LittleEndian.AppendUint32(dst, step)
	dst = bytesplit.AppendFloat64s(dst, values)
	return checksum.Append(dst, dst[start:])
}

// parseRecord verifies the record starting at buf. It returns the record and
// its total encoded length. Any framing, checksum, or body inconsistency
// returns ErrJournal — the caller treats the failure as the torn tail and
// truncates.
func parseRecord(buf []byte) (journalRecord, int, error) {
	var rec journalRecord
	if len(buf) < recFixed+bodyFixed {
		return rec, 0, fmt.Errorf("%w: %d trailing bytes", ErrJournal, len(buf))
	}
	if string(buf[:4]) != recordMagic {
		return rec, 0, fmt.Errorf("%w: bad record magic", ErrJournal)
	}
	bodyLen := int(binary.LittleEndian.Uint32(buf[4:]))
	if bodyLen < bodyFixed || bodyLen > maxJournalBody {
		return rec, 0, fmt.Errorf("%w: body length %d out of range", ErrJournal, bodyLen)
	}
	total := recFixed + bodyLen
	if total > len(buf) {
		return rec, 0, fmt.Errorf("%w: record needs %d bytes, %d remain", ErrJournal, total, len(buf))
	}
	if !checksum.Check(buf[total-4:], buf[:total-4]) {
		return rec, 0, fmt.Errorf("%w: record checksum mismatch", ErrJournal)
	}
	body := buf[8 : total-4]
	nameLen := int(binary.LittleEndian.Uint16(body))
	if nameLen == 0 || bodyFixed+nameLen > len(body) {
		return rec, 0, fmt.Errorf("%w: name length %d out of range", ErrJournal, nameLen)
	}
	rec.name = string(body[2 : 2+nameLen])
	rec.step = binary.LittleEndian.Uint32(body[2+nameLen:])
	rec.payload = body[bodyFixed+nameLen:]
	if len(rec.payload)%bytesplit.BytesPerValue != 0 {
		return rec, 0, fmt.Errorf("%w: payload of %d bytes", ErrJournal, len(rec.payload))
	}
	return rec, total, nil
}

// replayJournal walks a journal image. It returns the verified records, the
// byte offset of the end of the last intact record (the good length), and
// the number of tail bytes that failed to verify (0 for a clean journal).
// A journal that does not even open with the magic replays as empty with
// every byte counted torn.
func replayJournal(buf []byte) (recs []journalRecord, goodLen int64, tornBytes int64) {
	if len(buf) < len(journalMagic) || string(buf[:4]) != journalMagic {
		return nil, 0, int64(len(buf))
	}
	pos := len(journalMagic)
	for pos < len(buf) {
		rec, n, err := parseRecord(buf[pos:])
		if err != nil {
			return recs, int64(pos), int64(len(buf) - pos)
		}
		rec.off, rec.size = int64(pos), int64(n)
		recs = append(recs, rec)
		pos += n
	}
	return recs, int64(pos), 0
}
