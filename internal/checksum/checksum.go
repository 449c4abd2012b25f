// Package checksum provides the CRC32C (Castagnoli) checksum used by every
// v2 PRIMACY container format. hash/crc32 dispatches to the SSE4.2 CRC32
// instruction on amd64 (and the ARMv8 CRC extension on arm64), so the cost
// per byte is far below the codec's own transform stages.
package checksum

import (
	"encoding/binary"
	"hash/crc32"
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Sum returns the CRC32C of b.
func Sum(b []byte) uint32 { return crc32.Checksum(b, castagnoli) }

// Update returns the CRC32C of a's bytes followed by b, given crc, the
// CRC32C of a.
func Update(crc uint32, b []byte) uint32 { return crc32.Update(crc, castagnoli, b) }

// Append appends the little-endian CRC32C of b to dst and returns the
// extended slice (the framing idiom shared by the v2 container writers).
func Append(dst, b []byte) []byte {
	var u32 [4]byte
	binary.LittleEndian.PutUint32(u32[:], Sum(b))
	return append(dst, u32[:]...)
}

// Check reports whether the little-endian CRC stored at the start of crc
// matches the CRC32C of b. crc must hold at least 4 bytes.
func Check(crc, b []byte) bool {
	return binary.LittleEndian.Uint32(crc) == Sum(b)
}

// poly is the Castagnoli polynomial, bit-reflected.
const poly = 0x82f63b78

// Combine returns the CRC32C of a's bytes followed by b's, given crcA, the
// CRC32C of a, crcB, that of b, and lenB, the length of b: what a reader
// that checked its pieces one by one knows of their concatenation without
// reading a byte again. It costs O(log lenB), not O(lenB): crcA is shifted
// over lenB zero bytes by a multiplication by x^(8·lenB) modulo the
// polynomial. The pre- and post-inversion of the CRC cancel out, as in
// zlib's crc32_combine.
func Combine(crcA, crcB uint32, lenB int) uint32 {
	if lenB <= 0 {
		return crcA
	}
	return mulmod(xpow8n(uint64(lenB)), crcA) ^ crcB
}

// mulmod returns a·b modulo the polynomial, both bit-reflected: bit 31 is
// the coefficient of x^0.
func mulmod(a, b uint32) uint32 {
	var p uint32
	for m := uint32(1) << 31; m != 0; m >>= 1 {
		if a&m != 0 {
			p ^= b
		}
		if b&1 != 0 {
			b = b>>1 ^ poly
		} else {
			b >>= 1
		}
	}
	return p
}

// x2k holds x^(2^k) modulo the polynomial, reflected: k = 3 + the bit of a
// byte count, which is below 64.
var x2k = func() (t [3 + 64]uint32) {
	t[0] = 1 << 30 // x^1
	for k := 1; k < len(t); k++ {
		t[k] = mulmod(t[k-1], t[k-1])
	}
	return t
}()

// xpow8n returns x^(8·n) modulo the polynomial, reflected: the factor that
// shifts a CRC over n zero bytes.
func xpow8n(n uint64) uint32 {
	p := uint32(1) << 31 // x^0
	for k := 3; n != 0; k, n = k+1, n>>1 {
		if n&1 != 0 {
			p = mulmod(x2k[k], p)
		}
	}
	return p
}
