// Byte planes: the one transposition the chunk path performs. An N×w
// row-major chunk becomes w contiguous planes of N bytes, plane c holding
// byte c of every element — planes 0–1 are the high-order bytes the ID mapper
// reads, planes 2… the mantissa columns ISOBAR routes. Steps 2, 4 and 7 of
// the paper (byte split, column linearization, ISOBAR's column routing) are
// all this transpose, so it is done once; every later stage reads planes.
//
// The word kernels move eight elements per iteration. Eight little-endian
// uint64 loads form an 8×8 byte matrix that three rounds of masked
// delta-swaps transpose in registers (exchange 1-byte blocks between rows
// j/j+1, 2-byte blocks between j/j+2, 4-byte blocks between j/j+4), after
// which row c is eight consecutive bytes of plane c and leaves with one
// store. The transpose is an involution, so the inverse runs the same rounds
// from plane words back to element words. As in word.go the little-endian
// views are a byte-order interpretation: results are byte-exact on any
// platform, and the scalar loops below are the ground truth the tests hold
// the kernels to.
package bytesplit

import (
	"encoding/binary"
	"fmt"
	"slices"
)

// AppendPlanes appends the byte-plane form of data to dst and returns the
// extended slice: ElemBytes planes of n = len(data)/ElemBytes bytes each,
// plane c at offset c*n, holding data[i*ElemBytes+c] at position i. dst must
// not alias data. A non-nil counts (SequencePairs entries, zeroed by the
// caller) is incremented for each element's big-endian 2-byte high-order
// sequence in the same pass — the fused histogram of AppendSplitCount.
func (l Layout) AppendPlanes(dst, data []byte, counts []uint32) ([]byte, error) {
	if !l.Valid() {
		return nil, fmt.Errorf("bytesplit: invalid layout %+v", l)
	}
	if counts != nil && len(counts) != SequencePairs {
		return nil, fmt.Errorf("bytesplit: counts size %d, want %d", len(counts), SequencePairs)
	}
	if len(data)%l.ElemBytes != 0 {
		return nil, fmt.Errorf("%w: %d", ErrBadLength, len(data))
	}
	var cnt *[SequencePairs]uint32
	if counts != nil {
		cnt = (*[SequencePairs]uint32)(counts)
	}
	n := len(data) / l.ElemBytes
	base := len(dst)
	out := slices.Grow(dst, len(data))[:len(dst)+len(data)]
	seg := out[base:]
	done := 0
	switch l.ElemBytes {
	case 8:
		done = planes8(seg, data, n, cnt)
	case 4:
		done = planes4(seg, data, n, cnt)
	}
	planesScalar(seg, data, l.ElemBytes, n, done, cnt)
	return out, nil
}

// AppendMergePlanes inverts AppendPlanes: it appends the row-major chunk
// whose byte c of element i is planes[c][i]. The planes are separate slices
// so a decoder can point them at wherever the bytes already are (solver
// output, the record's raw columns) instead of gathering them first; there
// must be ElemBytes of them, all the same length. dst must not alias any
// plane.
func (l Layout) AppendMergePlanes(dst []byte, planes [][]byte) ([]byte, error) {
	if !l.Valid() {
		return nil, fmt.Errorf("bytesplit: invalid layout %+v", l)
	}
	if len(planes) != l.ElemBytes {
		return nil, fmt.Errorf("bytesplit: %d planes for %d-byte elements", len(planes), l.ElemBytes)
	}
	n := len(planes[0])
	for c, p := range planes {
		if len(p) != n {
			return nil, fmt.Errorf("%w: plane %d has %d bytes, plane 0 has %d", ErrBadLength, c, len(p), n)
		}
	}
	base := len(dst)
	out := slices.Grow(dst, n*l.ElemBytes)[:len(dst)+n*l.ElemBytes]
	seg := out[base:]
	done := 0
	switch l.ElemBytes {
	case 8:
		done = mergePlanes8(seg, planes, n)
	case 4:
		done = mergePlanes4(seg, planes, n)
	}
	mergePlanesScalar(seg, planes, l.ElemBytes, n, done)
	return out, nil
}

// planesScalar is the scalar reference for the chunk → planes transpose,
// covering elements [from, n): the kernels' tails and every layout without a
// kernel.
func planesScalar(seg, data []byte, w, n, from int, cnt *[SequencePairs]uint32) {
	for i := from; i < n; i++ {
		row := data[i*w : i*w+w]
		for c, b := range row {
			seg[c*n+i] = b
		}
		if cnt != nil {
			cnt[uint16(row[0])<<8|uint16(row[1])]++
		}
	}
}

// mergePlanesScalar is the scalar reference for the planes → chunk
// interleave, covering elements [from, n).
func mergePlanesScalar(seg []byte, planes [][]byte, w, n, from int) {
	for i := from; i < n; i++ {
		row := seg[i*w : i*w+w]
		for c := range row {
			row[c] = planes[c][i]
		}
	}
}

const (
	swapMask8  = 0x00FF00FF00FF00FF
	swapMask16 = 0x0000FFFF0000FFFF
	swapMask32 = 0x00000000FFFFFFFF
)

// deltaSwap exchanges the bits of a selected by m<<s with the bits of b
// selected by m — one 2×2 block swap of the in-register transpose.
func deltaSwap(a, b uint64, m uint64, s uint) (uint64, uint64) {
	t := (a>>s ^ b) & m
	return a ^ t<<s, b ^ t
}

// transpose8x8 transposes the 8×8 byte matrix whose row j is r[j]
// (little-endian: byte c of row j sits at bits 8c). Its own inverse.
func transpose8x8(r0, r1, r2, r3, r4, r5, r6, r7 uint64) (uint64, uint64, uint64, uint64, uint64, uint64, uint64, uint64) {
	r0, r1 = deltaSwap(r0, r1, swapMask8, 8)
	r2, r3 = deltaSwap(r2, r3, swapMask8, 8)
	r4, r5 = deltaSwap(r4, r5, swapMask8, 8)
	r6, r7 = deltaSwap(r6, r7, swapMask8, 8)
	r0, r2 = deltaSwap(r0, r2, swapMask16, 16)
	r1, r3 = deltaSwap(r1, r3, swapMask16, 16)
	r4, r6 = deltaSwap(r4, r6, swapMask16, 16)
	r5, r7 = deltaSwap(r5, r7, swapMask16, 16)
	r0, r4 = deltaSwap(r0, r4, swapMask32, 32)
	r1, r5 = deltaSwap(r1, r5, swapMask32, 32)
	r2, r6 = deltaSwap(r2, r6, swapMask32, 32)
	r3, r7 = deltaSwap(r3, r7, swapMask32, 32)
	return r0, r1, r2, r3, r4, r5, r6, r7
}

// transpose4x4x2 transposes two 4×4 byte matrices at once, one per 32-bit
// half of the four rows. Its own inverse.
func transpose4x4x2(r0, r1, r2, r3 uint64) (uint64, uint64, uint64, uint64) {
	r0, r1 = deltaSwap(r0, r1, swapMask8, 8)
	r2, r3 = deltaSwap(r2, r3, swapMask8, 8)
	r0, r2 = deltaSwap(r0, r2, swapMask16, 16)
	r1, r3 = deltaSwap(r1, r3, swapMask16, 16)
	return r0, r1, r2, r3
}

// seqOf converts the low two bytes of a little-endian element word to the
// big-endian sequence value the frequency mapper ranks.
func seqOf(v uint64) uint16 { return uint16(v)<<8 | uint16(v)>>8 }

// planes8 transposes float64-layout data eight elements per iteration and
// returns how many elements it covered.
func planes8(seg, data []byte, n int, cnt *[SequencePairs]uint32) int {
	le := binary.LittleEndian
	nb := n / 8
	p0, p1, p2, p3 := seg[0:n], seg[n:2*n], seg[2*n:3*n], seg[3*n:4*n]
	p4, p5, p6, p7 := seg[4*n:5*n], seg[5*n:6*n], seg[6*n:7*n], seg[7*n:8*n]
	for b := 0; b < nb; b++ {
		d := data[b*64 : b*64+64]
		r0, r1, r2, r3 := le.Uint64(d[0:8]), le.Uint64(d[8:16]), le.Uint64(d[16:24]), le.Uint64(d[24:32])
		r4, r5, r6, r7 := le.Uint64(d[32:40]), le.Uint64(d[40:48]), le.Uint64(d[48:56]), le.Uint64(d[56:64])
		if cnt != nil {
			cnt[seqOf(r0)]++
			cnt[seqOf(r1)]++
			cnt[seqOf(r2)]++
			cnt[seqOf(r3)]++
			cnt[seqOf(r4)]++
			cnt[seqOf(r5)]++
			cnt[seqOf(r6)]++
			cnt[seqOf(r7)]++
		}
		r0, r1, r2, r3, r4, r5, r6, r7 = transpose8x8(r0, r1, r2, r3, r4, r5, r6, r7)
		o := b * 8
		le.PutUint64(p0[o:o+8], r0)
		le.PutUint64(p1[o:o+8], r1)
		le.PutUint64(p2[o:o+8], r2)
		le.PutUint64(p3[o:o+8], r3)
		le.PutUint64(p4[o:o+8], r4)
		le.PutUint64(p5[o:o+8], r5)
		le.PutUint64(p6[o:o+8], r6)
		le.PutUint64(p7[o:o+8], r7)
	}
	return nb * 8
}

// mergePlanes8 interleaves eight planes back into float64-layout rows eight
// elements per iteration and returns how many elements it covered.
func mergePlanes8(seg []byte, planes [][]byte, n int) int {
	le := binary.LittleEndian
	nb := n / 8
	p0, p1, p2, p3 := planes[0], planes[1], planes[2], planes[3]
	p4, p5, p6, p7 := planes[4], planes[5], planes[6], planes[7]
	for b := 0; b < nb; b++ {
		o := b * 8
		r0, r1, r2, r3, r4, r5, r6, r7 := transpose8x8(
			le.Uint64(p0[o:o+8]), le.Uint64(p1[o:o+8]), le.Uint64(p2[o:o+8]), le.Uint64(p3[o:o+8]),
			le.Uint64(p4[o:o+8]), le.Uint64(p5[o:o+8]), le.Uint64(p6[o:o+8]), le.Uint64(p7[o:o+8]))
		d := seg[b*64 : b*64+64]
		le.PutUint64(d[0:8], r0)
		le.PutUint64(d[8:16], r1)
		le.PutUint64(d[16:24], r2)
		le.PutUint64(d[24:32], r3)
		le.PutUint64(d[32:40], r4)
		le.PutUint64(d[40:48], r5)
		le.PutUint64(d[48:56], r6)
		le.PutUint64(d[56:64], r7)
	}
	return nb * 8
}

// planes4 is the float32-layout analogue: eight 4-byte elements arrive in
// four loads (two elements per word); pairing elements j and j+4 in one word
// lets the two 4×4 transposes run side by side, so each of the four planes
// still leaves with one 8-byte store.
func planes4(seg, data []byte, n int, cnt *[SequencePairs]uint32) int {
	le := binary.LittleEndian
	nb := n / 8
	p0, p1, p2, p3 := seg[0:n], seg[n:2*n], seg[2*n:3*n], seg[3*n:4*n]
	for b := 0; b < nb; b++ {
		d := data[b*32 : b*32+32]
		// l0 = e0|e1, l1 = e2|e3, l2 = e4|e5, l3 = e6|e7 (low|high half).
		l0, l1, l2, l3 := le.Uint64(d[0:8]), le.Uint64(d[8:16]), le.Uint64(d[16:24]), le.Uint64(d[24:32])
		if cnt != nil {
			cnt[seqOf(l0)]++
			cnt[seqOf(l0>>32)]++
			cnt[seqOf(l1)]++
			cnt[seqOf(l1>>32)]++
			cnt[seqOf(l2)]++
			cnt[seqOf(l2>>32)]++
			cnt[seqOf(l3)]++
			cnt[seqOf(l3>>32)]++
		}
		// r0 = e0|e4, r1 = e1|e5, r2 = e2|e6, r3 = e3|e7.
		r0, r1 := deltaSwap(l0, l2, swapMask32, 32)
		r2, r3 := deltaSwap(l1, l3, swapMask32, 32)
		r0, r1, r2, r3 = transpose4x4x2(r0, r1, r2, r3)
		o := b * 8
		le.PutUint64(p0[o:o+8], r0)
		le.PutUint64(p1[o:o+8], r1)
		le.PutUint64(p2[o:o+8], r2)
		le.PutUint64(p3[o:o+8], r3)
	}
	return nb * 8
}

// mergePlanes4 inverts planes4.
func mergePlanes4(seg []byte, planes [][]byte, n int) int {
	le := binary.LittleEndian
	nb := n / 8
	p0, p1, p2, p3 := planes[0], planes[1], planes[2], planes[3]
	for b := 0; b < nb; b++ {
		o := b * 8
		r0, r1, r2, r3 := transpose4x4x2(
			le.Uint64(p0[o:o+8]), le.Uint64(p1[o:o+8]), le.Uint64(p2[o:o+8]), le.Uint64(p3[o:o+8]))
		l0, l2 := deltaSwap(r0, r1, swapMask32, 32)
		l1, l3 := deltaSwap(r2, r3, swapMask32, 32)
		d := seg[b*32 : b*32+32]
		le.PutUint64(d[0:8], l0)
		le.PutUint64(d[8:16], l1)
		le.PutUint64(d[16:24], l2)
		le.PutUint64(d[24:32], l3)
	}
	return nb * 8
}
