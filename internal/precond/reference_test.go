package precond

import (
	"bytes"
	"testing"
)

// The reference transform: predictXOR's Forward and Inverse as the package
// shipped them before the word kernel, one element at a time through byte
// loads and stores, at every width they are right for (2–8). Forward and
// Inverse must write exactly the bytes refForward and refInverse write, on
// any input, in place or not.

// refPredictor is the predictor state, reset per call.
type refPredictor struct {
	fcm, dfcm             []uint64
	fcmHash, dfcmHash     uint64
	last                  uint64
	useDFCM               bool
	hashShift, deltaShift uint
}

func newRefPredictor(elemBytes int) *refPredictor {
	size := 1 << predictXORTableBits
	p := &refPredictor{fcm: make([]uint64, size), dfcm: make([]uint64, size)}
	p.hashShift = uint(8 * (elemBytes - 2))
	if elemBytes >= 3 {
		p.deltaShift = uint(8 * (elemBytes - 3))
	}
	return p
}

func (p *refPredictor) step(v, xf, xd uint64) {
	p.useDFCM = refLeadingZeros(xd) > refLeadingZeros(xf)
	mask := uint64(len(p.fcm) - 1)
	p.fcm[p.fcmHash] = v
	p.fcmHash = ((p.fcmHash << 6) ^ (v >> p.hashShift)) & mask
	delta := v - p.last
	p.dfcm[p.dfcmHash] = delta
	p.dfcmHash = ((p.dfcmHash << 2) ^ (delta >> p.deltaShift)) & mask
	p.last = v
}

func refLeadingZeros(v uint64) int {
	n := 0
	for bit := uint64(1) << 63; bit != 0 && v&bit == 0; bit >>= 1 {
		n++
	}
	return n
}

func refLoad(b []byte, w int) uint64 {
	var v uint64
	for i := 0; i < w; i++ {
		v = v<<8 | uint64(b[i])
	}
	return v
}

func refStore(b []byte, v uint64, w int) {
	for i := w - 1; i >= 0; i-- {
		b[i] = byte(v)
		v >>= 8
	}
}

// refForward is the residual stream of src, elements of elemBytes ≤ 8.
func refForward(src []byte, elemBytes int) []byte {
	p := newRefPredictor(elemBytes)
	out := make([]byte, len(src))
	for i := 0; i+elemBytes <= len(src); i += elemBytes {
		v := refLoad(src[i:], elemBytes)
		fcmPred := p.fcm[p.fcmHash]
		dfcmPred := p.dfcm[p.dfcmHash] + p.last
		xf, xd := v^fcmPred, v^dfcmPred
		if p.useDFCM {
			refStore(out[i:], xd, elemBytes)
		} else {
			refStore(out[i:], xf, elemBytes)
		}
		p.step(v, xf, xd)
	}
	return out
}

// refInverse is the value stream whose residuals are src.
func refInverse(src []byte, elemBytes int) []byte {
	p := newRefPredictor(elemBytes)
	out := make([]byte, len(src))
	mask := ^uint64(0) >> (64 - 8*uint(elemBytes))
	for i := 0; i+elemBytes <= len(src); i += elemBytes {
		res := refLoad(src[i:], elemBytes)
		fcmPred := p.fcm[p.fcmHash]
		dfcmPred := p.dfcm[p.dfcmHash] + p.last
		v := (res ^ fcmPred) & mask
		if p.useDFCM {
			v = (res ^ dfcmPred) & mask
		}
		p.step(v, v^fcmPred, v^dfcmPred)
		refStore(out[i:], v, elemBytes)
	}
	return out
}

// checkPredictXOR holds one predictXOR instance to the reference on data at
// width w ≤ 8: Forward writes the reference's residuals and Inverse takes
// them back; Inverse of data itself — arbitrary bytes read as residuals —
// writes the reference's values out of place, behind live bytes, and in
// place, where src is the tail of dst.
func checkPredictXOR(t *testing.T, p *predictXOR, data []byte, w int) {
	t.Helper()
	res, err := p.Forward([]byte("pre"), data, w)
	if err != nil || string(res[:3]) != "pre" || !bytes.Equal(res[3:], refForward(data, w)) {
		t.Fatalf("w%d, %d bytes: Forward differs from the reference: %v", w, len(data), err)
	}
	if back, err := p.Inverse(nil, res[3:], w); err != nil || !bytes.Equal(back, data) {
		t.Fatalf("w%d, %d bytes: Inverse(Forward(x)) != x: %v", w, len(data), err)
	}
	want := refInverse(data, w)
	if out, err := p.Inverse(nil, data, w); err != nil || !bytes.Equal(out, want) {
		t.Fatalf("w%d, %d bytes: Inverse differs from the reference: %v", w, len(data), err)
	}
	buf := append([]byte("pre"), data...)
	out, err := p.Inverse(buf[:3], buf[3:], w)
	if err != nil || &out[0] != &buf[0] || string(out[:3]) != "pre" || !bytes.Equal(out[3:], want) {
		t.Fatalf("w%d, %d bytes: in-place Inverse differs from the reference: %v", w, len(data), err)
	}
}

// Every width the transform takes, on smooth, noisy and repeating elements,
// long enough for the hash tables to fill and collide.
func TestPredictXORMatchesReference(t *testing.T) {
	p := new(predictXOR)
	for _, in := range [][]byte{
		synthetic(8192, 31),
		noise(8192*8, 32),
		bytes.Repeat([]byte{0x40, 0x59, 0, 0, 0, 0, 0, 1, 0xc0}, 3000),
	} {
		for w := 2; w <= predictXORMaxWidth; w++ {
			checkPredictXOR(t, p, in[:len(in)/w*w], w)
		}
	}
}

// FuzzPredictXOR: on arbitrary bytes at any width from 2 to 8, Inverse does
// not panic, Inverse(Forward(x)) is x, and in place, out of place and the
// reference give the same bytes (checkPredictXOR).
func FuzzPredictXOR(f *testing.F) {
	f.Add(synthetic(64, 1), uint8(6))
	f.Add(noise(60, 2), uint8(2))
	f.Add([]byte{}, uint8(0))
	f.Add(bytes.Repeat([]byte{0x40, 0x59, 0, 0, 0, 0, 0, 1}, 16), uint8(5))
	p := new(predictXOR) // one instance: no call may see another's state
	f.Fuzz(func(t *testing.T, data []byte, w uint8) {
		width := 2 + int(w)%(predictXORMaxWidth-1)
		checkPredictXOR(t, p, data[:len(data)/width*width], width)
	})
}
