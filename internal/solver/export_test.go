package solver

import "encoding/binary"

// What the tests in package solver_test (which may import core, and so
// cannot live inside this package) need of the default level's internals.

const (
	ZlibSegment = zlibSegment
	ZlibLZ      = zlibLZ
	ZlibRLE     = zlibRLE
	ZlibOrder0  = zlibOrder0
)

// ZlibVerdict is how the encoder codes a segment: ZlibLZ, ZlibRLE or
// ZlibOrder0.
type ZlibVerdict = zlibVerdict

// ZlibRun is one run of the plan: src[Start:End], coded as Verdict says.
type ZlibRun struct {
	Verdict    ZlibVerdict
	Start, End int
}

// ZlibPlan returns the runs the encoder cuts src into, decided by a fresh
// encoder.
func ZlibPlan(src []byte) []ZlibRun {
	var e zlibEncoder
	var runs []ZlibRun
	for start := 0; start < len(src); {
		v, end := e.nextRun(src, start)
		if n := len(runs); n > 0 && runs[n-1].Verdict == v {
			runs[n-1].End = end // the run coder's classes come a segment at a time
		} else {
			runs = append(runs, ZlibRun{v, start, end})
		}
		start = end
	}
	return runs
}

// BlockSize is the size in bytes of seg coded alone by the run coder as the
// class v (ZlibRLE or ZlibOrder0) would code it.
func BlockSize(seg []byte, v ZlibVerdict) int {
	var r rleCoder
	plan(&r, seg, v)
	return (r.size + 7) / 8
}

func plan(r *rleCoder, seg []byte, v ZlibVerdict) {
	if v == zlibRLE {
		r.planRuns(seg)
	} else {
		r.planLiterals(seg)
	}
}

// EncodePlan is the stream the encoder writes for src under plan, which need
// not be the plan its verdicts make: the reference that prices one class
// against another. Adjacent level-6 runs are one run, and an empty plan is one
// empty level-6 run.
func EncodePlan(src []byte, runs []ZlibRun) []byte {
	if len(runs) == 0 {
		runs = []ZlibRun{{zlibLZ, 0, 0}}
	}
	var e zlibEncoder
	dst := []byte{0x78, 0x9c}
	for i := 0; i < len(runs); i++ {
		run := runs[i]
		if run.Verdict == zlibLZ {
			for i+1 < len(runs) && runs[i+1].Verdict == zlibLZ {
				i++
			}
			dst = e.writeRun(dst, src[run.Start:runs[i].End], zlibLZ, runs[i].End == len(src))
			continue
		}
		for start, end := run.Start, 0; start < run.End; start = end {
			end = min(segmentEnd(src, start), run.End) // an order-0 run ends before a tail
			plan(&e.rle, src[start:end], run.Verdict)
			dst = e.writeRun(dst, src[start:end], run.Verdict, end == len(src))
		}
	}
	return binary.BigEndian.AppendUint32(dst, adler32sum(src))
}

// Inflate is the in-tree inflater on the raw DEFLATE stream at the head of
// src: the output appended to dst and how many bytes of src it took.
func Inflate(dst, src []byte) ([]byte, int, error) {
	f := inflaters.Get().(*inflater)
	defer inflaters.Put(f)
	return f.inflate(dst, src)
}
