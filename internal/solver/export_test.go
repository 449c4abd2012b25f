package solver

// What the tests in package solver_test (which may import core, and so
// cannot live inside this package) need of the default level's internals.

const (
	ZlibSegment = zlibSegment
	ZlibLZ      = zlibLZ
	ZlibFast    = zlibFast
	ZlibRLE     = zlibRLE
	RaceEnabled = raceEnabled
)

// ZlibRun is one run of the plan: src[Start:End] coded at flate level Level,
// which is flate.HuffmanOnly, ZlibFast, ZlibFast2 or ZlibLZ.
type ZlibRun struct{ Level, Start, End int }

// ZlibPlan returns the runs the default level cuts src into, decided by a
// fresh encoder.
func ZlibPlan(src []byte) []ZlibRun {
	var e zlibEncoder
	var runs []ZlibRun
	for start := 0; start < len(src); {
		level, end := e.nextRun(src, start)
		if n := len(runs); n > 0 && runs[n-1].Level == level {
			runs[n-1].End = end // the run class comes a segment at a time
		} else {
			runs = append(runs, ZlibRun{level, start, end})
		}
		start = end
	}
	return runs
}

// RLESize is the size in bytes of seg coded alone by the run class's coder.
func RLESize(seg []byte) int {
	var r rleCoder
	r.plan(seg)
	return (r.size + 7) / 8
}

// Inflate is the in-tree inflater on the raw DEFLATE stream at the head of
// src: the output appended to dst and how many bytes of src it took.
func Inflate(dst, src []byte) ([]byte, int, error) {
	f := inflaters.Get().(*inflater)
	defer inflaters.Put(f)
	return f.inflate(dst, src)
}
