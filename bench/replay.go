package main

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"

	"primacy/internal/bytesplit"
	"primacy/internal/checksum"
	"primacy/internal/chunker"
	"primacy/internal/core"
	"primacy/internal/freq"
	"primacy/internal/isobar"
	"primacy/internal/precond"
	"primacy/internal/solver"
)

// The replay gets the per-layer numbers from outside the program: it pushes
// each chunk through the layers' public functions in the order
// core.compressChunk and core.decompressChunk call them, with a benchmark
// span around every call. Its output must equal core's container byte for
// byte, and its decode must equal the input, or the run is incorrect — that
// equality is the evidence that the replay does the work core does.
//
// It follows the paths the workloads use (ranked mapping, column
// linearization, an index per chunk, ISOBAR on) and the PRM2/PRM3 record
// layout; newReplayer refuses other options.

var errReplay = errors.New("replay: malformed container")

// Stage span names per direction. The closure sums their self time.
var (
	compressStages = []string{
		"precond.pick", "precond.forward", "bytesplit.split", "freq.build_index",
		"freq.encode", "bytesplit.columnize", "solver.hi_compress", "isobar.analyze",
		"isobar.partition", "solver.lo_compress", "isobar.fallback", "checksum.crc", "core.frame",
	}
	decompressStages = []string{
		"checksum.check", "freq.unmarshal_index", "solver.decompress", "bytesplit.decolumnize",
		"freq.decode", "isobar.unpartition", "bytesplit.merge", "precond.inverse", "core.frame_dec",
	}
)

// chunkCounts are the exact counts the replay takes at the layer boundaries.
type chunkCounts struct {
	Chunks, Fallbacks, XorChunks   int
	RawBytes, HiRaw, HiComp        int64
	IndexBytes, UniqueSeqs         int64
	SolverInHi, SolverInLo         int64
	LoCompIn, LoCompOut, SolverOut int64
	ContainerBytes                 int64
	Alpha2Sum                      float64
}

type replayer struct {
	rec  *recorder
	opts core.Options
	lay  bytesplit.Layout
	sv   solver.Compressor
	sel  *precond.Selector
	// trial owns the scratch of a-posteriori trial compressions, which must
	// not alias the live chunk's buffers; it records nothing.
	trial *replayer
	tf    map[precond.TransformID]precond.Transform

	hi, lo, ids, col, comp, incomp, idsCmp, cmpOut, enc, tbuf, empty []byte
	chunk, tchunk                                                    []byte
	counts                                                           []uint32

	n chunkCounts
}

func newReplayer(opts core.Options, rec *recorder) (*replayer, error) {
	if opts.Mapping != core.MapRanked || opts.Linearization != core.LinearizeColumns ||
		opts.IndexMode != core.IndexPerChunk || opts.DisableISOBAR || opts.Precision != core.Float64 {
		return nil, errors.New("replay: only the paper-default mapping, linearization, index mode and ISOBAR are replayed")
	}
	name := opts.Solver
	if name == "" {
		name = "zlib"
	}
	sv, err := solver.Get(name)
	if err != nil {
		return nil, err
	}
	r := &replayer{rec: rec, opts: opts, lay: bytesplit.Float64Layout, sv: sv,
		counts: make([]uint32, freq.SequenceSpace), tf: map[precond.TransformID]precond.Transform{}}
	if opts.Precond.Selection != precond.Fixed {
		r.sel, err = precond.NewSelector(opts.Precond.Selection, opts.Precond.Transform,
			opts.Precond.Candidates, opts.Precond.SampleElems)
		if err != nil {
			return nil, err
		}
		r.trial = &replayer{opts: opts, lay: r.lay, sv: sv, counts: make([]uint32, freq.SequenceSpace)}
	}
	return r, nil
}

// coreHeader parses the fixed prefix of a core container far enough to find
// the first chunk frame.
func coreHeader(c []byte) (end, version int, total uint64, err error) {
	if len(c) < 10 {
		return 0, 0, 0, errReplay
	}
	switch string(c[:4]) {
	case "PRM2":
		version = 2
	case "PRM3":
		version = 3
	default:
		return 0, 0, 0, fmt.Errorf("%w: magic %q", errReplay, c[:4])
	}
	pos := 10 + int(c[9])
	if pos+16 > len(c) {
		return 0, 0, 0, errReplay
	}
	total = binary.LittleEndian.Uint64(c[pos:])
	return pos + 16, version, total, nil
}

// compress replays core.Codec.Compress over data. container is core's own
// output for the same data; its header is copied, every chunk record is
// rebuilt, and the caller compares the result with container.
func (r *replayer) compress(data, container []byte, pass int) ([]byte, error) {
	hdrEnd, _, _, err := coreHeader(container)
	if err != nil {
		return nil, err
	}
	plan, err := chunker.NewPlan(len(data), r.opts.ChunkBytes, r.lay.ElemBytes)
	if err != nil {
		return nil, err
	}
	chunks, err := plan.Split(data)
	if err != nil {
		return nil, err
	}
	var trial precond.TrialFunc
	if r.sel != nil && r.sel.Mode() == precond.APosteriori {
		trial = func(_ precond.Transform, sample []byte) (int, error) {
			enc, err := r.trial.compressChunk(sample, 0, 0, 0, -1)
			return len(enc), err
		}
	}
	root := r.rec.begin("replay.compress", 0, pass, -1, int64(len(data)))
	s := r.rec.begin("core.frame", root, pass, -1, int64(hdrEnd))
	out := make([]byte, 0, len(data)/2+256)
	out = append(out, container[:hdrEnd]...)
	r.rec.end(s)
	for i, chunk := range chunks {
		cs := r.rec.begin("core.chunk", root, pass, i, int64(len(chunk)))
		tid, payload := -1, chunk
		if r.sel != nil {
			s = r.rec.begin("precond.pick", cs, pass, i, int64(len(chunk)))
			t, err := r.sel.Pick(chunk, r.lay.ElemBytes, trial)
			r.rec.end(s)
			if err != nil {
				return nil, err
			}
			tid = int(t.ID())
			if t.ID() != precond.IDChain {
				s = r.rec.begin("precond.forward", cs, pass, i, int64(len(chunk)))
				r.tbuf, err = t.Forward(r.tbuf[:0], chunk, r.lay.ElemBytes)
				r.rec.end(s)
				if err != nil {
					return nil, err
				}
				payload = r.tbuf
			}
			if t.ID() == precond.IDPredictXOR {
				r.n.XorChunks++
			}
		}
		enc, err := r.compressChunk(payload, cs, pass, i, tid)
		if err != nil {
			return nil, err
		}
		s = r.rec.begin("checksum.crc", cs, pass, i, int64(len(enc)))
		crc := checksum.Sum(enc)
		r.rec.end(s)
		s = r.rec.begin("core.frame", cs, pass, i, int64(len(enc)))
		out = binary.LittleEndian.AppendUint32(out, uint32(len(enc)))
		out = binary.LittleEndian.AppendUint32(out, crc)
		out = append(out, enc...)
		r.rec.end(s)
		r.rec.end(cs)
	}
	r.rec.end(root)
	r.n.RawBytes += int64(len(data))
	r.n.ContainerBytes += int64(len(out))
	return out, nil
}

// compressChunk mirrors core.compressChunk; the record aliases r.enc.
func (r *replayer) compressChunk(chunk []byte, cs, pass, no, tid int) ([]byte, error) {
	lay := r.lay
	n := int64(len(chunk))

	s := r.rec.begin("bytesplit.split", cs, pass, no, n)
	clear(r.counts)
	hi, lo, err := lay.AppendSplitCount(r.hi[:0], r.lo[:0], chunk, r.counts)
	r.rec.end(s)
	if err != nil {
		return nil, err
	}
	r.hi, r.lo = hi, lo

	var (
		ids       []byte
		indexBlob []byte
	)
	if len(hi) > 0 {
		s = r.rec.begin("freq.build_index", cs, pass, no, int64(len(hi)))
		idx, err := freq.BuildIndex(r.counts)
		if err == nil {
			indexBlob = idx.Marshal()
		}
		r.rec.end(s)
		if err != nil {
			return nil, err
		}
		s = r.rec.begin("freq.encode", cs, pass, no, int64(len(hi)))
		ids, err = idx.AppendEncode(r.ids[:0], hi)
		r.rec.end(s)
		if err != nil {
			return nil, err
		}
		r.ids = ids
		r.n.UniqueSeqs += int64(idx.NumSequences())
	}
	if len(ids) > 0 {
		s = r.rec.begin("bytesplit.columnize", cs, pass, no, int64(len(ids)))
		ids, err = bytesplit.AppendColumnize(r.col[:0], ids, lay.HiBytes)
		r.rec.end(s)
		if err != nil {
			return nil, err
		}
		r.col = ids
	}
	s = r.rec.begin("solver.hi_compress", cs, pass, no, int64(len(ids)))
	idsComp, err := solver.CompressTo(r.sv, r.idsCmp[:0], ids)
	r.rec.end(s)
	if err != nil {
		return nil, err
	}
	r.idsCmp = idsComp

	s = r.rec.begin("isobar.analyze", cs, pass, no, int64(len(lo)))
	analysis, err := isobar.Analyze(lo, lay.LoBytes(), r.opts.ISOBAR)
	r.rec.end(s)
	if err != nil {
		return nil, err
	}
	mask, alpha2 := analysis.Mask, analysis.CompressibleFraction()
	s = r.rec.begin("isobar.partition", cs, pass, no, int64(len(lo)))
	comp, incomp, err := isobar.AppendPartition(r.comp[:0], r.incomp[:0], lo, lay.LoBytes(), mask)
	r.rec.end(s)
	if err != nil {
		return nil, err
	}
	r.comp, r.incomp = comp, incomp
	s = r.rec.begin("solver.lo_compress", cs, pass, no, int64(len(comp)))
	compOut, err := solver.CompressTo(r.sv, r.cmpOut[:0], comp)
	r.rec.end(s)
	if err != nil {
		return nil, err
	}
	r.cmpOut = compOut
	r.n.SolverInHi += int64(len(ids))
	r.n.SolverInLo += int64(len(comp))
	// ISOBAR's no-waste guard: the solver expanded the compressible part, so
	// its output is thrown away and the mantissa columns are stored raw.
	if len(compOut) >= len(comp) && len(comp) > 0 {
		s = r.rec.begin("isobar.fallback", cs, pass, no, int64(len(lo)))
		mask, comp, alpha2 = 0, comp[:0], 0
		incomp, err = bytesplit.AppendColumnize(r.incomp[:0], lo, lay.LoBytes())
		if err == nil {
			r.incomp = incomp
			if r.empty == nil {
				r.empty, err = solver.CompressTo(r.sv, nil, nil)
			}
			compOut = r.empty
		}
		r.rec.end(s)
		if err != nil {
			return nil, err
		}
		r.n.Fallbacks++
	}

	s = r.rec.begin("core.frame", cs, pass, no, int64(len(idsComp)+len(compOut)+len(incomp)+len(indexBlob)))
	enc := r.enc[:0]
	enc = binary.LittleEndian.AppendUint32(enc, uint32(len(chunk)))
	if len(indexBlob) > 0 {
		enc = append(enc, 1)
	} else {
		enc = append(enc, 0)
	}
	if tid >= 0 {
		enc = append(enc, byte(tid))
	}
	if len(indexBlob) > 0 {
		enc = binary.LittleEndian.AppendUint32(enc, uint32(len(indexBlob)))
		enc = append(enc, indexBlob...)
	}
	enc = binary.LittleEndian.AppendUint32(enc, uint32(len(idsComp)))
	enc = append(enc, idsComp...)
	enc = append(enc, byte(mask))
	enc = binary.LittleEndian.AppendUint32(enc, uint32(len(compOut)))
	enc = append(enc, compOut...)
	enc = binary.LittleEndian.AppendUint32(enc, uint32(len(incomp)))
	enc = append(enc, incomp...)
	r.enc = enc
	r.rec.end(s)

	r.n.Chunks++
	r.n.HiRaw += int64(len(hi))
	r.n.HiComp += int64(len(idsComp))
	r.n.IndexBytes += int64(len(indexBlob))
	r.n.LoCompIn += int64(len(comp))
	r.n.LoCompOut += int64(len(compOut))
	r.n.Alpha2Sum += alpha2
	return enc, nil
}

// decompress replays core.Codec.Decompress over a core container.
func (r *replayer) decompress(container []byte, pass int) ([]byte, error) {
	pos, ver, total, err := coreHeader(container)
	if err != nil {
		return nil, err
	}
	root := r.rec.begin("replay.decompress", 0, pass, -1, int64(len(container)))
	s := r.rec.begin("core.frame_dec", root, pass, -1, 0)
	out := make([]byte, 0, min(total, 8<<20))
	r.rec.end(s)
	for no := 0; uint64(len(out)) < total; no++ {
		if pos+8 > len(container) {
			return nil, errReplay
		}
		clen := int(binary.LittleEndian.Uint32(container[pos:]))
		if clen > len(container)-pos-8 {
			return nil, errReplay
		}
		rec := container[pos+8 : pos+8+clen]
		cs := r.rec.begin("core.chunk.decode", root, pass, no, int64(clen))
		s = r.rec.begin("checksum.check", cs, pass, no, int64(clen))
		ok := checksum.Check(container[pos+4:], rec)
		r.rec.end(s)
		if !ok {
			return nil, fmt.Errorf("%w: chunk %d checksum", errReplay, no)
		}
		chunk, err := r.decompressChunk(rec, ver, cs, pass, no)
		if err != nil {
			return nil, err
		}
		s = r.rec.begin("core.frame_dec", cs, pass, no, int64(len(chunk)))
		out = append(out, chunk...)
		r.rec.end(s)
		r.rec.end(cs)
		pos += 8 + clen
	}
	r.rec.end(root)
	return out, nil
}

// decompressChunk mirrors core.decompressChunk for non-raw records; the
// chunk aliases the replayer's scratch.
func (r *replayer) decompressChunk(rec []byte, ver, cs, pass, no int) ([]byte, error) {
	lay := r.lay
	pos := 0
	field := func() ([]byte, error) {
		if pos+4 > len(rec) {
			return nil, errReplay
		}
		n := int(binary.LittleEndian.Uint32(rec[pos:]))
		pos += 4
		if n > len(rec)-pos {
			return nil, errReplay
		}
		pos += n
		return rec[pos-n : pos], nil
	}
	if len(rec) < 6 {
		return nil, errReplay
	}
	rawLen := int(binary.LittleEndian.Uint32(rec))
	n := rawLen / lay.ElemBytes
	flag := rec[4]
	pos = 5
	if flag > 1 {
		return nil, fmt.Errorf("%w: chunk %d is a degraded raw record", errReplay, no)
	}
	tid := precond.IDChain
	if ver >= 3 {
		tid = precond.TransformID(rec[pos])
		pos++
	}
	var idx *freq.Index
	if flag == 1 {
		blob, err := field()
		if err != nil {
			return nil, err
		}
		s := r.rec.begin("freq.unmarshal_index", cs, pass, no, int64(len(blob)))
		idx, err = freq.UnmarshalIndex(blob)
		r.rec.end(s)
		if err != nil {
			return nil, err
		}
	}
	idsIn, err := field()
	if err != nil {
		return nil, err
	}
	s := r.rec.begin("solver.decompress", cs, pass, no, int64(n*lay.HiBytes))
	ids, err := solver.DecompressTo(r.sv, grown(r.ids, n*lay.HiBytes), idsIn)
	r.rec.end(s)
	if err != nil {
		return nil, err
	}
	r.ids = ids
	r.n.SolverOut += int64(len(ids))
	hi := ids
	if len(ids) > 0 {
		s = r.rec.begin("bytesplit.decolumnize", cs, pass, no, int64(len(ids)))
		ids, err = bytesplit.AppendDecolumnize(r.col[:0], ids, lay.HiBytes)
		r.rec.end(s)
		if err != nil {
			return nil, err
		}
		r.col = ids
		if idx == nil {
			return nil, fmt.Errorf("%w: chunk %d has no index", errReplay, no)
		}
		s = r.rec.begin("freq.decode", cs, pass, no, int64(len(ids)))
		hi, err = idx.AppendDecode(r.hi[:0], ids)
		r.rec.end(s)
		if err != nil {
			return nil, err
		}
		r.hi = hi
	}
	if pos >= len(rec) {
		return nil, errReplay
	}
	mask := uint64(rec[pos])
	pos++
	compIn, err := field()
	if err != nil {
		return nil, err
	}
	nComp := bits.OnesCount64(mask & (1<<uint(lay.LoBytes()) - 1))
	s = r.rec.begin("solver.decompress", cs, pass, no, int64(nComp*n))
	comp, err := solver.DecompressTo(r.sv, grown(r.comp, nComp*n), compIn)
	r.rec.end(s)
	if err != nil {
		return nil, err
	}
	r.comp = comp
	r.n.SolverOut += int64(len(comp))
	incomp, err := field()
	if err != nil {
		return nil, err
	}
	s = r.rec.begin("isobar.unpartition", cs, pass, no, int64(n*lay.LoBytes()))
	lo, err := isobar.AppendUnpartition(r.lo[:0], comp, incomp, lay.LoBytes(), mask, n)
	r.rec.end(s)
	if err != nil {
		return nil, err
	}
	r.lo = lo
	s = r.rec.begin("bytesplit.merge", cs, pass, no, int64(rawLen))
	chunk, err := lay.AppendMerge(r.chunk[:0], hi, lo)
	r.rec.end(s)
	if err != nil {
		return nil, err
	}
	r.chunk = chunk
	if tid != precond.IDChain {
		t := r.tf[tid]
		if t == nil {
			if t, err = precond.New(tid); err != nil {
				return nil, err
			}
			r.tf[tid] = t
		}
		s = r.rec.begin("precond.inverse", cs, pass, no, int64(rawLen))
		r.tchunk, err = t.Inverse(r.tchunk[:0], chunk, lay.ElemBytes)
		r.rec.end(s)
		if err != nil {
			return nil, err
		}
		chunk = r.tchunk
	}
	return chunk, nil
}

// grown returns b emptied, with room for n bytes.
func grown(b []byte, n int) []byte {
	if cap(b) >= n {
		return b[:0]
	}
	return make([]byte, 0, n)
}
