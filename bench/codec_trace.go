package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"io"
	"math"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	"primacy/internal/chunker"
	"primacy/internal/core"
	"primacy/internal/model"
	"primacy/internal/pipeline"
	"primacy/internal/solver"
	"primacy/internal/stream"
	"primacy/internal/telemetry"
	"primacy/internal/trace"
)

// traceBudget is how long a traced codec run keeps adding passes beyond
// sizes.TracePasses.
const traceBudget = 9 * time.Second

// traceCodec is the traced run of a codec workload. Single-threaded and
// chunk by chunk, it times one core.Codec over the corpus (the baseline),
// replays the same chunks through the layers with spans, and measures the
// layers above core (pipeline, stream) and beside it (telemetry, the solver
// alone) on the same inputs. Every count is a ratio over whole passes of the
// same inputs, so it repeats exactly however many passes ran.
func traceCodec(w workload, sz sizes, seed int64, workers int, outDir string) (*runResult, error) {
	c, err := makeCorpus(w.Datasets, datasetN(w, sz), seed)
	if err != nil {
		return nil, err
	}
	res := &runResult{Counts: map[string]float64{"corpus_crc32c": float64(c.crc)}}
	rec := newRecorder()
	traced, err := newReplayer(w.Opts, rec)
	if err != nil {
		return nil, err
	}
	bare, err := newReplayer(w.Opts, nil)
	if err != nil {
		return nil, err
	}
	// A lane is one way of doing the same work: core itself, its replay with
	// spans, and its replay without.
	type lane struct {
		compress, decompress       func(i, pass int) ([]byte, error)
		w, r                       []float64 // seconds per pass
		mallocsW, mallocsR, allocd uint64    // in the last pass
	}
	var (
		codec core.Codec
		enc   = make([][]byte, len(c.data))
		raw   = float64(c.raw)
	)
	replayLane := func(r *replayer) *lane {
		return &lane{
			compress:   func(i, pass int) ([]byte, error) { return r.compress(c.data[i], enc[i], pass) },
			decompress: func(i, pass int) ([]byte, error) { return r.decompress(enc[i], pass) },
		}
	}
	coreLane := &lane{
		compress: func(i, _ int) (_ []byte, err error) {
			enc[i], err = codec.Compress(c.data[i], w.Opts)
			return enc[i], err
		},
		decompress: func(i, _ int) ([]byte, error) { return codec.Decompress(enc[i]) },
	}
	spanLane, bareLane := replayLane(traced), replayLane(bare)
	// timed runs f from a collected heap: the output buffer a call allocates
	// is a large part of the short decompress side, and whether it lands on
	// recycled or on fresh pages must not differ between core and its replay.
	// It returns the seconds f took and what it allocated.
	timed := func(f func() error) (secs float64, mallocs, bytes uint64, err error) {
		var m0, m1 runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&m0)
		t := time.Now()
		err = f()
		secs = time.Since(t).Seconds()
		runtime.ReadMemStats(&m1)
		return secs, m1.Mallocs - m0.Mallocs, m1.TotalAlloc - m0.TotalAlloc, err
	}
	// The lanes take turns dataset by dataset, so a slow spell of the shared
	// box falls on all of them alike, and core and its replay alternate at
	// going first. Fast workloads get more passes: their calls are short
	// enough for a stall to fill one.
	start := time.Now()
	for pass := 0; pass < sz.TracePasses || (pass < 3*sz.TracePasses && time.Since(start) < traceBudget); pass++ {
		lanes := []*lane{coreLane, spanLane}
		if pass < sz.SidePasses {
			lanes = append(lanes, bareLane)
		}
		for _, l := range lanes {
			// The last pass is the steady state: scratch is grown, pools are warm.
			l.w, l.r, l.mallocsW, l.mallocsR, l.allocd = append(l.w, 0), append(l.r, 0), 0, 0, 0
		}
		for _, decode := range []bool{false, true} {
			for i := range c.data {
				order := lanes
				// The replay needs core's container, so core leads the very first sweep.
				if (pass+i)%2 == 1 && (pass > 0 || decode) {
					order = append([]*lane{lanes[1], lanes[0]}, lanes[2:]...)
				}
				for _, l := range order {
					var out []byte
					secs, n, b, err := timed(func() (err error) {
						if decode {
							out, err = l.decompress(i, pass)
						} else {
							out, err = l.compress(i, pass)
						}
						return err
					})
					if err != nil {
						return nil, err
					}
					want := enc[i]
					if decode {
						want = c.data[i]
					}
					res.Attempted++
					if !bytes.Equal(out, want) {
						res.fail("pass %d, %s, decode %v: output differs from core's", pass, c.names[i], decode)
					}
					if decode {
						l.r[pass], l.mallocsR = l.r[pass]+secs, l.mallocsR+n
					} else {
						l.w[pass], l.mallocsW = l.w[pass]+secs, l.mallocsW+n
					}
					l.allocd += b
				}
			}
		}
	}
	coreW, coreR := coreLane.w, coreLane.r
	self := rec.selfTimes()
	passes := len(coreW)
	// perByte is the median over passes of a stage group's self time per byte.
	perByte := func(bytesPerPass float64, names ...string) float64 {
		if bytesPerPass == 0 {
			return 0
		}
		v := make([]float64, passes)
		for p := range v {
			for _, n := range names {
				v[p] += float64(self[n][p])
			}
			v[p] /= bytesPerPass
		}
		return median(v)
	}
	// closure is the replayed stages' self time over core's wall time, each
	// taken from its fastest pass: the two are timed at different moments,
	// and what differs between moments — a stall, an output buffer landing on
	// fresh pages — only ever adds time.
	closure := func(stages []string, wall []float64) float64 {
		best := math.Inf(1)
		for p := 0; p < passes; p++ {
			var sum float64
			for _, n := range stages {
				sum += float64(self[n][p])
			}
			best = math.Min(best, sum)
		}
		return best / (slices.Min(wall) * 1e9)
	}
	n := traced.n
	fp := float64(passes)
	solverIn := float64(n.SolverInHi+n.SolverInLo) / fp
	set := res.setExact

	set("bytesplit.split_ns_per_byte", perByte(raw, "bytesplit.split"))
	set("bytesplit.columnize_ns_per_byte", perByte(raw, "bytesplit.columnize"))
	set("bytesplit.merge_ns_per_byte", perByte(raw, "bytesplit.merge"))
	set("bytesplit.decolumnize_ns_per_byte", perByte(raw, "bytesplit.decolumnize"))
	set("freq.build_index_ns_per_byte", perByte(raw, "freq.build_index"))
	set("freq.encode_ns_per_byte", perByte(raw, "freq.encode"))
	set("freq.decode_ns_per_byte", perByte(raw, "freq.decode", "freq.unmarshal_index"))
	set("freq.unique_seqs_per_chunk", float64(n.UniqueSeqs)/float64(n.Chunks))
	set("freq.index_bytes_share", float64(n.IndexBytes)/float64(n.ContainerBytes))
	set("isobar.analyze_ns_per_byte", perByte(raw, "isobar.analyze"))
	set("isobar.partition_ns_per_byte", perByte(raw, "isobar.partition"))
	set("isobar.unpartition_ns_per_byte", perByte(raw, "isobar.unpartition"))
	set("isobar.alpha2", n.Alpha2Sum/float64(n.Chunks))
	set("isobar.fallback_share", float64(n.Fallbacks)/float64(n.Chunks))
	set("solver.hi_compress_ns_per_byte", perByte(float64(n.SolverInHi)/fp, "solver.hi_compress"))
	set("solver.lo_compress_ns_per_byte", perByte(float64(n.SolverInLo)/fp, "solver.lo_compress"))
	set("solver.input_share", solverIn/raw)
	set("solver.decompress_ns_per_byte", perByte(float64(n.SolverOut)/fp, "solver.decompress"))
	set("solver.self_time_share", perByte(1, "solver.hi_compress", "solver.lo_compress")/perByte(1, compressStages...))
	set("solver.sigma_ho", float64(n.HiComp+n.IndexBytes)/float64(n.HiRaw))
	sigmaLo := 0.0
	if n.LoCompIn > 0 {
		sigmaLo = float64(n.LoCompOut) / float64(n.LoCompIn)
	}
	set("solver.sigma_lo", sigmaLo)
	if w.Opts.Precond.Selection != 0 {
		set("precond.pick_ns_per_byte", perByte(raw, "precond.pick"))
		set("precond.forward_ns_per_byte", perByte(raw, "precond.forward"))
		set("precond.inverse_ns_per_byte", perByte(raw, "precond.inverse"))
		set("precond.predict_xor_share", float64(n.XorChunks)/float64(n.Chunks))
	}
	set("checksum.crc_ns_per_byte", perByte(2*raw, "checksum.crc", "checksum.check"))
	set("core.compress_ns_per_byte", median(coreW)*1e9/raw)
	set("core.decompress_ns_per_byte", median(coreR)*1e9/raw)
	set("core.frame_ns_per_byte", perByte(raw, "core.frame"))
	cw, cr := closure(compressStages, coreW), closure(decompressStages, coreR)
	set("core.replay_closure", cw)
	set("core.replay_closure_decompress", cr)
	set("core.unattributed_share", math.Max(0, math.Max(1-cw, 1-cr)))
	set("core.compress_allocs_per_mb", float64(coreLane.mallocsW)/(raw/1e6))
	set("core.decompress_allocs_per_mb", float64(coreLane.mallocsR)/(raw/1e6))
	set("core.alloc_bytes_per_mb", float64(coreLane.allocd)/(raw/1e6))
	set("bench.span_overhead_share", (median(spanLane.w[:len(bareLane.w)])+median(spanLane.r[:len(bareLane.r)]))/(median(bareLane.w)+median(bareLane.r))-1)

	// Section III compute side, from the replayed stage rates (Eqs. 7-10).
	precSecs := perByte(1, "bytesplit.split", "freq.build_index", "freq.encode", "bytesplit.columnize",
		"isobar.analyze", "isobar.partition", "isobar.fallback", "precond.pick", "precond.forward") / 1e9
	solverSecs := perByte(1, "solver.hi_compress", "solver.lo_compress") / 1e9
	alpha1 := float64(n.HiRaw) / float64(n.RawBytes)
	chunkBytes := float64(n.RawBytes) / float64(n.Chunks)
	b, err := model.Params{
		ChunkBytes: chunkBytes, MetaBytes: float64(n.IndexBytes) / float64(n.Chunks),
		Alpha1: alpha1, Alpha2: float64(n.LoCompIn) / float64(n.RawBytes-n.HiRaw),
		SigmaHo: float64(n.HiComp+n.IndexBytes) / float64(n.HiRaw), SigmaLo: sigmaLo,
		Rho: envRho, Theta: envThetaMB * 1e6, MuWrite: envMuWrite * 1e6,
		TPrec: raw / precSecs * (2 - alpha1), TComp: solverIn / solverSecs,
	}.WritePRIMACY()
	if err != nil {
		return nil, err
	}
	predicted := chunkBytes / (b.TPrec1 + b.TPrec2 + b.TCompress1 + b.TCompress2)
	observed := raw / median(coreW)
	set("model.write_residual", math.Abs(predicted-observed)/observed)

	if err := traceSides(w, sz, c, workers, res, median(coreW)); err != nil {
		return nil, err
	}
	res.Counts["ratio"] = float64(n.RawBytes) / float64(n.ContainerBytes)
	for _, name := range []string{"freq.unique_seqs_per_chunk", "isobar.alpha2", "isobar.fallback_share", "pipeline.shards"} {
		res.Counts[name] = res.Metrics[name].Value
	}
	if err := rec.writeJSONL(filepath.Join(outDir, w.Name+".trace.jsonl")); err != nil {
		return nil, err
	}
	return res, nil
}

// traceSides measures the layers around core on the traced run's inputs:
// the parallel pipeline at one worker and at W, the stream container in
// 64 KiB pieces, the solver alone on raw chunks, and the cost of the
// program's own telemetry and tracing.
func traceSides(w workload, sz sizes, c *corpus, workers int, res *runResult, coreWSecs float64) error {
	ctx := context.Background()
	raw := float64(c.raw)
	set := res.setExact

	pipePass := func(nw int) (wSecs, rSecs float64, shards int, err error) {
		po := pipeline.Options{Core: w.Opts, Workers: nw}
		enc := make([][]byte, len(c.data))
		t0 := time.Now()
		for i, d := range c.data {
			if enc[i], err = pipeline.CompressCtx(ctx, d, po); err != nil {
				return
			}
		}
		wSecs = time.Since(t0).Seconds()
		out := make([][]byte, len(enc))
		t0 = time.Now()
		for i, e := range enc {
			if out[i], err = pipeline.DecompressCtx(ctx, e, po); err != nil {
				return
			}
		}
		rSecs = time.Since(t0).Seconds()
		for i := range out {
			res.Attempted++
			if !bytes.Equal(out[i], c.data[i]) {
				res.fail("pipeline workers=%d: %s did not round-trip", nw, c.names[i])
			}
			shards += int(binary.LittleEndian.Uint32(enc[i][4:]))
		}
		return
	}
	var w1, r1, wN, rN []float64
	shards := 0
	for p := 0; p < sz.SidePasses; p++ {
		ws, rs, s, err := pipePass(1)
		if err != nil {
			return err
		}
		w1, r1, shards = append(w1, ws), append(r1, rs), s
		if workers > 1 {
			if ws, rs, _, err = pipePass(workers); err != nil {
				return err
			}
			wN, rN = append(wN, ws), append(rN, rs)
		}
	}
	if workers > 1 {
		set("pipeline.compress_speedup", median(w1)/median(wN))
		set("pipeline.decompress_speedup", median(r1)/median(rN))
	} else {
		res.Notes = append(res.Notes, "pipeline.*_speedup omitted: one worker")
	}
	set("pipeline.overhead_share", median(w1)/coreWSecs-1)
	set("pipeline.shards", float64(shards))

	var sw, sr []float64
	piece := make([]byte, 64<<10)
	for p := 0; p < sz.SidePasses; p++ {
		var wSecs, rSecs float64
		for i, d := range c.data {
			var buf bytes.Buffer
			t0 := time.Now()
			wr, err := stream.NewWriter(&buf, w.Opts)
			if err != nil {
				return err
			}
			for off := 0; off < len(d); off += len(piece) {
				if _, err := wr.Write(d[off:min(off+len(piece), len(d))]); err != nil {
					return err
				}
			}
			if err := wr.Close(); err != nil {
				return err
			}
			wSecs += time.Since(t0).Seconds()
			out := make([]byte, 0, len(d))
			t0 = time.Now()
			rd := stream.NewReader(&buf)
			for {
				n, err := rd.Read(piece)
				out = append(out, piece[:n]...)
				if err == io.EOF {
					break
				}
				if err != nil {
					return err
				}
			}
			rSecs += time.Since(t0).Seconds()
			res.Attempted++
			if !bytes.Equal(out, d) {
				res.fail("stream: %s did not round-trip", c.names[i])
			}
		}
		sw, sr = append(sw, wSecs), append(sr, rSecs)
	}
	set("stream.write_ns_per_byte", median(sw)*1e9/raw)
	set("stream.read_ns_per_byte", median(sr)*1e9/raw)

	name := w.Opts.Solver
	if name == "" {
		name = "zlib"
	}
	sv, err := solver.Get(name)
	if err != nil {
		return err
	}
	var (
		vanSecs  float64
		vanBytes int
		dst      []byte
	)
	for _, d := range c.data {
		plan, err := chunker.NewPlan(len(d), w.Opts.ChunkBytes, 8)
		if err != nil {
			return err
		}
		chunks, err := plan.Split(d)
		if err != nil {
			return err
		}
		for _, ch := range chunks {
			t0 := time.Now()
			dst, err = solver.CompressTo(sv, dst[:0], ch)
			vanSecs += time.Since(t0).Seconds()
			if err != nil {
				return err
			}
			vanBytes += len(dst)
		}
	}
	set("solver.vanilla_ratio", raw/float64(vanBytes))
	set("solver.vanilla_compress_ns_per_byte", vanSecs*1e9/raw)
	res.Counts["solver.vanilla_ratio"] = raw / float64(vanBytes)

	// Telemetry and tracing on against off, interleaved, on one chunk.
	chunk := c.data[0][:min(len(c.data[0]), 3<<20)]
	var codec core.Codec
	timed := func(on bool) (float64, error) {
		if on {
			core.EnableTelemetry(telemetry.NewRegistry())
			core.EnableTracing(trace.New(trace.Config{}))
			defer core.EnableTelemetry(nil)
			defer core.EnableTracing(nil)
		}
		t0 := time.Now()
		_, err := codec.Compress(chunk, w.Opts)
		return time.Since(t0).Seconds(), err
	}
	if _, err := timed(false); err != nil {
		return err
	}
	var overhead []float64
	for p := 0; p < sz.TracePairs; p++ {
		onFirst := p%2 == 0
		a, err := timed(onFirst)
		if err != nil {
			return err
		}
		b, err := timed(!onFirst)
		if err != nil {
			return err
		}
		if !onFirst {
			a, b = b, a
		}
		overhead = append(overhead, a/b-1)
	}
	res.set("trace.enabled_overhead_share", summarise(overhead, "share"))
	return nil
}
