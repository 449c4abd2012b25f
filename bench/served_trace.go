package main

import (
	"bytes"
	"context"
	"io/fs"
	"path/filepath"
	"strings"
	"sync/atomic"
	"time"

	"primacy/internal/archive"
	"primacy/internal/bytesplit"
	"primacy/internal/core"
	"primacy/internal/durable"
	"primacy/internal/fairshare"
	"primacy/internal/pipeline"
)

// traceServed is the traced run of served_mix: the same load with a client
// side span around every request and the server's own metrics registry on
// (for the queue-wait split it already exports), then each layer under the
// server driven directly — the admitter, the durable store through a
// counting filesystem, the archive writer and reader.
func traceServed(w workload, sz sizes, seed int64, seconds float64, workers int, outDir string) (*runResult, error) {
	env, err := servedSetup(sz, seed, outDir, true)
	if err != nil {
		return nil, err
	}
	defer env.close()
	clients, _ := servedLoad(env, sz, seed, seconds, workers, w.Limits, true)
	t := foldClients(clients)
	snap := env.reg.Snapshot()
	env.stop()
	disk, err := dirBytes(env.dir)
	if err != nil {
		return nil, err
	}
	res := &runResult{Attempted: t.attempted, Failed: t.failed, Notes: t.notes, Counts: map[string]float64{}}
	set := res.setExact

	res.set("server.put_p50_ms", summariseOver(t.lat[classPut], t.blockP50[classPut], "ms"))
	res.set("server.get_p50_ms", summariseOver(t.lat[classGet], t.blockP50[classGet], "ms"))
	set("server.disk_bytes_per_raw_byte", float64(disk)/float64(t.putRaw))
	res.set("server.compress_hit_p50_ms", summariseOver(t.lat[classHot], t.blockP50[classHot], "ms"))
	set("server.cache_hit_share", float64(t.cacheHits)/float64(t.attempted))
	for _, cl := range []class{classNew, classDec, classPut, classGet} {
		if v, _, ok := tail(t.lat[cl]); ok {
			set("server."+classNames[cl]+"_tail_ms", v)
		}
	}
	set("server.non200", float64(t.non200))
	set("fairshare.shed_share", float64(t.shed)/float64(t.attempted))
	var wait, total float64
	for _, h := range snap.LabeledHistograms {
		switch h.Name {
		case "primacyd_queue_wait_seconds":
			wait += h.Sum
		case "primacyd_route_request_seconds":
			total += h.Sum
		}
	}
	set("server.queue_wait_share", wait/total)
	set("archive.encoded_bytes_per_returned_byte", float64(t.getRaw)/float64(t.getBack))

	// What a compress request costs without the server around it: the same
	// kind of payload straight through the pipeline the handler calls.
	var direct []float64
	var buf []byte
	for k := 0; k < blockNew; k++ {
		buf = env.pay.stamped(buf, k, tagOf(classNew, workers, 0, k))
		t0 := time.Now()
		if _, err := pipeline.CompressCtx(context.Background(), buf, pipeline.Options{}); err != nil {
			return nil, err
		}
		direct = append(direct, float64(time.Since(t0))/1e6)
	}
	set("server.http_overhead_ms_p50", median(t.lat[classNew])-median(direct))

	adm := fairshare.New(fairshare.Config{})
	const admits = 100_000
	var perOp []float64
	for rep := 0; rep < 5; rep++ {
		t0 := time.Now()
		for i := 0; i < admits; i++ {
			if _, err := adm.AcquireMeasured(context.Background(), "bench", int64(len(buf))); err != nil {
				return nil, err
			}
			adm.Release(int64(len(buf)))
		}
		perOp = append(perOp, float64(time.Since(t0))/admits)
	}
	res.set("fairshare.acquire_release_ns", summarise(perOp, "ns"))

	if err := traceDurable(env.pay, sz, outDir, res); err != nil {
		return nil, err
	}
	if err := traceArchive(env.pay, res); err != nil {
		return nil, err
	}

	res.Counts["cache_hit_share"] = res.Metrics["server.cache_hit_share"].Value
	res.Counts["archive.encoded_bytes_per_returned_byte"] = res.Metrics["archive.encoded_bytes_per_returned_byte"].Value
	rec := newRecorder()
	for _, c := range clients {
		rec.merge(c.rec)
	}
	if err := rec.writeJSONL(filepath.Join(outDir, w.Name+".trace.jsonl")); err != nil {
		return nil, err
	}
	return res, nil
}

// countingFS wraps the real filesystem under a durable store and counts what
// the store asks of it.
type countingFS struct {
	durable.OSFS
	syncs, journalSyncNs atomic.Int64
	written, journaled   atomic.Int64
	seals                atomic.Int64
}

type countingFile struct {
	durable.File
	fs      *countingFS
	journal bool
}

func (f *countingFS) OpenFile(name string, flag int, perm fs.FileMode) (durable.File, error) {
	file, err := f.OSFS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &countingFile{File: file, fs: f, journal: filepath.Base(name) == "journal.wal"}, nil
}

func (f *countingFS) SyncDir(name string) error {
	f.syncs.Add(1)
	return f.OSFS.SyncDir(name)
}

func (f *countingFS) Rename(oldpath, newpath string) error {
	if strings.HasSuffix(newpath, ".par") {
		f.seals.Add(1)
	}
	return f.OSFS.Rename(oldpath, newpath)
}

func (f *countingFile) Write(p []byte) (int, error) {
	n, err := f.File.Write(p)
	f.fs.written.Add(int64(n))
	if f.journal {
		f.fs.journaled.Add(int64(n))
	}
	return n, err
}

func (f *countingFile) Sync() error {
	t0 := time.Now()
	err := f.File.Sync()
	f.fs.syncs.Add(1)
	if f.journal {
		f.fs.journalSyncNs.Add(int64(time.Since(t0)))
	}
	return err
}

// traceDurable drives Store.Put directly: once as the server configures it
// (fsync on, compaction every sixteen puts) through the counting filesystem,
// once without fsync, and once with compaction called by hand to time it.
func traceDurable(pay *payloads, sz sizes, outDir string, res *runResult) error {
	raw := int64(len(pay.base[0]))
	puts := func(opts durable.Options, compact bool) (putMs, compactMs []float64, err error) {
		dir, err := makeTempDir(outDir, "durable-")
		if err != nil {
			return nil, nil, err
		}
		defer removeTempDir(dir)
		store, _, err := durable.Open(dir, opts)
		if err != nil {
			return nil, nil, err
		}
		defer store.Close()
		var buf []byte
		for i := 0; i < sz.DirectPuts; i++ {
			tenant := "t" + string(rune('a'+i/tenantPuts%26))
			buf = pay.stamped(buf, i, tagOf(classPut, 0, 1<<20, i))
			values, err := bytesplit.BytesToFloat64s(buf)
			if err != nil {
				return nil, nil, err
			}
			t0 := time.Now()
			err = store.Put(context.Background(), tenant, "v", i, values, 0)
			putMs = append(putMs, float64(time.Since(t0))/1e6)
			if err != nil {
				return nil, nil, err
			}
			if compact && (i+1)%tenantPuts == 0 {
				t0 = time.Now()
				if err := store.Compact(tenant); err != nil {
					return nil, nil, err
				}
				compactMs = append(compactMs, float64(time.Since(t0))/1e6)
			}
		}
		return putMs, compactMs, store.Close()
	}
	cfs := &countingFS{}
	synced, _, err := puts(durable.Options{FS: cfs, CompactEvery: compactEvery}, false)
	if err != nil {
		return err
	}
	unsynced, _, err := puts(durable.Options{NoFsync: true, CompactEvery: compactEvery}, false)
	if err != nil {
		return err
	}
	_, compactMs, err := puts(durable.Options{CompactEvery: -1}, true)
	if err != nil {
		return err
	}
	var putNs float64
	for _, ms := range synced {
		putNs += ms * 1e6
	}
	n := float64(len(synced))
	set := res.setExact
	res.set("durable.put_ms_p50", summarise(synced, "ms"))
	res.set("durable.put_nofsync_ms_p50", summarise(unsynced, "ms"))
	set("durable.fsync_share", float64(cfs.journalSyncNs.Load())/putNs)
	set("durable.fsyncs_per_put", float64(cfs.syncs.Load())/n)
	set("durable.write_bytes_per_raw_byte", float64(cfs.written.Load())/(n*float64(raw)))
	set("durable.journal_bytes_per_raw_byte", float64(cfs.journaled.Load())/(n*float64(raw)))
	set("durable.compactions", float64(cfs.seals.Load()))
	if len(compactMs) > 0 {
		res.set("durable.compact_ms_p50", summarise(compactMs, "ms"))
	}
	for _, name := range []string{"durable.fsyncs_per_put", "durable.write_bytes_per_raw_byte", "durable.journal_bytes_per_raw_byte", "durable.compactions"} {
		res.Counts[name] = res.Metrics[name].Value
	}
	return nil
}

// traceArchive times what every get-after-put pays: encoding a tenant
// snapshot into an archive container, then opening it and reading one entry.
func traceArchive(pay *payloads, res *runResult) error {
	const entries = tenantPuts / 2 // the mean archive a get meets
	var (
		values   [][]float64
		rawBytes int
		buf      []byte
	)
	for i := 0; i < entries; i++ {
		buf = pay.stamped(buf, i, tagOf(classPut, 0, 1<<21, i))
		v, err := bytesplit.BytesToFloat64s(buf)
		if err != nil {
			return err
		}
		values = append(values, v)
		rawBytes += len(buf)
	}
	var build, get []float64
	for rep := 0; rep < 5; rep++ {
		var blob bytes.Buffer
		t0 := time.Now()
		w, err := archive.NewWriter(&blob, core.Options{})
		if err != nil {
			return err
		}
		for i, v := range values {
			if err := w.PutFloat64s("v", i, v); err != nil {
				return err
			}
		}
		if err := w.Close(); err != nil {
			return err
		}
		build = append(build, float64(time.Since(t0))/float64(rawBytes))
		t0 = time.Now()
		r, err := archive.NewReader(bytes.NewReader(blob.Bytes()), int64(blob.Len()))
		if err != nil {
			return err
		}
		got, err := r.GetFloat64s("v", rep%entries)
		if err != nil {
			return err
		}
		get = append(get, float64(time.Since(t0))/float64(8*len(got)))
		res.Attempted++
		if !bytes.Equal(bytesplit.Float64sToBytes(got), bytesplit.Float64sToBytes(values[rep%entries])) {
			res.fail("archive: entry %d did not round-trip", rep%entries)
		}
	}
	res.set("archive.build_ns_per_byte", summarise(build, "ns/B"))
	res.set("archive.get_ns_per_byte", summarise(get, "ns/B"))
	return nil
}
