package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"io/fs"
	"math/rand"
	"net"
	"net/http"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"primacy/internal/pipeline"
	"primacy/internal/server"
	"primacy/internal/telemetry"
)

// served_mix drives an in-process primacyd behind a real loopback listener
// with W closed-loop clients: primacyd's callers are bulk-synchronous writers
// that wait for the receipt before sending more, so a slow server receives
// less load, not a growing queue. Each client owns one keep-alive connection
// and its own tenants, so every per-tenant quantity — the archive a get
// re-encodes, the cache outcome of each request, the bytes on disk — is a
// function of the schedule, not of how the clients interleave.

type class int

const (
	classNew class = iota // compress of a never-seen payload
	classHot              // compress of a pre-warmed payload
	classDec              // decompress of a corpus container
	classPut
	classGet
	numClasses
)

var classNames = [numClasses]string{"compress", "hot", "decompress", "put", "get"}

// blockSchedule returns the class of each request of one client's block:
// exactly the fixed mix, the puts and gets in putGetPattern order, and the
// seed deciding only how the classes interleave.
func blockSchedule(seed int64, client, block int) []class {
	rng := rand.New(rand.NewSource(seed*1_000_003 + int64(client)*10_007 + int64(block)))
	const slot = numClasses // a put-or-get slot, filled from putGetPattern below
	sched := make([]class, 0, blockRequests)
	for _, g := range []struct {
		cl class
		n  int
	}{{classNew, blockNew}, {classHot, blockHot}, {classDec, blockDecomp}, {slot, blockPut + blockGet}} {
		for i := 0; i < g.n; i++ {
			sched = append(sched, g.cl)
		}
	}
	rng.Shuffle(len(sched), func(i, j int) { sched[i], sched[j] = sched[j], sched[i] })
	k := 0
	for i, cl := range sched {
		if cl == slot {
			sched[i] = classPut
			if putGetPattern[k] == 'G' {
				sched[i] = classGet
			}
			k++
		}
	}
	return sched
}

// payloads makes the bodies of served_mix. Every body is one of a few base
// payloads with a tag written over its first element, which makes it new to
// the server's content-addressed cache; the same tag always gives the same
// bytes, so a response can be checked without keeping what was sent.
type payloads struct {
	base [][]byte
	crc  uint32
}

func makePayloads(vals int, seed int64) (*payloads, error) {
	c, err := makeCorpus(servedSets, vals, seed)
	if err != nil {
		return nil, err
	}
	return &payloads{base: c.data, crc: c.crc}, nil
}

func tagOf(cl class, client, block, k int) uint64 {
	return 1<<63 | uint64(cl)<<56 | uint64(client)<<48 | uint64(block)<<16 | uint64(k)
}

// stamped writes base payload k with tag into dst.
func (p *payloads) stamped(dst []byte, k int, tag uint64) []byte {
	dst = append(dst[:0], p.base[k%len(p.base)]...)
	binary.BigEndian.PutUint64(dst, tag)
	return dst
}

// servedEnv is one started server with its inputs.
type servedEnv struct {
	dir    string
	srv    *server.Server
	hs     *http.Server
	served chan struct{}
	url    string
	pay    *payloads
	corpus [][]byte // decompress containers; container i holds stamped(i, tagOf(classDec, 0, 0, i))
	reg    *telemetry.Registry
}

// servedSetup generates the payloads, builds the decompress corpus, starts
// the server on a fresh data dir and warms the hot payloads into its cache.
func servedSetup(sz sizes, seed int64, outDir string, metrics bool) (env *servedEnv, err error) {
	env = &servedEnv{served: make(chan struct{})}
	defer func() {
		if err != nil {
			env.close()
		}
	}()
	if env.pay, err = makePayloads(sz.PayloadVals, seed); err != nil {
		return nil, err
	}
	var buf []byte
	for i := 0; i < sz.Corpus; i++ {
		buf = env.pay.stamped(buf, i, tagOf(classDec, 0, 0, i))
		enc, err := pipeline.CompressCtx(context.Background(), buf, pipeline.Options{})
		if err != nil {
			return nil, err
		}
		env.corpus = append(env.corpus, enc)
	}
	if env.dir, err = makeTempDir(outDir, "data-"); err != nil {
		return nil, err
	}
	cfg := server.Config{DataDir: env.dir, CompactEvery: compactEvery}
	if metrics {
		env.reg = telemetry.NewRegistry()
		cfg.Metrics = env.reg
	}
	if env.srv, err = server.New(cfg); err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	env.url = "http://" + ln.Addr().String()
	env.hs = &http.Server{Handler: env.srv.Handler()}
	go func() {
		defer close(env.served)
		env.hs.Serve(ln) // returns ErrServerClosed from close()
	}()
	for i, hot := range env.pay.base {
		resp, err := http.Post(env.url+"/v1/compress", "application/octet-stream", bytes.NewReader(hot))
		if err != nil {
			return nil, err
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return nil, fmt.Errorf("warming hot payload %d: %s", i, resp.Status)
		}
	}
	http.DefaultClient.CloseIdleConnections()
	return env, nil
}

// stop shuts the listener down, waits for the serving goroutine and for the
// store's background compactions, and leaves the data dir in place.
func (e *servedEnv) stop() {
	if e.hs != nil {
		e.hs.Close()
		<-e.served
		e.hs = nil
	}
	if e.srv != nil {
		e.srv.Close()
		e.srv = nil
	}
}

// close stops the server and removes its data dir.
func (e *servedEnv) close() {
	e.stop()
	if e.dir != "" {
		removeTempDir(e.dir)
	}
}

func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err == nil {
			n += info.Size()
		}
		return err
	})
	return n, err
}

// blockStats is what one client measured over one block.
type blockStats struct {
	secs   float64
	bytes  int64 // verified payload bytes
	over   int   // requests over their class's limit, failed or refused
	lat    [numClasses][]float64
	kind   [numClasses][]int // base payload of each request, parallel to lat
	cBytes int64             // bytes compressed and container bytes returned, class new
	cEnc   int64
	dBytes int64 // bytes the decompressions returned
}

type client struct {
	id   int
	of   int // number of clients
	env  *servedEnv
	hc   *http.Client
	rec  *recorder
	body []byte
	resp bytes.Buffer

	puts, decs  int // puts and decompressions issued so far
	lastPutTag  uint64
	lastPutBase int

	blocks            []blockStats
	attempted, failed int
	non200, shed      int
	cacheHits         int
	putRaw, getRaw    int64 // raw bytes put; raw bytes the gets made the server re-encode
	getBack           int64 // bytes the gets returned
	notes             []string
}

func (c *client) tenant() string {
	// The tenant of the latest put: it rotates every tenantPuts puts.
	return fmt.Sprintf("c%d-t%d", c.id, (c.puts-1)/tenantPuts)
}

func (c *client) fail(format string, a ...any) {
	c.failed++
	if len(c.notes) < 4 {
		c.notes = append(c.notes, fmt.Sprintf(format, a...))
	}
}

// do issues one request, times it from send to last response byte, and
// verifies the response after the clock has stopped. st is nil for requests
// that keep the load up but are not counted.
func (c *client) do(cl class, block, k int, limits map[string]float64, st *blockStats) {
	var (
		method = http.MethodPost
		url    string
		body   []byte
		tenant = fmt.Sprintf("c%d", c.id)
		kind   = k // index of the base payload, modulo their number
	)
	switch cl {
	case classNew:
		c.body = c.env.pay.stamped(c.body, k, tagOf(cl, c.id, block, k))
		url, body = "/v1/compress", c.body
	case classHot:
		url, body = "/v1/compress", c.env.pay.base[k%len(c.env.pay.base)]
	case classDec:
		i := (c.id*len(c.env.corpus)/c.of + c.decs) % len(c.env.corpus)
		c.decs++
		kind = i
		url, body = "/v1/decompress", c.env.corpus[i]
		c.body = c.env.pay.stamped(c.body, i, tagOf(classDec, 0, 0, i)) // the expected output
	case classPut:
		c.lastPutTag, c.lastPutBase = tagOf(cl, c.id, block, k), k
		c.body = c.env.pay.stamped(c.body, k, c.lastPutTag)
		c.puts++
		tenant = c.tenant()
		url, body = fmt.Sprintf("/v1/archive/put?name=v&step=%d", c.puts), c.body
	case classGet:
		method, tenant, kind = http.MethodGet, c.tenant(), c.lastPutBase
		url = fmt.Sprintf("/v1/archive/get?name=v&step=%d", c.puts)
		c.body = c.env.pay.stamped(c.body, c.lastPutBase, c.lastPutTag) // the expected output
	}
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.env.url+url, rd)
	if err != nil {
		c.fail("%s: %v", classNames[cl], err)
		return
	}
	req.Header.Set(server.HeaderTenant, tenant)

	sp := c.rec.begin("server."+classNames[cl], 0, block, k, int64(len(body)))
	t0 := time.Now()
	resp, err := c.hc.Do(req)
	if err == nil {
		c.resp.Reset()
		_, err = c.resp.ReadFrom(resp.Body)
		resp.Body.Close()
	}
	secs := time.Since(t0).Seconds()
	c.rec.end(sp)

	counted := st != nil
	ms := secs * 1e3
	if counted {
		c.attempted++
		st.lat[cl] = append(st.lat[cl], ms)
		st.kind[cl] = append(st.kind[cl], kind%len(c.env.pay.base))
	}
	if err == nil && resp.StatusCode == http.StatusOK && cl == classPut {
		c.putRaw += int64(len(body))
	}
	if !counted {
		return
	}
	if err != nil {
		st.over++
		c.fail("%s: %v", classNames[cl], err)
		return
	}
	if resp.StatusCode != http.StatusOK {
		c.non200++
		st.over++
		if resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode == http.StatusServiceUnavailable {
			c.shed++
		}
		c.fail("%s: %s", classNames[cl], resp.Status)
		return
	}
	if ms > limits[classNames[cl]] {
		st.over++
	}
	if resp.Header.Get(server.HeaderCache) == "hit" {
		c.cacheHits++
	}
	got := c.resp.Bytes()
	var want []byte
	switch cl {
	case classNew, classHot:
		want = body
		if got, err = pipeline.Decompress(got, pipeline.Options{}); err != nil {
			c.fail("%s: response does not decompress: %v", classNames[cl], err)
			return
		}
		if cl == classNew {
			st.cBytes += int64(len(body))
			st.cEnc += int64(c.resp.Len())
		}
	case classDec:
		want = c.body
		st.dBytes += int64(len(got))
	case classPut:
		st.bytes += int64(len(body))
		return
	case classGet:
		want = c.body
		// What the get made the server encode: the tenant's whole archive.
		c.getRaw += int64((c.puts-1)%tenantPuts+1) * int64(len(want))
		c.getBack += int64(len(got))
	}
	if !bytes.Equal(got, want) {
		c.fail("%s: response differs from the expected bytes", classNames[cl])
		return
	}
	st.bytes += int64(len(want))
}

// run executes blocks until the time is up and minBlocks are done, then keeps
// uncounted load on the server until every client has finished its last
// counted block, and finally fills its current tenant so that every tenant
// ends full and compacted.
func (c *client) run(seed int64, deadline time.Time, minBlocks int, limits map[string]float64, running *atomic.Int32, atMinBlocks func()) {
	counted := true
	for block := 0; ; block++ {
		var st *blockStats
		if counted {
			c.blocks = append(c.blocks, blockStats{})
			st = &c.blocks[len(c.blocks)-1]
		}
		var idx [numClasses]int
		t0 := time.Now()
		for _, cl := range blockSchedule(seed, c.id, block) {
			if !counted && running.Load() == 0 {
				for k := 0; c.puts%tenantPuts != 0; k++ {
					c.do(classPut, block, blockRequests+k, limits, nil)
				}
				return
			}
			c.do(cl, block, idx[cl], limits, st)
			idx[cl]++
		}
		if counted {
			st.secs = time.Since(t0).Seconds()
			if block+1 == minBlocks {
				atMinBlocks()
			}
			if block+1 >= minBlocks && !time.Now().Before(deadline) {
				counted = false
				running.Add(-1)
			}
		}
	}
}

// servedLoad runs the clients against env and returns them, with the
// process's peak resident set at the moment the last client finished its
// minimum of blocks: the server keeps every tenant in memory, so the peak at
// the end of a run grows with the number of blocks the run had time for,
// while the peak after a fixed amount of work does not.
func servedLoad(env *servedEnv, sz sizes, seed int64, seconds float64, workers int, limits map[string]float64, traced bool) (clients []*client, rssMB float64) {
	clients = make([]*client, workers)
	var running, atMin atomic.Int32
	running.Store(int32(workers))
	atMinBlocks := func() {
		if int(atMin.Add(1)) == workers {
			rssMB = peakRSSMB() // read after wg.Wait
		}
	}
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	var wg sync.WaitGroup
	for i := range clients {
		c := &client{id: i, of: workers, env: env, hc: &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: 1, DisableCompression: true,
		}}}
		if traced {
			c.rec = newRecorder()
		}
		clients[i] = c
		wg.Add(1)
		go func() {
			defer wg.Done()
			c.run(seed, deadline, sz.MinBlocks, limits, &running, atMinBlocks)
			c.hc.CloseIdleConnections()
		}()
	}
	wg.Wait()
	return clients, rssMB
}

// servedTotals folds the clients' measurements into the served_mix metrics
// shared by the untraced and the traced run.
type servedTotals struct {
	lat       [numClasses][]float64 // every counted request
	blockP50  [numClasses][]float64 // per-block medians
	blockTyp  [numClasses][]float64 // per-block typical latencies, see typical
	goodput   []float64             // per-block MB/s, scaled to all clients
	within    []float64             // per-block share of requests within their limit
	cMBps     []float64
	dMBps     []float64
	ratio     float64
	attempted int
	failed    int
	non200    int
	shed      int
	cacheHits int
	putRaw    int64
	getRaw    int64
	getBack   int64
	notes     []string
}

func foldClients(clients []*client) servedTotals {
	var t servedTotals
	var cBytes, cEnc int64
	for _, c := range clients {
		for _, b := range c.blocks {
			for cl := range b.lat {
				t.lat[cl] = append(t.lat[cl], b.lat[cl]...)
				t.blockP50[cl] = append(t.blockP50[cl], median(b.lat[cl]))
				t.blockTyp[cl] = append(t.blockTyp[cl], typical(b.lat[cl], b.kind[cl]))
			}
			t.goodput = append(t.goodput, float64(len(clients))*float64(b.bytes)/1e6/b.secs)
			t.within = append(t.within, 1-float64(b.over)/blockRequests)
			// MB per second inside a typical request of the block: the mean
			// body over the typical latency, which a single stalled request
			// does not move.
			t.cMBps = append(t.cMBps, float64(b.cBytes)/float64(len(b.lat[classNew]))/1e3/typical(b.lat[classNew], b.kind[classNew]))
			t.dMBps = append(t.dMBps, float64(b.dBytes)/float64(len(b.lat[classDec]))/1e3/typical(b.lat[classDec], b.kind[classDec]))
			cBytes += b.cBytes
			cEnc += b.cEnc
		}
		t.attempted += c.attempted
		t.failed += c.failed
		t.non200 += c.non200
		t.shed += c.shed
		t.cacheHits += c.cacheHits
		t.putRaw += c.putRaw
		t.getRaw += c.getRaw
		t.getBack += c.getBack
		t.notes = append(t.notes, c.notes...)
	}
	t.ratio = float64(cBytes) / float64(cEnc)
	return t
}

// typical is the latency of a block's typical request of one class: the
// median latency per base payload, averaged over the base payloads. The base
// payloads differ in cost (half are hard data, half easy), so the plain median
// of a block sits between two of their modes and jumps from one to the other
// with the seed's data; the median within each payload ignores a stalled
// request just as well, and their mean moves smoothly.
func typical(lat []float64, kind []int) float64 {
	by := map[int][]float64{}
	for i, ms := range lat {
		by[kind[i]] = append(by[kind[i]], ms)
	}
	var sum float64
	for _, ms := range by {
		sum += median(ms)
	}
	return sum / float64(len(by))
}

// runServed is the untraced run of served_mix.
func runServed(w workload, sz sizes, seed int64, seconds float64, workers int, outDir string) (*runResult, error) {
	var (
		env    *servedEnv
		setups []float64
	)
	for i := 0; i < sz.Setups; i++ {
		if env != nil {
			env.close()
		}
		t0 := time.Now()
		var err error
		if env, err = servedSetup(sz, seed, outDir, false); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer env.close()
	clients, rssMB := servedLoad(env, sz, seed, seconds, workers, w.Limits, false)
	t := foldClients(clients)
	env.stop()
	disk, err := dirBytes(env.dir)
	if err != nil {
		return nil, err
	}
	res := &runResult{Attempted: t.attempted, Failed: t.failed, Notes: t.notes, Counts: map[string]float64{}}
	servedEndToEnd(res, t)
	res.set("disk_bytes_per_raw_byte", exact(float64(disk)/float64(t.putRaw), "B/B"))
	res.set("peak_rss_mb", exact(rssMB, "MB"))
	res.set("setup_s", summarise(setups, "s"))
	res.set("failed_share", exact(float64(t.failed)/float64(t.attempted), "share"))
	res.Counts["ratio"] = t.ratio
	res.Counts["cache_hit_share"] = float64(t.cacheHits) / float64(t.attempted)
	return res, nil
}

// servedEndToEnd sets the timing metrics of an untraced served_mix run.
func servedEndToEnd(res *runResult, t servedTotals) {
	res.set("put_p50_ms", summariseOver(t.lat[classPut], t.blockP50[classPut], "ms"))
	res.set("get_p50_ms", summariseOver(t.lat[classGet], t.blockP50[classGet], "ms"))
	res.set("compress_mbps", summarise(t.cMBps, "MB/s"))
	res.set("decompress_mbps", summarise(t.dMBps, "MB/s"))
	res.set("ratio", exact(t.ratio, "x"))
	res.set("staged_write_gain", summarise(mapEach(t.cMBps, func(v float64) float64 { return stagedGain(v, t.ratio, envMuWrite) }), "x"))
	res.set("staged_read_gain", summarise(mapEach(t.dMBps, func(v float64) float64 { return stagedGain(v, t.ratio, envMuRead) }), "x"))
	// Goodput and the share within the limits are medians over blocks: on a
	// shared host a burst of stolen time stalls a few blocks, and a total over
	// the whole phase would report the burst, not the server.
	res.set("goodput_mbps", summarise(t.goodput, "MB/s"))
	res.set("compress_p50_ms", summarise(t.blockTyp[classNew], "ms"))
	res.set("decompress_p50_ms", summarise(t.blockTyp[classDec], "ms"))
	res.set("within_limit_share", summarise(t.within, "share"))
}
