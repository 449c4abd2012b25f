package server

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"net/http/httptrace"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"testing/iotest"
	"time"

	"primacy/internal/bytesplit"
	"primacy/internal/core"
	"primacy/internal/faultinject"
	"primacy/internal/pipeline"
	"primacy/internal/stream"
	"primacy/internal/telemetry"
)

// testData builds deterministic simulation-like float64 bytes.
func testData(n int, seed int64) []byte {
	rng := rand.New(rand.NewSource(seed))
	values := make([]float64, n)
	v := 300.0
	for i := range values {
		v += rng.NormFloat64()
		values[i] = v
	}
	return bytesplit.Float64sToBytes(values)
}

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		s.Close()
		ts.Close()
	})
	return s, ts
}

func post(t *testing.T, url string, body []byte, headers map[string]string) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range headers {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	out, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, out
}

func get(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	out, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, out
}

func TestCompressDecompressRoundTrip(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	raw := testData(20_000, 1)
	resp, enc := post(t, ts.URL+"/v1/compress", raw, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("compress: %d %s", resp.StatusCode, enc)
	}
	if resp.Header.Get(HeaderRatio) == "" {
		t.Error("missing ratio header")
	}
	if got := resp.Header.Get(HeaderCache); got != "miss" {
		t.Errorf("first compress cache header = %q, want miss", got)
	}
	resp, dec := post(t, ts.URL+"/v1/decompress", enc, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("decompress: %d %s", resp.StatusCode, dec)
	}
	if !bytes.Equal(dec, raw) {
		t.Fatalf("round trip mismatch: %d bytes != %d bytes", len(dec), len(raw))
	}
}

func TestPipelineWorkersRoundTrip(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 3, ChunkBytes: 16 * 1024})
	raw := testData(40_000, 2)
	resp, enc := post(t, ts.URL+"/v1/compress", raw, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("compress: %d %s", resp.StatusCode, enc)
	}
	if string(enc[:3]) != "PRP" {
		t.Fatalf("workers>1 should produce a parallel container, got %q", enc[:3])
	}
	resp, dec := post(t, ts.URL+"/v1/decompress", enc, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("decompress: %d %s", resp.StatusCode, dec)
	}
	if !bytes.Equal(dec, raw) {
		t.Fatal("round trip mismatch")
	}
}

// TestCompressPrecondParam: ?precond= selects the per-chunk preconditioner,
// producing a v3 container that still round-trips, the cache key must
// separate preconditioned results from plain ones for the same body, and the
// per-transform selection counters must reach the service's registry.
func TestCompressPrecondParam(t *testing.T) {
	reg := telemetry.NewRegistry()
	core.EnableTelemetry(reg)
	defer core.EnableTelemetry(nil)
	_, ts := newTestServer(t, Config{Metrics: reg})
	raw := testData(20_000, 7)
	resp, plain := post(t, ts.URL+"/v1/compress", raw, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("compress: %d %s", resp.StatusCode, plain)
	}
	// Compress always emits the parallel container; the embedded first shard
	// (offset 16: outer magic+count then the shard's len+crc frame) carries
	// the core container whose version reflects the options.
	if string(plain[:4]) != "PRP2" {
		t.Fatalf("plain compress magic %q, want PRP2", plain[:4])
	}
	if string(plain[16:20]) != "PRM2" {
		t.Fatalf("plain first shard magic %q, want PRM2", plain[16:20])
	}
	resp, enc := post(t, ts.URL+"/v1/compress?precond=aposteriori", raw, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("precond compress: %d %s", resp.StatusCode, enc)
	}
	if string(enc[16:20]) != "PRM3" {
		t.Fatalf("precond first shard magic %q, want PRM3", enc[16:20])
	}
	// Same body, different precond mode: must not be served from the plain
	// entry's cache slot.
	if got := resp.Header.Get(HeaderCache); got != "miss" {
		t.Errorf("precond compress cache header = %q, want miss", got)
	}
	resp, dec := post(t, ts.URL+"/v1/decompress", enc, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("decompress: %d %s", resp.StatusCode, dec)
	}
	if !bytes.Equal(dec, raw) {
		t.Fatal("precond round trip mismatch")
	}
	resp, body := post(t, ts.URL+"/v1/compress?precond=nope", raw, nil)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad precond mode: %d (%s), want 400", resp.StatusCode, body)
	}
	snap := reg.Snapshot()
	chain, _ := snap.Counter("primacy_core_precond_chain_chunks_total")
	pxor, _ := snap.Counter("primacy_core_precond_predictxor_chunks_total")
	if chain+pxor == 0 {
		t.Error("precond selection counters never incremented in the service registry")
	}
}

func TestBadInputsGetExplicit4xx(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, tc := range []struct {
		name string
		path string
		body []byte
		want int
	}{
		{"empty compress", "/v1/compress", nil, http.StatusBadRequest},
		{"odd length", "/v1/compress", []byte{1, 2, 3}, http.StatusBadRequest},
		{"garbage decompress", "/v1/decompress", []byte("XXXX not a container"), http.StatusBadRequest},
		{"unknown solver", "/v1/compress?solver=nope", make([]byte, 16), http.StatusBadRequest},
		{"short decompress", "/v1/decompress", []byte{1}, http.StatusBadRequest},
	} {
		resp, body := post(t, ts.URL+tc.path, tc.body, nil)
		if resp.StatusCode != tc.want {
			t.Errorf("%s: status %d (%s), want %d", tc.name, resp.StatusCode, body, tc.want)
		}
	}
}

func TestCorruptContainerGets422(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	raw := testData(10_000, 3)
	resp, enc := post(t, ts.URL+"/v1/compress", raw, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatal(resp.StatusCode)
	}
	enc[len(enc)/2] ^= 0xFF
	resp, body := post(t, ts.URL+"/v1/decompress", enc, nil)
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("corrupt container: %d (%s), want 422", resp.StatusCode, body)
	}
}

// A body of exactly MaxBodyBytes is served; one byte more is refused.
func TestBodyTooLargeGets413(t *testing.T) {
	const limit = 8 << 10
	_, ts := newTestServer(t, Config{MaxBodyBytes: limit})
	raw := testData(limit/8, 14)
	resp, enc := post(t, ts.URL+"/v1/compress", raw, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("body of exactly the limit: %d (%s), want 200", resp.StatusCode, enc)
	}
	if dec, err := pipeline.Decompress(enc, pipeline.Options{}); err != nil || !bytes.Equal(dec, raw) {
		t.Fatalf("body of exactly the limit did not round-trip (err %v)", err)
	}
	want := fmt.Sprintf("body exceeds %d bytes", limit)
	for _, n := range []int{limit + 1, 4 * limit} {
		resp, body := post(t, ts.URL+"/v1/compress", make([]byte, n), nil)
		if resp.StatusCode != http.StatusRequestEntityTooLarge || !strings.Contains(string(body), want) {
			t.Fatalf("%d-byte body: %d %q, want 413 %q", n, resp.StatusCode, body, want)
		}
	}
}

// A client that declares a body of MaxBodyBytes, sends 1 KiB and goes away
// gets a 400, and holds memory for what it sent, not for what it declared.
func TestShortBodyHoldsOnlyWhatArrived(t *testing.T) {
	const limit = 64 << 20
	sent := testData(128, 15)
	r := httptest.NewRequest(http.MethodPost, "/v1/compress",
		io.MultiReader(bytes.NewReader(sent), iotest.ErrReader(io.ErrUnexpectedEOF)))
	r.ContentLength = limit
	r.Header.Set("Content-Length", strconv.Itoa(limit))
	buf, herr := readBody(httptest.NewRecorder(), r, limit, nil)
	if herr == nil || herr.status != http.StatusBadRequest || herr.Error() != "reading body: unexpected EOF" {
		t.Fatalf("truncated body: %v, want 400 reading body: unexpected EOF", herr)
	}
	if !bytes.Equal(buf, sent) {
		t.Errorf("reader kept %d bytes, want the %d sent", len(buf), len(sent))
	}
	if cap(buf) > 64<<10 {
		t.Errorf("reader holds %d bytes of capacity for a 1 KiB upload", cap(buf))
	}
}

// The same over a real connection: the client half-closes after 1 KiB of a
// declared 1 MiB body and reads the 400.
func TestTruncatedUploadGets400(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	conn, err := net.Dial("tcp", ts.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	fmt.Fprintf(conn, "POST /v1/compress HTTP/1.1\r\nHost: primacyd\r\nContent-Length: %d\r\n\r\n", 1<<20)
	if _, err := conn.Write(testData(128, 16)); err != nil {
		t.Fatal(err)
	}
	if err := conn.(*net.TCPConn).CloseWrite(); err != nil {
		t.Fatal(err)
	}
	resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || !strings.HasPrefix(string(body), "reading body") {
		t.Fatalf("truncated upload: %d %q, want 400 reading body", resp.StatusCode, body)
	}
}

// An upload without Content-Length (chunked transfer coding) round-trips.
func TestChunkedUploadRoundTrips(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	raw := testData(20_000, 17)
	postChunked := func(path string, body []byte) []byte {
		t.Helper()
		req, err := http.NewRequest(http.MethodPost, ts.URL+path, io.NopCloser(bytes.NewReader(body)))
		if err != nil {
			t.Fatal(err)
		}
		req.TransferEncoding = []string{"chunked"}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		out, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("chunked %s: %d %v", path, resp.StatusCode, err)
		}
		return out
	}
	if dec := postChunked("/v1/decompress", postChunked("/v1/compress", raw)); !bytes.Equal(dec, raw) {
		t.Fatal("chunked upload round trip mismatch")
	}
}

// On one keep-alive connection, a large body, a small one and a large one
// again each get their own answer: a reused body buffer leaks no stale
// bytes. Every answer is sized, not chunked.
func TestKeepAliveBodiesStayTheirOwn(t *testing.T) {
	_, ts := newTestServer(t, Config{CacheBytes: -1})
	client := &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1}}
	defer client.CloseIdleConnections()
	big, small, other := testData(64<<10, 18), testData(512, 19), testData(64<<10, 20)
	container, err := pipeline.CompressCtx(context.Background(), other, pipeline.Options{})
	if err != nil {
		t.Fatal(err)
	}
	do := func(i int, path string, body []byte) []byte {
		t.Helper()
		req, err := http.NewRequest(http.MethodPost, ts.URL+path, bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var reused bool
		req = req.WithContext(httptrace.WithClientTrace(req.Context(), &httptrace.ClientTrace{
			GotConn: func(info httptrace.GotConnInfo) { reused = info.Reused },
		}))
		resp, err := client.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		out, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d %s: %d %v", i, path, resp.StatusCode, err)
		}
		if i > 0 && !reused {
			t.Fatalf("request %d did not reuse the connection", i)
		}
		if resp.ContentLength != int64(len(out)) || len(resp.TransferEncoding) != 0 {
			t.Errorf("request %d: Content-Length %d, transfer coding %v, body %d bytes; want a sized response",
				i, resp.ContentLength, resp.TransferEncoding, len(out))
		}
		return out
	}
	for i, raw := range [][]byte{big, small} {
		dec, err := pipeline.Decompress(do(i, "/v1/compress", raw), pipeline.Options{})
		if err != nil || !bytes.Equal(dec, raw) {
			t.Fatalf("compress %d (%d bytes) did not decode to its own body (err %v)", i, len(raw), err)
		}
	}
	if dec := do(2, "/v1/decompress", container); !bytes.Equal(dec, other) {
		t.Fatal("decompress after the small body returned the wrong bytes")
	}
}

// /v1/decompress reads every container format: parallel (PRP), bare core
// (PRM) and stream (PRS).
func TestDecompressEveryContainer(t *testing.T) {
	_, ts := newTestServer(t, Config{CacheBytes: -1})
	raw := testData(40_000, 22)
	prp, err := pipeline.CompressCtx(context.Background(), raw, pipeline.Options{})
	if err != nil {
		t.Fatal(err)
	}
	prm, err := core.Compress(raw, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var prs bytes.Buffer
	sw, err := stream.NewWriter(&prs, core.Options{ChunkBytes: 64 << 10})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sw.Write(raw); err != nil {
		t.Fatal(err)
	}
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}
	for _, enc := range [][]byte{prp, prm, prs.Bytes()} {
		resp, dec := post(t, ts.URL+"/v1/decompress", enc, nil)
		if resp.StatusCode != http.StatusOK || !bytes.Equal(dec, raw) {
			t.Errorf("%s container: %d, %d bytes back, want 200 and the %d raw bytes",
				enc[:3], resp.StatusCode, len(dec), len(raw))
		}
	}
}

// Nothing an operation returns aliases the request's pooled body: identical
// concurrent requests (single-flight followers, retention off) mixed with
// distinct ones all decode to their own bodies.
func TestConcurrentBodiesStayTheirOwn(t *testing.T) {
	_, ts := newTestServer(t, Config{CacheBytes: -1})
	shared := testData(32_000, 21)
	bodies := make([][]byte, 16)
	for i := range bodies {
		if i%2 == 0 {
			bodies[i] = shared
		} else {
			bodies[i] = testData(32_000+i, int64(100+i))
		}
	}
	var wg sync.WaitGroup
	for i, raw := range bodies {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, enc := post(t, ts.URL+"/v1/compress", raw, nil)
			if resp.StatusCode != http.StatusOK {
				t.Errorf("client %d: %d %s", i, resp.StatusCode, enc)
				return
			}
			if dec, err := pipeline.Decompress(enc, pipeline.Options{}); err != nil || !bytes.Equal(dec, raw) {
				t.Errorf("client %d (%s) did not decode to its own body (err %v)", i, resp.Header.Get(HeaderCache), err)
			}
		}()
	}
	wg.Wait()
}

func TestResultCacheHitAndDedup(t *testing.T) {
	reg := telemetry.NewRegistry()
	s, ts := newTestServer(t, Config{Solver: "bzlib", Metrics: reg, ChunkBytes: 64 * 1024})
	raw := testData(64_000, 4) // bzlib is slow enough that followers overlap

	// Concurrent identical requests: exactly one computes, the rest share.
	const clients = 4
	var wg sync.WaitGroup
	outcomes := make([]string, clients)
	encs := make([][]byte, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, enc := post(t, ts.URL+"/v1/compress", raw, nil)
			if resp.StatusCode != http.StatusOK {
				t.Errorf("client %d: %d", i, resp.StatusCode)
				return
			}
			outcomes[i] = resp.Header.Get(HeaderCache)
			encs[i] = enc
		}(i)
	}
	wg.Wait()
	misses, hits := 0, 0
	for i, o := range outcomes {
		switch o {
		case "miss":
			misses++
		case "hit":
			hits++ // a client that arrived after the computation had finished
		}
		if !bytes.Equal(encs[i], encs[0]) {
			t.Fatalf("client %d got a different result", i)
		}
	}
	if misses != 1 {
		t.Errorf("%d misses across identical concurrent requests, want 1 (%v)", misses, outcomes)
	}
	// A later identical request is a plain hit.
	resp, _ := post(t, ts.URL+"/v1/compress", raw, nil)
	if got := resp.Header.Get(HeaderCache); got != "hit" {
		t.Errorf("repeat request cache header = %q, want hit", got)
	}
	if s.cache.Len() == 0 {
		t.Error("cache retained nothing")
	}
	waitObserved(s)
	snap := reg.Snapshot()
	if v := snap.LabeledCounterSum("primacyd_cache_outcomes_total",
		telemetry.LabelPair{Name: "outcome", Value: "hit"}); int(v) != 1+hits {
		t.Errorf("cache hits = %d, want the repeat request's and the %d late clients' (%v)", v, hits, outcomes)
	}
}

func TestCacheEvictionStaysBounded(t *testing.T) {
	c := newResultCache(1024)
	for i := 0; i < 64; i++ {
		key := fmt.Sprintf("k%d", i)
		if _, _, err := c.Do(context.Background(), key, func() ([]byte, error) {
			return make([]byte, 100), nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	if c.Bytes() > 1024 {
		t.Fatalf("cache grew to %d bytes over the 1024 budget", c.Bytes())
	}
	if c.Len() == 0 || c.Len() > 10 {
		t.Fatalf("cache retained %d entries, want a bounded handful", c.Len())
	}
}

func TestCacheResultsAreMutationSafe(t *testing.T) {
	c := newResultCache(1 << 20)
	leaderOut, _, err := c.Do(context.Background(), "k", func() ([]byte, error) {
		return []byte("pristine"), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// The leader scribbling over its returned slice must not reach the
	// retained copy — handlers own their response buffers.
	for i := range leaderOut {
		leaderOut[i] = 'X'
	}
	hitOut, outcome, err := c.Do(context.Background(), "k", func() ([]byte, error) {
		t.Fatal("hit path recomputed")
		return nil, nil
	})
	if err != nil || outcome != CacheHit {
		t.Fatalf("outcome = %v, err = %v", outcome, err)
	}
	if string(hitOut) != "pristine" {
		t.Fatalf("retained result corrupted by leader mutation: %q", hitOut)
	}
	// A hit mutating its copy must not corrupt the next hit either.
	for i := range hitOut {
		hitOut[i] = 'Y'
	}
	again, _, err := c.Do(context.Background(), "k", func() ([]byte, error) { return nil, nil })
	if err != nil || string(again) != "pristine" {
		t.Fatalf("retained result corrupted by hit mutation: %q (err %v)", again, err)
	}
}

func TestCacheSharedResultsAreMutationSafe(t *testing.T) {
	// Retention disabled: followers share the leader's e.out, and each must
	// still get an independent copy.
	c := newResultCache(0)
	release := make(chan struct{})
	started := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	var leaderOut []byte
	go func() {
		defer wg.Done()
		leaderOut, _, _ = c.Do(context.Background(), "k", func() ([]byte, error) {
			close(started)
			<-release
			return []byte("shared"), nil
		})
	}()
	<-started
	const followers = 3
	outs := make([][]byte, followers)
	for i := 0; i < followers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			outs[i], _, _ = c.Do(context.Background(), "k", func() ([]byte, error) {
				return []byte("recomputed"), nil
			})
		}(i)
	}
	time.Sleep(10 * time.Millisecond) // let followers reach the wait
	close(release)
	wg.Wait()
	for i, out := range outs {
		if string(out) == "recomputed" {
			continue // follower raced past the in-flight entry; fine
		}
		for j := range out {
			out[j] = byte('0' + i)
		}
	}
	if string(leaderOut) != "shared" {
		t.Fatalf("leader result corrupted by follower mutation: %q", leaderOut)
	}
}

func TestCacheLeaderErrorNotPoisoned(t *testing.T) {
	c := newResultCache(1 << 20)
	var calls atomic.Int64
	_, _, err := c.Do(context.Background(), "k", func() ([]byte, error) {
		calls.Add(1)
		return nil, fmt.Errorf("boom")
	})
	if err == nil {
		t.Fatal("leader error swallowed")
	}
	out, outcome, err := c.Do(context.Background(), "k", func() ([]byte, error) {
		calls.Add(1)
		return []byte("ok"), nil
	})
	if err != nil || string(out) != "ok" || outcome != CacheMiss {
		t.Fatalf("retry after leader error: %q %v %v", out, outcome, err)
	}
	if calls.Load() != 2 {
		t.Fatalf("calls = %d, want 2", calls.Load())
	}
}

// TestCacheRefreshBuildsOnTheStaleResult walks one versioned slot through
// its cases: a newer version is built from the older result, an older or
// equal one is a hit, a failed refresh loses nothing, and the slot is charged
// to the budget once however often it is replaced.
func TestCacheRefreshBuildsOnTheStaleResult(t *testing.T) {
	c := newResultCache(1 << 20)
	ctx := context.Background()
	grow := func(prev []byte) ([]byte, error) { return append(append([]byte(nil), prev...), 'x'), nil }
	for _, step := range []struct {
		ver  int64
		want string
	}{{1, "x"}, {2, "xx"}} {
		out, outcome, err := c.Refresh(ctx, "slot", step.ver, grow)
		if err != nil || string(out) != step.want || outcome != CacheMiss {
			t.Fatalf("refresh to v%d: %q %v %v", step.ver, out, outcome, err)
		}
	}
	_, _, err := c.Refresh(ctx, "slot", 3, func(prev []byte) ([]byte, error) {
		return nil, fmt.Errorf("boom on %q", prev)
	})
	if err == nil || err.Error() != `boom on "xx"` {
		t.Fatalf("failed refresh: %v", err)
	}
	for _, ver := range []int64{2, 1} {
		out, outcome, err := c.Refresh(ctx, "slot", ver, grow)
		if err != nil || string(out) != "xx" || outcome != CacheHit {
			t.Fatalf("v%d after a failed refresh: %q %v %v, want the retained v2", ver, out, outcome, err)
		}
	}
	if c.Len() != 1 || c.Bytes() != int64(len("xx")+len("slot")) {
		t.Fatalf("slot charged %d bytes over %d entries", c.Bytes(), c.Len())
	}
}

func TestDeadlineExceededGets504(t *testing.T) {
	// Small chunks give the codec frequent cancellation points.
	_, ts := newTestServer(t, Config{ChunkBytes: 8 * 1024, CacheBytes: -1})
	raw := testData(400_000, 5)
	resp, body := post(t, ts.URL+"/v1/compress", raw, map[string]string{
		HeaderDeadlineMs: "1",
	})
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("expired deadline: %d (%s), want 504", resp.StatusCode, body)
	}
}

func TestInvalidDeadlineHeaderGets400(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, _ := post(t, ts.URL+"/v1/compress", make([]byte, 16), map[string]string{
		HeaderDeadlineMs: "never",
	})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad deadline header: %d, want 400", resp.StatusCode)
	}
}

func TestOverloadShedsWith429AndRetryAfter(t *testing.T) {
	reg := telemetry.NewRegistry()
	s, ts := newTestServer(t, Config{
		Solver:             "bzlib",
		MaxConcurrent:      1,
		MaxQueuedPerTenant: 1,
		MaxQueued:          1,
		CacheBytes:         -1,
		Metrics:            reg,
	})
	raw := testData(64_000, 6)
	const clients = 8
	var wg sync.WaitGroup
	var ok, shed atomic.Int64
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// Distinct payload suffix defeats single-flight so every client
			// really contends for admission.
			body := append(append([]byte(nil), raw...), testData(8, int64(i))...)
			resp, _ := post(t, ts.URL+"/v1/compress", body, nil)
			switch resp.StatusCode {
			case http.StatusOK:
				ok.Add(1)
			case http.StatusTooManyRequests:
				if resp.Header.Get("Retry-After") == "" {
					t.Error("429 without Retry-After")
				}
				shed.Add(1)
			default:
				t.Errorf("client %d: unexpected status %d", i, resp.StatusCode)
			}
		}(i)
	}
	wg.Wait()
	if ok.Load() == 0 {
		t.Error("no request succeeded under overload")
	}
	if shed.Load() == 0 {
		t.Error("no request was shed: overload queued unboundedly")
	}
	waitObserved(s)
	snap := reg.Snapshot()
	if v := snap.LabeledCounterSum("primacyd_shed_by_tenant_total"); v != shed.Load() {
		t.Errorf("shed counter = %d, want %d", v, shed.Load())
	}
}

func TestPoisonedPayloadDegradesInsteadOfKilling(t *testing.T) {
	// A solver that panics on every chunk: the codec's per-chunk panic
	// isolation degrades to raw passthrough, the request still succeeds,
	// and the round trip is byte-identical.
	ps, err := faultinject.NewPanicky("server-test-panicky", "zlib")
	if err != nil {
		t.Fatal(err)
	}
	ps.PanicEvery = 1
	_, ts := newTestServer(t, Config{Solver: "server-test-panicky", CacheBytes: -1})
	raw := testData(10_000, 7)
	resp, enc := post(t, ts.URL+"/v1/compress", raw, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("poisoned compress: %d %s", resp.StatusCode, enc)
	}
	dec, err := pipeline.Decompress(enc, pipeline.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dec, raw) {
		t.Fatal("degraded round trip lost data")
	}
}

func TestHandlerPanicIsolatedTo500(t *testing.T) {
	reg := telemetry.NewRegistry()
	s, err := New(Config{Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	h := s.work("explode", func(*request) (*response, error) {
		panic("request-scoped explosion")
	})
	rec := httptest.NewRecorder()
	h(rec, httptest.NewRequest(http.MethodPost, "/explode", strings.NewReader("x")))
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("panicking handler: %d, want 500", rec.Code)
	}
	snap := reg.Snapshot()
	if v, _ := snap.Counter("primacyd_panics_total"); v != 1 {
		t.Errorf("panic counter = %d, want 1", v)
	}
	// The server keeps serving.
	rec = httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("healthz after panic: %d", rec.Code)
	}
}

func TestArchivePutGetRoundTrip(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	hdr := map[string]string{HeaderTenant: "acme"}
	v1 := testData(5_000, 8)
	v2 := testData(5_000, 9)
	for i, tc := range []struct {
		q    string
		body []byte
	}{
		{"name=temp&step=0", v1},
		{"name=temp&step=1", v2},
	} {
		resp, body := post(t, ts.URL+"/v1/archive/put?"+tc.q, tc.body, hdr)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("put %d: %d %s", i, resp.StatusCode, body)
		}
	}
	// Duplicate put conflicts.
	resp, _ := post(t, ts.URL+"/v1/archive/put?name=temp&step=0", v1, hdr)
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("duplicate put: %d, want 409", resp.StatusCode)
	}
	// Entry readback.
	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/v1/archive/get?name=temp&step=1", nil)
	req.Header.Set(HeaderTenant, "acme")
	r2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	got, _ := io.ReadAll(r2.Body)
	r2.Body.Close()
	if r2.StatusCode != http.StatusOK {
		t.Fatalf("get: %d %s", r2.StatusCode, got)
	}
	if !bytes.Equal(got, v2) {
		t.Fatal("archive entry round trip mismatch")
	}
	// Missing entry 404s; other tenants see nothing.
	req, _ = http.NewRequest(http.MethodGet, ts.URL+"/v1/archive/get?name=temp&step=9", nil)
	req.Header.Set(HeaderTenant, "acme")
	r3, _ := http.DefaultClient.Do(req)
	io.Copy(io.Discard, r3.Body)
	r3.Body.Close()
	if r3.StatusCode != http.StatusNotFound {
		t.Fatalf("missing step: %d, want 404", r3.StatusCode)
	}
	resp, _ = get(t, ts.URL+"/v1/archive/get?name=temp&step=0")
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("cross-tenant get: %d, want 404", resp.StatusCode)
	}
}

func TestHealthReadyMetricsEndpoints(t *testing.T) {
	reg := telemetry.NewRegistry()
	s, ts := newTestServer(t, Config{Metrics: reg})
	resp, body := get(t, ts.URL+"/healthz")
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "ok") {
		t.Fatalf("healthz: %d %q", resp.StatusCode, body)
	}
	resp, body = get(t, ts.URL+"/readyz")
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "ready") {
		t.Fatalf("readyz: %d %q", resp.StatusCode, body)
	}
	raw := testData(2_000, 10)
	post(t, ts.URL+"/v1/compress", raw, nil)
	resp, body = get(t, ts.URL+"/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics: %d", resp.StatusCode)
	}
	if !strings.Contains(string(body), "primacyd_requests_total") {
		t.Errorf("metrics exposition missing server counters:\n%.400s", body)
	}
	s.draining.Store(true)
	resp, _ = get(t, ts.URL+"/readyz")
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz while draining: %d, want 503", resp.StatusCode)
	}
}

func TestGracefulDrainFinishesInFlight(t *testing.T) {
	before := runtime.NumGoroutine()
	s, ts := newTestServer(t, Config{Solver: "bzlib", CacheBytes: -1})
	raw := testData(64_000, 11)
	resultCh := make(chan int, 1)
	go func() {
		resp, _ := post(t, ts.URL+"/v1/compress", raw, nil)
		resultCh <- resp.StatusCode
	}()
	waitInflight(t, s)
	if err := s.Drain(context.Background()); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if code := <-resultCh; code != http.StatusOK {
		t.Fatalf("in-flight request during graceful drain: %d, want 200", code)
	}
	// New work is refused with 503 + Retry-After.
	resp, _ := post(t, ts.URL+"/v1/compress", raw, nil)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("post-drain request: %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("503 without Retry-After")
	}
	checkGoroutinesSettled(t, before)
}

func TestForcedDrainCancelsInFlight(t *testing.T) {
	s, ts := newTestServer(t, Config{
		Solver:     "bzlib",
		ChunkBytes: 8 * 1024,
		CacheBytes: -1,
	})
	raw := testData(600_000, 12)
	resultCh := make(chan int, 1)
	go func() {
		resp, _ := post(t, ts.URL+"/v1/compress", raw, nil)
		resultCh <- resp.StatusCode
	}()
	waitInflight(t, s)
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("forced drain did not unwind: %v", err)
	}
	select {
	case code := <-resultCh:
		if code != http.StatusServiceUnavailable {
			t.Fatalf("cancelled in-flight request: %d, want 503", code)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("in-flight request never completed after forced drain")
	}
}

func waitInflight(t *testing.T, s *Server) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if n, _ := s.adm.InFlight(); n > 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("request never entered admission")
		}
		time.Sleep(time.Millisecond)
	}
}

func checkGoroutinesSettled(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		after := runtime.NumGoroutine()
		if after <= before+8 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutine leak: %d -> %d", before, after)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
