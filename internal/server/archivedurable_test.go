package server

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"primacy/internal/archive"
	"primacy/internal/bytesplit"
	"primacy/internal/core"
	"primacy/internal/durable"
	"primacy/internal/precond"
	"primacy/internal/telemetry"
)

// getAs issues a GET as tenant. The client timeout turns a wedged request
// into a test failure instead of a hung test.
func getAs(t *testing.T, url, tenant string) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(HeaderTenant, tenant)
	client := &http.Client{Timeout: 30 * time.Second}
	resp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, body
}

// TestNamedGetAndPutIgnoreArchiveBuild: a whole-archive build used to hold a
// per-tenant mutex that every get of the tenant took (and, before that, one
// that puts took too, which let a get queued at admission wedge them). Now
// the only thing a build holds is the tenant's download slot in the result
// cache. With that slot held in flight for as long as the test likes, a
// named get and a put of the same tenant complete; only another download of
// the tenant has anything to do with the build, and shares its result.
func TestNamedGetAndPutIgnoreArchiveBuild(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	payload := testData(2_000, 1)
	hdr := map[string]string{HeaderTenant: "acme"}
	resp, body := post(t, ts.URL+"/v1/archive/put?name=temp&step=0", payload, hdr)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("seed put: %d %s", resp.StatusCode, body)
	}
	opts, err := s.codecOptions(httptest.NewRequest(http.MethodGet, "/v1/archive/get", nil))
	if err != nil {
		t.Fatal(err)
	}
	key := "a:" + optionsKey(opts) + ":acme"
	building, finish := make(chan struct{}), make(chan struct{})
	built := make(chan error, 1)
	go func() {
		// Far ahead of any version the puts below reach, so the download
		// that follows this build shares its result.
		_, _, err := s.cache.Refresh(context.Background(), key, 1<<40, func([]byte) ([]byte, error) {
			close(building)
			<-finish
			return []byte("built"), nil
		})
		built <- err
	}()
	<-building

	resp, got := getAs(t, ts.URL+"/v1/archive/get?name=temp&step=0", "acme")
	if resp.StatusCode != http.StatusOK || !bytes.Equal(got, payload) {
		t.Fatalf("named get during a build: %d, %d bytes", resp.StatusCode, len(got))
	}
	resp, body = post(t, ts.URL+"/v1/archive/put?name=temp&step=1", payload, hdr)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("put during a build: %d %s", resp.StatusCode, body)
	}
	// A download joins the build in flight (or finds its result): either
	// way it gets the build's bytes, not a second build of its own.
	download := make(chan string, 1)
	go func() {
		req, _ := http.NewRequest(http.MethodGet, ts.URL+"/v1/archive/get", nil)
		req.Header.Set(HeaderTenant, "acme")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			download <- err.Error()
			return
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		download <- string(body)
	}()
	close(finish)
	if err := <-built; err != nil {
		t.Fatal(err)
	}
	if body := <-download; body != "built" {
		t.Fatalf("download got %d bytes, want the in-flight build's result", len(body))
	}
}

// specialValues covers the float64 encodings a decode/re-encode could
// canonicalise: NaNs with payloads (quiet and signalling, both signs), both
// zeros and infinities, denormals, and the extremes.
func specialValues() []byte {
	bits := []uint64{
		0x7FF8000000000000, 0x7FF8000000000001, 0x7FF0000000000001, 0xFFF8DEADBEEF0001,
		0x7FFFFFFFFFFFFFFF, 0xFFF0000000000001,
		0x0000000000000000, 0x8000000000000000, // +0, -0
		0x7FF0000000000000, 0xFFF0000000000000, // +Inf, -Inf
		0x0000000000000001, 0x800FFFFFFFFFFFFF, 0x000FFFFFFFFFFFFF, // denormals
		0x0010000000000000, 0x7FEFFFFFFFFFFFFF, 0x3FF0000000000000,
	}
	out := make([]byte, 0, len(bits)*8)
	for _, b := range bits {
		out = binary.BigEndian.AppendUint64(out, b)
	}
	return out
}

// TestNamedGetIsBitExact: a named get returns the bytes of the put, whatever
// floats they spell, and the whole-archive container decodes to them too.
func TestNamedGetIsBitExact(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	payload := specialValues()
	resp, body := post(t, ts.URL+"/v1/archive/put?name=odd&step=3", payload, map[string]string{HeaderTenant: "acme"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("put: %d %s", resp.StatusCode, body)
	}
	resp, got := getAs(t, ts.URL+"/v1/archive/get?name=odd&step=3", "acme")
	if resp.StatusCode != http.StatusOK || !bytes.Equal(got, payload) {
		t.Fatalf("named get: %d, payload intact: %v", resp.StatusCode, bytes.Equal(got, payload))
	}
	_, blob := getAs(t, ts.URL+"/v1/archive/get", "acme")
	rd, err := archive.NewReader(bytes.NewReader(blob), int64(len(blob)))
	if err != nil {
		t.Fatal(err)
	}
	values, err := rd.GetFloat64s("odd", 3)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(bytesplit.Float64sToBytes(values), payload) {
		t.Fatal("downloaded container does not decode to the put bytes")
	}
}

// TestArchiveGetNotFound: what is not there is a 404, in both read forms,
// including a step past uint32 that the store's index key would wrap.
func TestArchiveGetNotFound(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, body := post(t, ts.URL+"/v1/archive/put?name=temp&step=0", testData(100, 1), map[string]string{HeaderTenant: "acme"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("put: %d %s", resp.StatusCode, body)
	}
	for _, tc := range []struct{ tenant, query string }{
		{"nobody", "?name=temp&step=0"},
		{"nobody", ""},
		{"acme", "?name=pressure&step=0"},
		{"acme", "?name=temp&step=1"},
		{"acme", "?name=temp&step=4294967296"},
	} {
		resp, body := getAs(t, ts.URL+"/v1/archive/get"+tc.query, tc.tenant)
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("tenant %s, get%s: %d %q, want 404", tc.tenant, tc.query, resp.StatusCode, body)
		}
	}
	resp, _ = getAs(t, ts.URL+"/v1/archive/get?name=temp&step=0&solver=nope", "acme")
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown solver: %d, want 400", resp.StatusCode)
	}
}

// TestArchiveStoreFaultIs500: an entry the store holds but cannot read back
// — its journal record or its sealed entry damaged at rest — is the
// server's fault. Both read forms answer 500 and count a server error, not
// a 404 or a 422 "corrupt payload" counted against the client.
func TestArchiveStoreFaultIs500(t *testing.T) {
	for _, tc := range []struct {
		name   string
		sealed bool
		file   string
	}{
		{"journal record", false, "journal.wal"},
		{"sealed entry", true, fmt.Sprintf("sealed-%016d.par", 1)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			reg := telemetry.NewRegistry()
			s, ts := newTestServer(t, Config{DataDir: dir, CompactEvery: -1, Metrics: reg})
			resp, body := post(t, ts.URL+"/v1/archive/put?name=temp&step=0", testData(1_000, 1), map[string]string{HeaderTenant: "acme"})
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("put: %d %s", resp.StatusCode, body)
			}
			if tc.sealed {
				if err := s.store.Compact("acme"); err != nil {
					t.Fatal(err)
				}
			}
			// The one entry fills the middle of either file.
			path := filepath.Join(dir, "t_acme", tc.file)
			b, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			b[len(b)/2] ^= 0x10
			if err := os.WriteFile(path, b, 0o644); err != nil {
				t.Fatal(err)
			}
			for _, query := range []string{"?name=temp&step=0", ""} {
				resp, body := getAs(t, ts.URL+"/v1/archive/get"+query, "acme")
				if resp.StatusCode != http.StatusInternalServerError {
					t.Errorf("get%s: %d %q, want 500", query, resp.StatusCode, body)
				}
			}
			waitObserved(s)
			snap := reg.Snapshot()
			if n := snap.LabeledCounterSum("primacyd_requests_total",
				telemetry.LabelPair{Name: "status", Value: "5xx"}); n != 2 {
				t.Errorf("%d server errors counted, want 2", n)
			}
			if n := snap.LabeledCounterSum("primacyd_requests_total",
				telemetry.LabelPair{Name: "status", Value: "4xx"}); n != 0 {
				t.Errorf("%d client errors counted, want 0", n)
			}
		})
	}
}

// archiveOf builds the container of entries with a plain archive.Writer,
// the reference every download is compared against.
func archiveOf(t *testing.T, opts core.Options, names []string, payloads [][]byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	w, err := archive.NewWriter(&buf, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range payloads {
		values, err := bytesplit.BytesToFloat64s(p)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.PutFloat64s(names[i], i, values); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// entriesWritten counts archive entry encodes (process-wide; the tests of
// this package do not run in parallel).
func entriesWritten(t *testing.T) func() int64 {
	t.Helper()
	reg := telemetry.NewRegistry()
	archive.EnableTelemetry(reg)
	t.Cleanup(func() { archive.EnableTelemetry(nil) })
	return func() int64 {
		n, _ := reg.Snapshot().Counter("primacy_archive_entries_written_total")
		return n
	}
}

// TestArchiveDownloadResumes: a client that downloads after every put costs
// one entry encode per put, not one per entry held, and every container it
// gets is the one a from-scratch build of the entries so far produces.
func TestArchiveDownloadResumes(t *testing.T) {
	_, ts := newTestServer(t, Config{ChunkBytes: 4096})
	hdr := map[string]string{HeaderTenant: "acme"}
	const n = 6
	var names []string
	var payloads, downloads [][]byte
	encodes := entriesWritten(t)
	for i := 0; i < n; i++ {
		names = append(names, []string{"temp", "rho"}[i%2])
		payloads = append(payloads, testData(600+50*i, int64(i)))
		resp, body := post(t, fmt.Sprintf("%s/v1/archive/put?name=%s&step=%d", ts.URL, names[i], i), payloads[i], hdr)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("put %d: %d %s", i, resp.StatusCode, body)
		}
		resp, blob := getAs(t, ts.URL+"/v1/archive/get", "acme")
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("download %d: %d %s", i, resp.StatusCode, blob)
		}
		downloads = append(downloads, blob)
	}
	// A download with nothing new, and named gets, encode nothing.
	_, again := getAs(t, ts.URL+"/v1/archive/get", "acme")
	getAs(t, ts.URL+"/v1/archive/get?name=temp&step=0", "acme")
	if got := encodes(); got != n {
		t.Fatalf("%d puts and %d downloads encoded %d entries, want exactly %d", n, n+1, got, n)
	}
	if !bytes.Equal(again, downloads[n-1]) {
		t.Fatal("repeated download differs")
	}
	opts := core.Options{Solver: "zlib", ChunkBytes: 4096}
	for i, blob := range downloads {
		if !bytes.Equal(blob, archiveOf(t, opts, names[:i+1], payloads[:i+1])) {
			t.Fatalf("download after put %d differs from a from-scratch build", i)
		}
		rd, err := archive.NewReader(bytes.NewReader(blob), int64(len(blob)))
		if err != nil {
			t.Fatal(err)
		}
		if rd.NumEntries() != i+1 {
			t.Fatalf("download %d holds %d entries", i, rd.NumEntries())
		}
		for j := 0; j <= i; j++ {
			values, err := rd.GetFloat64s(names[j], j)
			if err != nil || !bytes.Equal(bytesplit.Float64sToBytes(values), payloads[j]) {
				t.Fatalf("download %d, entry %d: %v", i, j, err)
			}
		}
	}
}

// TestArchiveDownloadKeyedByOptions is the regression test for the cached
// container being validated by store version alone: a download with other
// codec options got whatever container the first download had built.
func TestArchiveDownloadKeyedByOptions(t *testing.T) {
	_, ts := newTestServer(t, Config{ChunkBytes: 4096})
	names := []string{"temp", "temp"}
	payloads := [][]byte{testData(3_000, 1), testData(3_000, 2)}
	for i, p := range payloads {
		resp, body := post(t, fmt.Sprintf("%s/v1/archive/put?name=temp&step=%d", ts.URL, i), p, map[string]string{HeaderTenant: "acme"})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("put %d: %d %s", i, resp.StatusCode, body)
		}
	}
	seen := map[string]string{}
	for _, tc := range []struct {
		query string
		opts  core.Options
	}{
		{"", core.Options{Solver: "zlib", ChunkBytes: 4096}},
		{"?solver=lzo", core.Options{Solver: "lzo", ChunkBytes: 4096}},
		{"?precond=aposteriori", core.Options{Solver: "zlib", ChunkBytes: 4096,
			Precond: core.PrecondOptions{Selection: precond.APosteriori}}},
		{"", core.Options{Solver: "zlib", ChunkBytes: 4096}}, // and back: still its own
	} {
		resp, blob := getAs(t, ts.URL+"/v1/archive/get"+tc.query, "acme")
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("download%s: %d %s", tc.query, resp.StatusCode, blob)
		}
		if !bytes.Equal(blob, archiveOf(t, tc.opts, names, payloads)) {
			t.Errorf("download%s is not the container those options build", tc.query)
		}
		if other, dup := seen[string(blob)]; dup && other != tc.query {
			t.Errorf("download%s and download%s returned the same container", tc.query, other)
		}
		seen[string(blob)] = tc.query
	}
}

// TestArchiveDownloadsShareCacheBudget is the regression test for the
// per-tenant containers living outside any budget, one per tenant ever read:
// they are result-cache entries now, and the least recently downloaded goes
// first. Losing one costs only a rebuild.
func TestArchiveDownloadsShareCacheBudget(t *testing.T) {
	payload := testData(4_000, 7)
	one := int64(len(archiveOf(t, core.Options{Solver: "zlib"}, []string{"temp"}, [][]byte{payload})))
	s, ts := newTestServer(t, Config{CacheBytes: 2*one + one/2}) // room for two
	for _, tenant := range []string{"a", "b", "c"} {
		resp, body := post(t, ts.URL+"/v1/archive/put?name=temp&step=0", payload, map[string]string{HeaderTenant: tenant})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("put %s: %d %s", tenant, resp.StatusCode, body)
		}
	}
	encodes := entriesWritten(t)
	want := int64(0)
	for _, step := range []struct {
		tenant string
		cost   int64
	}{{"a", 1}, {"b", 1}, {"a", 0}, {"c", 1} /* evicts b */, {"a", 0}, {"b", 1}} {
		resp, blob := getAs(t, ts.URL+"/v1/archive/get", step.tenant)
		if resp.StatusCode != http.StatusOK || int64(len(blob)) != one {
			t.Fatalf("download %s: %d, %d bytes", step.tenant, resp.StatusCode, len(blob))
		}
		want += step.cost
		if got := encodes(); got != want {
			t.Fatalf("after downloading %s: %d entry encodes, want %d", step.tenant, got, want)
		}
		if s.cache.Bytes() > s.cfg.CacheBytes {
			t.Fatalf("cache holds %d bytes, budget %d", s.cache.Bytes(), s.cfg.CacheBytes)
		}
	}
}

// TestBuildArchiveDropsUnusablePrev: a cached container that cannot be
// continued — truncated, damaged, v1, or holding more entries than the store
// — is not served and not built upon; the build starts over.
func TestBuildArchiveDropsUnusablePrev(t *testing.T) {
	opts := core.Options{Solver: "zlib", ChunkBytes: 4096}
	names := []string{"temp", "rho", "temp"}
	payloads := [][]byte{testData(500, 1), testData(500, 2), testData(500, 3)}
	store, _, err := durable.Open("", durable.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	for i, p := range payloads {
		values, _ := bytesplit.BytesToFloat64s(p)
		if err := store.Put(context.Background(), "t", names[i], i, values, 0); err != nil {
			t.Fatal(err)
		}
	}
	entries := func(from int, put func(durable.Entry) error) error { return store.Each("t", from, put) }
	want := archiveOf(t, opts, names, payloads)
	good := archiveOf(t, opts, names[:2], payloads[:2])
	flipped := append([]byte(nil), good...)
	flipped[len(flipped)/3] ^= 0x04
	v1, err := os.ReadFile(filepath.Join("..", "archive", "testdata", "v1", "archive.par"))
	if err != nil {
		t.Fatal(err)
	}
	encodes := entriesWritten(t)
	for _, tc := range []struct {
		name    string
		prev    []byte
		encodes int64
	}{
		{"none", nil, 3},
		{"good", good, 1},
		{"truncated", good[:len(good)-7], 3},
		{"bit-flipped", flipped, 3},
		{"v1", v1, 3},
		{"ahead of the store", archiveOf(t, opts, append(names[:3:3], "rho"), append(payloads[:3:3], testData(500, 4))), 3},
	} {
		before := encodes()
		got, err := buildArchive(context.Background(), tc.prev, entries, opts)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("prev %s: build differs from the from-scratch container", tc.name)
		}
		if n := encodes() - before; n != tc.encodes {
			t.Errorf("prev %s: %d entry encodes, want %d", tc.name, n, tc.encodes)
		}
	}
}

// TestBuildArchiveStopsAtAFailedPut: a put that fails — here, past the
// request's deadline — ends the build with its own error. It is not a read
// fault, and a good prev is not dropped and built again over it.
func TestBuildArchiveStopsAtAFailedPut(t *testing.T) {
	opts := core.Options{Solver: "zlib", ChunkBytes: 4096}
	names := []string{"temp", "rho", "temp"}
	payloads := [][]byte{testData(500, 1), testData(500, 2), testData(500, 3)}
	store, _, err := durable.Open("", durable.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	for i, p := range payloads {
		values, _ := bytesplit.BytesToFloat64s(p)
		if err := store.Put(context.Background(), "t", names[i], i, values, 0); err != nil {
			t.Fatal(err)
		}
	}
	var froms []int
	each := func(from int, put func(durable.Entry) error) error {
		froms = append(froms, from)
		return store.Each("t", from, put)
	}
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	good := archiveOf(t, opts, names[:2], payloads[:2])
	_, err = buildArchive(ctx, good, each, opts)
	var herr *httpError
	if !errors.Is(err, context.DeadlineExceeded) || errors.As(err, &herr) {
		t.Fatalf("build past the deadline: %v", err)
	}
	if len(froms) != 1 || froms[0] != 2 {
		t.Fatalf("entries asked for from %v, want only from 2", froms)
	}
}

// TestArchiveDownloadReturnsCopy is the regression test for the whole-archive
// download aliasing the cached blob: a caller mutating the returned body used
// to corrupt the cache for every later download. The handler must hand out a
// copy.
func TestArchiveDownloadReturnsCopy(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	hdr := map[string]string{HeaderTenant: "acme"}
	for i := 0; i < 2; i++ {
		resp, body := post(t, ts.URL+fmt.Sprintf("/v1/archive/put?name=temp&step=%d", i), testData(2_000, int64(i)), hdr)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("put %d: %d %s", i, resp.StatusCode, body)
		}
	}
	mkReq := func() *request {
		return &request{
			ctx:    context.Background(),
			tenant: "acme",
			r:      httptest.NewRequest(http.MethodGet, "/v1/archive/get", nil),
		}
	}
	r1, err := s.opArchiveGet(mkReq())
	if err != nil {
		t.Fatal(err)
	}
	want := append([]byte(nil), r1.body...)
	for i := range r1.body {
		r1.body[i] ^= 0xFF
	}
	r2, err := s.opArchiveGet(mkReq())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(r2.body, want) {
		t.Fatal("mutating a downloaded archive corrupted the cached blob (aliasing regression)")
	}
}

// TestArchiveConcurrentStorm hammers one tenant's archive with parallel puts
// (unique and conflicting), entry gets, and whole-archive downloads, on a
// data dir whose journal is compacted in the background every few puts, then
// restarts from that dir. Run under -race in CI; correctness here is "every
// response is one of the documented statuses and acknowledged data reads
// back intact", before and after the restart.
func TestArchiveConcurrentStorm(t *testing.T) {
	dir := t.TempDir()
	s, ts := newTestServer(t, Config{DataDir: dir, CompactEvery: 7})
	hdr := map[string]string{HeaderTenant: "storm"}
	const workers = 8
	const steps = 12
	var wg sync.WaitGroup
	errs := make(chan error, workers*steps*4)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < steps; i++ {
				name := fmt.Sprintf("w%d", w)
				payload := testData(500, int64(w*1000+i))
				url := fmt.Sprintf("%s/v1/archive/put?name=%s&step=%d", ts.URL, name, i)
				resp, body := post(t, url, payload, hdr)
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("put %s@%d: %d %s", name, i, resp.StatusCode, body)
					return
				}
				// A racing duplicate must conflict, never double-insert.
				resp, _ = post(t, url, payload, hdr)
				if resp.StatusCode != http.StatusConflict {
					errs <- fmt.Errorf("dup put %s@%d: %d, want 409", name, i, resp.StatusCode)
					return
				}
				// Entry readback is byte-identical.
				req, _ := http.NewRequest(http.MethodGet,
					fmt.Sprintf("%s/v1/archive/get?name=%s&step=%d", ts.URL, name, i), nil)
				req.Header.Set(HeaderTenant, "storm")
				r2, err := http.DefaultClient.Do(req)
				if err != nil {
					errs <- err
					return
				}
				got := make([]byte, 0, len(payload))
				buf := make([]byte, 32*1024)
				for {
					n, rerr := r2.Body.Read(buf)
					got = append(got, buf[:n]...)
					if rerr != nil {
						break
					}
				}
				r2.Body.Close()
				if r2.StatusCode != http.StatusOK || !bytes.Equal(got, payload) {
					errs <- fmt.Errorf("get %s@%d: status %d, %d bytes", name, i, r2.StatusCode, len(got))
					return
				}
				// Whole-archive download stays decodable mid-storm.
				if i%4 == 0 {
					req, _ := http.NewRequest(http.MethodGet, ts.URL+"/v1/archive/get", nil)
					req.Header.Set(HeaderTenant, "storm")
					r3, err := http.DefaultClient.Do(req)
					if err != nil {
						errs <- err
						return
					}
					r3.Body.Close()
					if r3.StatusCode != http.StatusOK {
						errs <- fmt.Errorf("download at w%d/%d: %d", w, i, r3.StatusCode)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if t.Failed() {
		return
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	s2, ts2 := newTestServer(t, Config{DataDir: dir, CompactEvery: 7})
	if rec := s2.Recovery(); len(rec.Tenants) != 1 || rec.Tenants[0].Entries() != workers*steps {
		t.Fatalf("recovery: %s", rec.Summary())
	}
	for w := 0; w < workers; w++ {
		for i := 0; i < steps; i++ {
			resp, got := getAs(t, fmt.Sprintf("%s/v1/archive/get?name=w%d&step=%d", ts2.URL, w, i), "storm")
			if resp.StatusCode != http.StatusOK || !bytes.Equal(got, testData(500, int64(w*1000+i))) {
				t.Fatalf("w%d@%d after restart: %d, %d bytes", w, i, resp.StatusCode, len(got))
			}
		}
	}
	resp, blob := getAs(t, ts2.URL+"/v1/archive/get", "storm")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("download after restart: %d", resp.StatusCode)
	}
	rd, err := archive.NewReader(bytes.NewReader(blob), int64(len(blob)))
	if err != nil || rd.NumEntries() != workers*steps {
		t.Fatalf("download after restart: %v", err)
	}
}

// TestArchivePutDuringDrain: once Drain begins, archive puts are refused at
// the drain gate with 503 before they can reach the (closing) store.
func TestArchivePutDuringDrain(t *testing.T) {
	s, ts := newTestServer(t, Config{DataDir: t.TempDir()})
	hdr := map[string]string{HeaderTenant: "acme"}
	resp, body := post(t, ts.URL+"/v1/archive/put?name=temp&step=0", testData(1_000, 3), hdr)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pre-drain put: %d %s", resp.StatusCode, body)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	resp, _ = post(t, ts.URL+"/v1/archive/put?name=temp&step=1", testData(1_000, 4), hdr)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("put during drain: %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("503 without Retry-After")
	}
}

// TestArchiveSurvivesRestart: acknowledged puts live through a clean
// stop/start cycle on the same data dir and read back byte-identical.
func TestArchiveSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	s1, err := New(Config{DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(s1.Handler())
	hdr := map[string]string{HeaderTenant: "acme"}
	payloads := map[int][]byte{}
	for i := 0; i < 5; i++ {
		payloads[i] = testData(1_000+i, int64(i))
		resp, body := post(t, fmt.Sprintf("%s/v1/archive/put?name=rho&step=%d", ts1.URL, i), payloads[i], hdr)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("put %d: %d %s", i, resp.StatusCode, body)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	if err := s1.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	cancel()
	ts1.Close()

	s2, ts2 := newTestServer(t, Config{DataDir: dir})
	if rec := s2.Recovery(); len(rec.Tenants) != 1 || rec.Tenants[0].Entries() != 5 {
		t.Fatalf("recovery: %s", rec.Summary())
	}
	for i, payload := range payloads {
		req, _ := http.NewRequest(http.MethodGet, fmt.Sprintf("%s/v1/archive/get?name=rho&step=%d", ts2.URL, i), nil)
		req.Header.Set(HeaderTenant, "acme")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		var got bytes.Buffer
		got.ReadFrom(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("get rho@%d after restart: %d", i, resp.StatusCode)
		}
		if !bytes.Equal(got.Bytes(), payload) {
			t.Fatalf("rho@%d not byte-identical after restart", i)
		}
	}
}
