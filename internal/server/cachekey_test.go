package server

import (
	"bytes"
	"net/http"
	"sort"
	"testing"

	"primacy/internal/checksum"
	"primacy/internal/core"
)

// TestCompressBytesIdenticalAcrossWorkerCounts is the regression test backing
// the cache-key fix: compressed output must not depend on the configured
// worker count, so dropping Workers from the result-cache key can never serve
// bytes another worker config would not have produced.
func TestCompressBytesIdenticalAcrossWorkerCounts(t *testing.T) {
	raw := testData(30_000, 11)
	var want []byte
	for i, w := range []int{1, 2, 4, 9} {
		_, ts := newTestServer(t, Config{Workers: w, ChunkBytes: 16 * 1024})
		resp, enc := post(t, ts.URL+"/v1/compress", raw, nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("workers=%d: compress: %d %s", w, resp.StatusCode, enc)
		}
		if i == 0 {
			want = enc
			continue
		}
		if !bytes.Equal(enc, want) {
			t.Fatalf("workers=%d produced different container bytes than workers=1", w)
		}
	}
}

// TestCompressCacheKeyOmitsWorkers pins the key shape: two keys for the same
// body and options are equal by construction (no worker component), so a
// worker-config change cannot orphan warm entries.
func TestCompressCacheKeyOmitsWorkers(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	body := testData(100, 3)
	opts := core.Options{Solver: "zlib", ChunkBytes: 4096}
	if s.cacheKey("c", opts, body) != s.cacheKey("c", opts, body) {
		t.Fatal("cache key is not a pure function of op, options, and content")
	}
}

// crcTwin returns a body of the same length and CRC32C as body that differs
// from it in some of its first 64 bits. CRC is affine over GF(2): the CRC
// change of flipping a set of bits is the XOR of the changes of flipping
// each, so a set whose changes XOR to zero — a dependency among the 32-bit
// change vectors of single-bit flips, found by elimination — leaves the CRC
// as it was.
func crcTwin(t *testing.T, body []byte) []byte {
	t.Helper()
	zero := make([]byte, len(body))
	base := checksum.Sum(zero)
	// basis holds reduced change vectors with distinct leading bits, kept
	// in descending order, each with the set of flips that produces it.
	type row struct {
		v    uint32
		bits uint64
	}
	var basis []row
	for bit := 0; bit < 64; bit++ {
		zero[bit/8] ^= 1 << (bit % 8)
		r := row{checksum.Sum(zero) ^ base, 1 << bit}
		zero[bit/8] ^= 1 << (bit % 8)
		for _, b := range basis {
			if r.v^b.v < r.v { // r.v has b's leading bit
				r.v ^= b.v
				r.bits ^= b.bits
			}
		}
		if r.v == 0 {
			twin := append([]byte(nil), body...)
			for i := 0; i < 64; i++ {
				if r.bits&(1<<i) != 0 {
					twin[i/8] ^= 1 << (i % 8)
				}
			}
			return twin
		}
		basis = append(basis, r)
		sort.Slice(basis, func(i, j int) bool { return basis[i].v > basis[j].v })
	}
	t.Fatal("no CRC-preserving flip set among 64 bits")
	return nil
}

// TestCacheKeySeparatesEqualCRCBodies: two distinct bodies of one length and
// one CRC32C each get their own compress result, and each container
// decompresses to its own body.
func TestCacheKeySeparatesEqualCRCBodies(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	a := testData(2_000, 17)
	b := crcTwin(t, a)
	if bytes.Equal(a, b) || len(a) != len(b) || checksum.Sum(a) != checksum.Sum(b) {
		t.Fatal("crcTwin did not build a distinct equal-CRC body")
	}
	for _, body := range [][]byte{a, b} {
		resp, enc := post(t, ts.URL+"/v1/compress", body, nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("compress: %d %s", resp.StatusCode, enc)
		}
		if resp.Header.Get(HeaderCache) != "miss" {
			t.Fatalf("compress of a new body was a cache %s", resp.Header.Get(HeaderCache))
		}
		resp, dec := post(t, ts.URL+"/v1/decompress", enc, nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("decompress: %d %s", resp.StatusCode, dec)
		}
		if !bytes.Equal(dec, body) {
			t.Fatal("a body was served the result of its equal-CRC twin")
		}
	}
}

// TestDecompressCacheContentOnlyAcrossOptionVariants: the decompress cache is
// addressed by content alone, so two requests for the same container with
// different (irrelevant-to-decode) query options must share one entry AND
// both return the correct plaintext — a stale-hit collision would surface
// here as wrong bytes on the second variant.
func TestDecompressCacheContentOnlyAcrossOptionVariants(t *testing.T) {
	_, ts := newTestServer(t, Config{ChunkBytes: 8 * 1024})
	raw := testData(10_000, 5)
	resp, enc := post(t, ts.URL+"/v1/compress", raw, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("compress: %d %s", resp.StatusCode, enc)
	}

	resp, dec := post(t, ts.URL+"/v1/decompress?solver=lzo", enc, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("decompress variant 1: %d %s", resp.StatusCode, dec)
	}
	if resp.Header.Get(HeaderCache) != "miss" {
		t.Fatalf("variant 1 cache = %q, want miss", resp.Header.Get(HeaderCache))
	}
	if !bytes.Equal(dec, raw) {
		t.Fatal("variant 1 returned wrong plaintext")
	}

	resp, dec2 := post(t, ts.URL+"/v1/decompress?solver=bzlib", enc, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("decompress variant 2: %d %s", resp.StatusCode, dec2)
	}
	if resp.Header.Get(HeaderCache) != "hit" {
		t.Fatalf("variant 2 cache = %q, want hit (content-only key)", resp.Header.Get(HeaderCache))
	}
	if !bytes.Equal(dec2, raw) {
		t.Fatal("variant 2 served stale/wrong plaintext from the shared entry")
	}
}
