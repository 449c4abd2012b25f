package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
)

// None of these tests depends on how fast the box is: they check that the
// metrics exist and are well formed, that counts repeat, and the arithmetic
// of the statistics and of -compare.

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func quickRun(t *testing.T, workload string, trace int, seed int64) *runResult {
	t.Helper()
	res, err := measure(options{workload: workload, seed: seed, trace: trace, quick: true, outDir: t.TempDir()})
	if err != nil {
		t.Fatalf("%s trace %d: %v", workload, trace, err)
	}
	return res
}

func TestQuickSmoke(t *testing.T) {
	if len(workloads) != 4 {
		t.Fatalf("%d workloads, want 4", len(workloads))
	}
	for _, w := range workloads {
		for trace := 0; trace <= 1; trace++ {
			res := quickRun(t, w.Name, trace, 1)
			if res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace %d: %d of %d failed: %v", w.Name, trace, res.Failed, res.Attempted, res.Notes)
			}
			want := endToEnd
			if trace == 1 {
				want = manifestPerLayer()
			}
			for _, m := range want {
				applies := m.Scope.applies(w)
				s, ok := res.Metrics[m.Name]
				switch {
				case !applies && ok:
					t.Errorf("%s reports %s, which does not apply to it", w.Name, m.Name)
				case applies && !ok:
					// A tail needs twenty samples, and a speed-up two workers.
					if strings.HasSuffix(m.Name, "_tail_ms") || (strings.HasSuffix(m.Name, "_speedup") && defaultWorkers() == 1) {
						continue
					}
					t.Errorf("%s trace %d does not report %s", w.Name, trace, m.Name)
				case ok:
					if math.IsNaN(s.Value) || math.IsInf(s.Value, 0) {
						t.Errorf("%s %s = %v", w.Name, m.Name, s.Value)
					}
					if s.Unit == "" || s.Unit != m.Unit {
						t.Errorf("%s %s has unit %q, want %q", w.Name, m.Name, s.Unit, m.Unit)
					}
				}
			}
			for name := range res.Metrics {
				if !nameRE.MatchString(name) {
					t.Errorf("metric name %q", name)
				}
			}
			if trace == 0 {
				if v := res.Metrics["failed_share"].Value; v != 0 {
					t.Errorf("%s failed_share = %v", w.Name, v)
				}
				for _, m := range manifestEndToEnd() {
					if res.Metrics[m.Name].Value == 0 {
						t.Errorf("%s %s is 0; the contract wants metrics that never are", w.Name, m.Name)
					}
				}
			}
		}
	}
}

// TestServedHygiene checks that a served_mix run leaves no data directory
// behind and that the cache behaves as the schedule says it must.
func TestServedHygiene(t *testing.T) {
	dir := t.TempDir()
	res, err := measure(options{workload: "served_mix", seed: 1, trace: 1, quick: true, outDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if e.IsDir() {
			t.Errorf("run left directory %s behind", e.Name())
		}
	}
	if _, err := os.Stat(filepath.Join(dir, "served_mix.trace.jsonl")); err != nil {
		t.Errorf("no trace written: %v", err)
	}
	if got, want := res.Metrics["server.cache_hit_share"].Value, float64(blockHot)/blockRequests; got != want {
		t.Errorf("cache_hit_share = %v, want the hot-class share %v", got, want)
	}
}

func TestUnknownWorkloadRefused(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"-workload", "nope", "-outdir", t.TempDir()}, &out, &errOut); code == 0 {
		t.Fatal("unknown workload accepted")
	}
	if out.Len() != 0 {
		t.Errorf("printed a result for an unknown workload: %s", out.String())
	}
}

func TestDeterminism(t *testing.T) {
	a, b := quickRun(t, "hard_lzo", 1, 7), quickRun(t, "hard_lzo", 1, 7)
	if !reflect.DeepEqual(a.Counts, b.Counts) {
		t.Errorf("same seed, different counts:\n%v\n%v", a.Counts, b.Counts)
	}
	for _, k := range []string{"corpus_crc32c", "ratio", "freq.unique_seqs_per_chunk", "isobar.alpha2"} {
		if _, ok := a.Counts[k]; !ok {
			t.Errorf("count %s missing", k)
		}
	}
	if c := quickRun(t, "hard_lzo", 1, 8); c.Counts["corpus_crc32c"] == a.Counts["corpus_crc32c"] {
		t.Error("different seed, same corpus")
	}
	s1, s2 := quickRun(t, "served_mix", 0, 7), quickRun(t, "served_mix", 0, 7)
	if !reflect.DeepEqual(s1.Counts, s2.Counts) {
		t.Errorf("served_mix: same seed, different counts:\n%v\n%v", s1.Counts, s2.Counts)
	}
	p1, _ := makePayloads(64, 7)
	p2, _ := makePayloads(64, 8)
	if p1.crc == p2.crc {
		t.Error("served_mix: different seed, same payloads")
	}
}

func TestSchedule(t *testing.T) {
	if len(putGetPattern) != blockPut+blockGet || strings.Count(putGetPattern, "P") != blockPut {
		t.Fatalf("putGetPattern %q does not hold %d puts and %d gets", putGetPattern, blockPut, blockGet)
	}
	if blockPut != tenantPuts {
		t.Fatalf("a block holds %d puts but a tenant %d: blocks would differ", blockPut, tenantPuts)
	}
	for seed := int64(1); seed <= 3; seed++ {
		for client := 0; client < 4; client++ {
			s := blockSchedule(seed, client, 5)
			if !reflect.DeepEqual(s, blockSchedule(seed, client, 5)) {
				t.Fatal("schedule is not a function of its seed")
			}
			var n [numClasses]int
			putsSinceGet, puts := 0, 0
			for i, cl := range s {
				n[cl]++
				switch cl {
				case classPut:
					puts++
					putsSinceGet++
				case classGet:
					// The block's puts all go to the block's own tenant, so
					// a put earlier in the block is a put to the same tenant.
					if puts == 0 || putsSinceGet == 0 {
						t.Fatalf("seed %d client %d: get at %d without a put since the previous get", seed, client, i)
					}
					putsSinceGet = 0
				}
			}
			if n != [numClasses]int{blockNew, blockHot, blockDecomp, blockPut, blockGet} {
				t.Fatalf("class counts %v", n)
			}
		}
	}
	if reflect.DeepEqual(blockSchedule(1, 0, 0), blockSchedule(2, 0, 0)) {
		t.Error("different seeds, same schedule")
	}
}

func TestStats(t *testing.T) {
	xs := []float64{9, 1, 4, 7, 3, 8, 2, 10, 6, 5}
	if m := median(xs); m != 5.5 {
		t.Errorf("median = %v", m)
	}
	if m := median(xs[:3]); m != 4 {
		t.Errorf("odd median = %v", m)
	}
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	if q1, q3 := quartiles(xs); q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v", q1, q3)
	}
	// statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
	if q1, q3 := quartiles([]float64{16, 1, 8, 2, 4}); q1 != 1.5 || q3 != 12 {
		t.Errorf("quartiles = %v, %v", q1, q3)
	}
	if q1, q3 := quartiles([]float64{3}); q1 != 3 || q3 != 3 {
		t.Errorf("one value: %v, %v", q1, q3)
	}
	hundred := make([]float64, 100)
	for i := range hundred {
		hundred[i] = float64(100 - i)
	}
	if v, p, ok := tail(hundred); !ok || v != 90 || p != 0.90 {
		t.Errorf("tail of 1..100 = %v at %v, %v", v, p, ok)
	}
	if _, _, ok := tail(hundred[:19]); ok {
		t.Error("tail of 19 samples reported")
	}
	thousand := make([]float64, 2000)
	for i := range thousand {
		thousand[i] = float64(i + 1)
	}
	if v, p, ok := tail(thousand); !ok || v != 1980 || p != 0.99 {
		t.Errorf("tail of 1..2000 = %v at %v, %v", v, p, ok)
	}
	if g := stagedGain(1e12, 2, envMuWrite); math.Abs(g-2) > 1e-6 {
		t.Errorf("free compression at ratio 2 should double the staged throughput, got %v", g)
	}
}

// TestManifest holds the generated BENCHMARK.json to the contract's limits
// and the committed file to the generated one.
func TestManifest(t *testing.T) {
	var buf bytes.Buffer
	if err := writeManifest(&buf, 15); err != nil {
		t.Fatal(err)
	}
	var m struct {
		Command    []string
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(buf.Bytes(), &m); err != nil {
		t.Fatal(err)
	}
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
	}
	if n := len(m.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads", n)
	}
	for _, w := range m.Workloads {
		name(w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("%s: why is %d characters", w.Name, len(w.Why))
		}
	}
	if n := len(m.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics", n)
	}
	var setup, largest float64
	for _, e := range m.EndToEnd {
		name(e.Name)
		if !unitRE.MatchString(e.Unit) || (e.Better != "higher" && e.Better != "lower") || e.Bound <= 0 || e.Bound > 0.25 {
			t.Errorf("end-to-end %+v", e)
		}
		largest = math.Max(largest, e.Bound)
		if e.Name == "setup_s" && e.Unit == "s" && e.Better == "lower" {
			setup = e.Bound
		}
	}
	if setup == 0 || setup != largest {
		t.Errorf("setup_s must be present with the largest bound: %v of %v", setup, largest)
	}
	if n := len(m.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics", n)
	}
	for _, l := range m.PerLayer {
		name(l.Name)
		if !unitRE.MatchString(l.Unit) || (l.Better != "higher" && l.Better != "lower") {
			t.Errorf("per-layer %+v", l)
		}
	}
	if buf.Len() > 64<<10 {
		t.Errorf("manifest is %d bytes", buf.Len())
	}
	committed, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Skipf("no committed BENCHMARK.json beside bench/: %v", err)
	}
	var c struct {
		RunSeconds int `json:"run_seconds"`
	}
	if err := json.Unmarshal(committed, &c); err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	if err := writeManifest(&buf, c.RunSeconds); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), committed) {
		t.Error("BENCHMARK.json differs from `go run ./bench -manifest`; regenerate it")
	}
}

func TestCompare(t *testing.T) {
	mk := func(mbps, lo, hi, rss float64, failed int) *report {
		r := &report{Workloads: map[string]*workloadReport{}}
		for _, w := range workloads {
			wr := &workloadReport{Attempted: 100, Failed: failed, EndToEnd: map[string]sample{}, PerLayer: map[string]sample{
				"core.compress_ns_per_byte": exact(10, "ns/B"),
			}}
			for _, m := range endToEndOf(w) {
				wr.EndToEnd[m.Name] = exact(1, m.Unit)
			}
			wr.EndToEnd["compress_mbps"] = sample{Value: mbps, P25: lo, P75: hi, N: 11, Unit: "MB/s"}
			wr.EndToEnd["peak_rss_mb"] = exact(rss, "MB")
			r.Workloads[w.Name] = wr
		}
		return r
	}
	write := func(r *report) string {
		p := filepath.Join(t.TempDir(), "r.json")
		if err := writeJSON(p, r); err != nil {
			t.Fatal(err)
		}
		return p
	}
	base := write(mk(100, 99, 101, 500, 0))
	// The cases are placed by the table's own bounds, whatever they are.
	var speed, rss float64
	for _, m := range endToEnd {
		switch m.Name {
		case "compress_mbps":
			speed = 100 * m.Bound
		case "peak_rss_mb":
			rss = 500 * m.Bound
		}
	}
	cases := []struct {
		name    string
		new     *report
		verdict string
		worse   bool
	}{
		{"faster", mk(100+2*speed, 99+2*speed, 101+2*speed, 500, 0), "better", false},
		{"same", mk(100-speed/2, 99-speed/2, 101-speed/2, 500, 0), "unchanged", false},
		{"slower", mk(100-2*speed, 99-2*speed, 101-2*speed, 500, 0), "worse", true},
		{"noisy", mk(100-2*speed, 100-3*speed, 100, 500, 0), "unresolved", false},
		{"more memory", mk(100, 99, 101, 500+2*rss, 0), "worse", true},
		{"failures", mk(100, 99, 101, 500, 1), "worse", true},
	}
	for _, c := range cases {
		var out bytes.Buffer
		worse, err := compareReports(&out, base, write(c.new))
		if err != nil {
			t.Fatal(err)
		}
		if worse != c.worse || !strings.Contains(out.String(), c.verdict) {
			t.Errorf("%s: worse=%v, want %v and a %q verdict in:\n%s", c.name, worse, c.worse, c.verdict, out.String())
		}
	}
}
