package telemetry

import (
	"fmt"
	"strings"
	"sync"
	"testing"
)

func TestCounterVecBasics(t *testing.T) {
	r := NewRegistry()
	cv := r.CounterVec("reqs_total", "Requests.", []string{"route", "tenant"})
	cv.With("compress", "acme").Add(3)
	cv.With("compress", "acme").Inc()
	cv.With("compress", "beta").Inc()
	cv.With("decompress", "acme").Inc()

	snap := r.Snapshot()
	if got := snap.LabeledCounterSum("reqs_total"); got != 6 {
		t.Fatalf("family sum = %d, want 6", got)
	}
	if got := snap.LabeledCounterSum("reqs_total", LabelPair{"route", "compress"}); got != 5 {
		t.Fatalf("route=compress sum = %d, want 5", got)
	}
	if got := snap.LabeledCounterSum("reqs_total", LabelPair{"route", "compress"}, LabelPair{"tenant", "acme"}); got != 4 {
		t.Fatalf("compress/acme = %d, want 4", got)
	}
	if len(snap.LabeledCounters) != 3 {
		t.Fatalf("children = %d, want 3", len(snap.LabeledCounters))
	}
	// Same family handed back on re-registration.
	if again := r.CounterVec("reqs_total", "Requests.", []string{"route", "tenant"}); again != cv {
		t.Fatalf("re-registration returned a different vector")
	}
}

func TestGaugeVecBasics(t *testing.T) {
	r := NewRegistry()
	gv := r.GaugeVec("queue_depth", "Depth.", []string{"tenant"})
	gv.With("acme").Set(7)
	gv.With("acme").Add(-2)
	gv.With("beta").Set(1)

	snap := r.Snapshot()
	want := map[string]int64{"acme": 5, "beta": 1}
	for _, g := range snap.LabeledGauges {
		if g.Name != "queue_depth" {
			continue
		}
		if got := want[g.Labels[0].Value]; g.Value != got {
			t.Fatalf("tenant %s = %d, want %d", g.Labels[0].Value, g.Value, got)
		}
		delete(want, g.Labels[0].Value)
	}
	if len(want) != 0 {
		t.Fatalf("missing children: %v", want)
	}
}

func TestHistogramVecBasics(t *testing.T) {
	r := NewRegistry()
	hv := r.HistogramVec("lat_seconds", "Latency.", []string{"route"}, []float64{0.1, 1})
	hv.With("compress").Observe(0.05)
	hv.With("compress").Observe(0.5)
	hv.With("get").Observe(2)

	snap := r.Snapshot()
	if len(snap.LabeledHistograms) != 2 {
		t.Fatalf("children = %d, want 2", len(snap.LabeledHistograms))
	}
	for _, h := range snap.LabeledHistograms {
		switch h.Labels[0].Value {
		case "compress":
			if h.Count != 2 || h.Sum != 0.55 {
				t.Fatalf("compress count=%d sum=%v", h.Count, h.Sum)
			}
		case "get":
			if h.Count != 1 || h.Counts[2] != 1 {
				t.Fatalf("get count=%d overflow=%d", h.Count, h.Counts[2])
			}
		}
	}
}

func TestVecLabelArityPanics(t *testing.T) {
	r := NewRegistry()
	cv := r.CounterVec("arity_total", "", []string{"a", "b"})
	defer func() {
		if recover() == nil {
			t.Fatalf("wrong label count did not panic")
		}
	}()
	cv.With("only-one").Inc()
}

func TestVecKindMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.CounterVec("mixed_total", "", []string{"a"})
	defer func() {
		if recover() == nil {
			t.Fatalf("re-registering as a different kind did not panic")
		}
	}()
	r.GaugeVec("mixed_total", "", []string{"a"})
}

// TestVecNilSafety: every vector method on nil handles is a no-op, and the
// disabled path stays zero-alloc (the acceptance bar for leaving
// instrumentation calls in hot paths when telemetry is off).
func TestVecNilSafety(t *testing.T) {
	var r *Registry
	cv := r.CounterVec("x_total", "", []string{"a"})
	gv := r.GaugeVec("x", "", []string{"a"})
	hv := r.HistogramVec("x_seconds", "", []string{"a"}, nil)
	if cv != nil || gv != nil || hv != nil {
		t.Fatalf("nil registry handed out non-nil vectors")
	}
	cv.With("t").Inc()
	gv.With("t").Set(1)
	hv.With("t").Observe(1)

	if n := testing.AllocsPerRun(200, func() {
		cv.With("tenant-a").Add(1)
		gv.With("tenant-a").Set(2)
		hv.With("tenant-a").Observe(0.5)
	}); n != 0 {
		t.Fatalf("disabled vector path allocates %v per run, want 0", n)
	}
}

// TestVecTenantStorm: 1000 distinct tenant values must not create 1000
// children — per-label interning collapses the tail into "other", keeping
// total cardinality bounded while conserving the overall count.
func TestVecTenantStorm(t *testing.T) {
	r := NewRegistry()
	cv := r.CounterVec("storm_total", "", []string{"route", "tenant"})
	const tenants = 1000
	for i := 0; i < tenants; i++ {
		cv.With("compress", fmt.Sprintf("tenant-%04d", i)).Inc()
	}
	snap := r.Snapshot()
	children := 0
	var otherSum int64
	for _, c := range snap.LabeledCounters {
		if c.Name != "storm_total" {
			continue
		}
		children++
		if c.Labels[1].Value == OverflowLabel {
			otherSum += c.Value
		}
	}
	if children > DefMaxLabelValues+1 {
		t.Fatalf("storm grew %d children, want <= %d", children, DefMaxLabelValues+1)
	}
	if otherSum != tenants-DefMaxLabelValues {
		t.Fatalf("overflow bucket = %d, want %d", otherSum, tenants-DefMaxLabelValues)
	}
	if got := snap.LabeledCounterSum("storm_total"); got != tenants {
		t.Fatalf("total conserved = %d, want %d", got, tenants)
	}
}

// TestVecChildCap: the total-children bound routes novel tuples into the
// all-"other" child even when each label value is individually fresh enough
// to intern.
func TestVecChildCap(t *testing.T) {
	r := NewRegistry()
	cv := r.CounterVec("cap_total", "", []string{"a", "b"})
	// Every pair of DefMaxLabelValues values per label: each value interns,
	// and there are more tuples than DefMaxChildren.
	tuples := 0
	for i := 0; i < DefMaxLabelValues; i++ {
		for j := 0; j < DefMaxLabelValues; j++ {
			cv.With(fmt.Sprintf("a%d", i), fmt.Sprintf("b%d", j)).Inc()
			tuples++
		}
	}
	snap := r.Snapshot()
	children := 0
	var other int64
	for _, c := range snap.LabeledCounters {
		if c.Name != "cap_total" {
			continue
		}
		children++
		if c.Labels[0].Value == OverflowLabel && c.Labels[1].Value == OverflowLabel {
			other = c.Value
		}
	}
	if children != DefMaxChildren+1 { // the admitted + the all-other child
		t.Fatalf("children = %d, want %d", children, DefMaxChildren+1)
	}
	if want := int64(tuples - DefMaxChildren); other != want {
		t.Fatalf("all-other child = %d, want %d", other, want)
	}
}

// TestVecKeyAliasing: label values that would collide under naive joining
// ("a","bc" vs "ab","c") must stay distinct children.
func TestVecKeyAliasing(t *testing.T) {
	r := NewRegistry()
	cv := r.CounterVec("alias_total", "", []string{"x", "y"})
	cv.With("a", "bc").Inc()
	cv.With("ab", "c").Inc()
	cv.With("a:b", "c").Inc()
	snap := r.Snapshot()
	n := 0
	for _, c := range snap.LabeledCounters {
		if c.Name == "alias_total" {
			n++
		}
	}
	if n != 3 {
		t.Fatalf("aliasing collapsed children: got %d, want 3", n)
	}
}

func TestVecConcurrentHammer(t *testing.T) {
	r := NewRegistry()
	cv := r.CounterVec("ham_total", "", []string{"w"})
	hv := r.HistogramVec("ham_seconds", "", []string{"w"}, []float64{1})
	var wg sync.WaitGroup
	const workers, per = 8, 500
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			lbl := fmt.Sprintf("w%d", w%3)
			for i := 0; i < per; i++ {
				cv.With(lbl).Inc()
				hv.With(lbl).Observe(0.5)
			}
		}(w)
	}
	wg.Wait()
	snap := r.Snapshot()
	if got := snap.LabeledCounterSum("ham_total"); got != workers*per {
		t.Fatalf("hammer sum = %d, want %d", got, workers*per)
	}
	var hsum int64
	for _, h := range snap.LabeledHistograms {
		if h.Name == "ham_seconds" {
			hsum += h.Count
		}
	}
	if hsum != workers*per {
		t.Fatalf("histogram hammer count = %d, want %d", hsum, workers*per)
	}
}

// TestVecPrometheusExposition: labeled families render one HELP/TYPE header
// per family, children carry label sets, and awkward label values round-trip
// through the format's escapes.
func TestVecPrometheusExposition(t *testing.T) {
	r := NewRegistry()
	cv := r.CounterVec("exp_total", "Requests with \"quotes\",\nbackslash \\ and newline.", []string{"tenant"})
	cv.With(`quo"te`).Inc()
	cv.With("back\\slash").Add(2)
	cv.With("new\nline").Add(3)
	hv := r.HistogramVec("exp_seconds", "Latency.", []string{"route"}, []float64{0.5})
	hv.With("compress").Observe(0.25)

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE exp_total counter",
		`exp_total{tenant="quo\"te"} 1`,
		`exp_total{tenant="back\\slash"} 2`,
		`exp_total{tenant="new\nline"} 3`,
		"# HELP exp_total Requests with \"quotes\",\\nbackslash \\\\ and newline.",
		"# TYPE exp_seconds histogram",
		`exp_seconds_bucket{route="compress",le="0.5"} 1`,
		`exp_seconds_bucket{route="compress",le="+Inf"} 1`,
		`exp_seconds_sum{route="compress"} 0.25`,
		`exp_seconds_count{route="compress"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q in:\n%s", want, out)
		}
	}
	if n := strings.Count(out, "# TYPE exp_total counter"); n != 1 {
		t.Fatalf("TYPE header for exp_total emitted %d times, want 1", n)
	}
}
