package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
)

// worseBy is how much worse b is than a, as a share of a, in the metric's
// own direction; negative when b is better.
func worseBy(m metric, a, b float64) float64 {
	if m.Better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// endToEndOf lists the end-to-end metrics that apply to w, failed_share
// excepted: it is a count, compared exactly.
func endToEndOf(w workload) []metric {
	var out []metric
	for _, m := range endToEnd {
		if m.Scope.applies(w) && m.Name != "failed_share" {
			out = append(out, m)
		}
	}
	return out
}

// agree is the A/A check: two runs of the same code must agree on every
// end-to-end metric within that metric's own bound. It records the observed
// difference as the report's noise.
func (r *report) agree(again *report, w io.Writer) error {
	var errs []error
	r.Noise = map[string]map[string]float64{}
	fmt.Fprintln(w, "== A/A: two runs of the same code")
	for _, wl := range workloads {
		a, b := r.Workloads[wl.Name], again.Workloads[wl.Name]
		r.Noise[wl.Name] = map[string]float64{}
		for _, m := range endToEndOf(wl) {
			x, y := a.EndToEnd[m.Name].Value, b.EndToEnd[m.Name].Value
			d := math.Abs(x-y) / x
			r.Noise[wl.Name][m.Name] = d
			verdict := "agree"
			if d > m.Bound {
				verdict = "DISAGREE"
				errs = append(errs, fmt.Errorf("A/A: %s %s differs by %.2f%%, bound %.2f%%", wl.Name, m.Name, 100*d, 100*m.Bound))
			}
			fmt.Fprintf(w, "%-12s %-24s %12.6g %12.6g  %6.2f%% of the first, bound %5.2f%%  %s\n",
				wl.Name, m.Name, x, y, 100*d, 100*m.Bound, verdict)
		}
		for k, v := range a.Counts {
			if b.Counts[k] != v {
				errs = append(errs, fmt.Errorf("A/A: %s count %s did not repeat: %v then %v", wl.Name, k, v, b.Counts[k]))
			}
		}
	}
	return errors.Join(errs...)
}

func readReport(path string) (*report, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r report
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// compareReports prints, per workload and end-to-end metric, old, new, the
// change as a share of old, the bound, and a verdict; then the per-layer
// changes without one. It reports whether anything got worse.
func compareReports(w io.Writer, oldPath, newPath string) (worse bool, err error) {
	o, err := readReport(oldPath)
	if err != nil {
		return false, err
	}
	n, err := readReport(newPath)
	if err != nil {
		return false, err
	}
	if o.Host != n.Host {
		fmt.Fprintf(w, "warning: the two reports come from different hosts or commits:\n  old %+v\n  new %+v\n", o.Host, n.Host)
	}
	for _, wl := range workloads {
		a, b := o.Workloads[wl.Name], n.Workloads[wl.Name]
		if a == nil || b == nil {
			fmt.Fprintf(w, "== %s: missing from one report\n", wl.Name)
			continue
		}
		fmt.Fprintf(w, "== %s\n%-26s %12s %12s %22s %8s  %s\n", wl.Name, "end to end", "old", "new", "change (share of old)", "bound", "verdict")
		for _, m := range endToEndOf(wl) {
			x, okx := a.EndToEnd[m.Name]
			y, oky := b.EndToEnd[m.Name]
			if !okx || !oky {
				continue
			}
			d := worseBy(m, x.Value, y.Value)
			verdict := "unchanged"
			switch {
			case (x.P75-x.P25)/x.Value > m.Bound || (y.P75-y.P25)/y.Value > m.Bound:
				verdict = "unresolved" // a side's own spread is wider than the bound
			case d > m.Bound:
				verdict, worse = "worse", true
			case d < -m.Bound:
				verdict = "better"
			}
			fmt.Fprintf(w, "%-26s %12.6g %12.6g %+21.2f%% %7.2f%%  %s\n", m.Name, x.Value, y.Value,
				100*(y.Value-x.Value)/x.Value, 100*m.Bound, verdict)
		}
		fa, fb := float64(a.Failed)/float64(a.Attempted), float64(b.Failed)/float64(b.Attempted)
		verdict := "unchanged"
		if fb > fa {
			verdict, worse = "worse", true
		}
		fmt.Fprintf(w, "%-26s %12.6g %12.6g %22s %8s  %s\n", "failed_share", fa, fb, "", "0", verdict)
		fmt.Fprintf(w, "%-42s %12s %12s %22s\n", "per layer", "old", "new", "change (share of old)")
		for _, name := range orderedNames(b.PerLayer) {
			x, ok := a.PerLayer[name]
			if !ok {
				continue
			}
			y := b.PerLayer[name]
			change := "n/a (old is 0)"
			if x.Value != 0 {
				change = fmt.Sprintf("%+.2f%%", 100*(y.Value-x.Value)/x.Value)
			}
			fmt.Fprintf(w, "%-42s %12.6g %12.6g %22s\n", name, x.Value, y.Value, change)
		}
	}
	return worse, nil
}

// writeManifest prints BENCHMARK.json, generated from the benchmark's tables.
func writeManifest(w io.Writer, runSeconds int) error {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	m := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []wl     `json:"workloads"`
		EndToEnd   []e2e    `json:"end_to_end"`
		PerLayer   []layer  `json:"per_layer"`
	}{Command: []string{"bash", "bench/run.sh"}, Paths: []string{"bench"}, RunSeconds: runSeconds}
	for _, x := range workloads {
		m.Workloads = append(m.Workloads, wl{x.Name, x.Why})
	}
	for _, x := range manifestEndToEnd() {
		m.EndToEnd = append(m.EndToEnd, e2e{x.Name, x.Unit, x.Better, x.Bound})
	}
	for _, x := range manifestPerLayer() {
		m.PerLayer = append(m.PerLayer, layer{x.Name, x.Unit, x.Better})
	}
	b, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}
