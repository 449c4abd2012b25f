// Command bench is the repository's benchmark: four workloads over the codec
// and primacyd, the end-to-end metrics a caller sees measured with all
// tracing off, and a separate traced run that gets per-layer numbers from
// outside the program. See README.md in this directory.
//
// With -workload it is one run of the contract in BENCHMARK.json: it prints
// the metric table and, as the last line of standard output, one JSON object.
// Without it, it runs every workload untraced and traced, each in a child
// process of its own, and writes the full report.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
)

func main() {
	removeTempDirsOnSignal()
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	quick    bool
	outDir   string
	out      string
	repeat   int
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	fs.StringVar(&o.workload, "workload", "", "run this one workload (default: all, each untraced and traced)")
	fs.Int64Var(&o.seed, "seed", 1, "offsets every dataset generator seed and seeds the request schedule")
	fs.Float64Var(&o.seconds, "seconds", 15, "how long the timed phase of an untraced run measures")
	fs.IntVar(&o.trace, "trace", 0, "1: the traced run, which reports the per-layer metrics")
	fs.BoolVar(&o.quick, "quick", false, "tiny corpus and counts, for the smoke test")
	fs.StringVar(&o.outDir, "outdir", filepath.Join("bench", "out"), "directory for traces, run details and temporary data")
	fs.StringVar(&o.out, "out", "", "write the full report here (default <outdir>/report.json)")
	fs.IntVar(&o.repeat, "repeat", 1, "run the whole set this many times on the same code and check that the runs agree")
	compare := fs.Bool("compare", false, "compare two reports: bench -compare OLD NEW")
	manifest := fs.Bool("manifest", false, "print BENCHMARK.json as generated from the benchmark's tables")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var err error
	switch {
	case *manifest:
		err = writeManifest(stdout, int(o.seconds))
	case *compare:
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -compare takes two report files: OLD NEW")
			return 2
		}
		var worse bool
		if worse, err = compareReports(stdout, fs.Arg(0), fs.Arg(1)); err == nil && worse {
			return 1
		}
	case o.workload != "":
		err = runOne(o, stdout)
	default:
		err = runAll(o, stdout, stderr)
	}
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	return 0
}

// detail is what one child run leaves in the out directory for the parent.
type detail struct {
	Workload  string             `json:"workload"`
	Trace     int                `json:"trace"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Metrics   map[string]sample  `json:"metrics"`
	Counts    map[string]float64 `json:"counts"`
	Notes     []string           `json:"notes,omitempty"`
}

func detailPath(outDir, workload string, trace int) string {
	return filepath.Join(outDir, fmt.Sprintf("%s.trace%d.json", workload, trace))
}

// measure runs one workload in this process.
func measure(o options) (*runResult, error) {
	w, ok := workloadByName(o.workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", o.workload)
	}
	sz := fullSizes
	if o.quick {
		sz = quickSizes
	}
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return nil, err
	}
	workers := defaultWorkers()
	switch {
	case w.Served && o.trace == 1:
		return traceServed(w, sz, o.seed, o.seconds, workers, o.outDir)
	case w.Served:
		return runServed(w, sz, o.seed, o.seconds, workers, o.outDir)
	case o.trace == 1:
		return traceCodec(w, sz, o.seed, workers, o.outDir)
	}
	return runCodec(w, sz, o.seed, o.seconds, workers)
}

// resultLine is the last line of a contract run's standard output.
type resultLine struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]lineMetric `json:"metrics"`
}

type lineMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runOne is one run of the contract: table, detail file, result line.
func runOne(o options, stdout io.Writer) error {
	res, err := measure(o)
	if err != nil {
		return err
	}
	w, _ := workloadByName(o.workload)
	listed := manifestEndToEnd()
	if o.trace == 1 {
		listed = manifestPerLayer()
	}
	line := resultLine{Correct: res.Failed == 0, Attempted: res.Attempted, Failed: res.Failed, Metrics: map[string]lineMetric{}}
	for _, m := range listed {
		s, ok := res.Metrics[m.Name]
		if !ok && o.trace == 0 {
			return fmt.Errorf("%s did not report %s", w.Name, m.Name)
		}
		// The traced line must carry every per-layer name; a layer that is
		// not on this workload's path reads 0 there.
		line.Metrics[m.Name] = lineMetric{s.Value, m.Unit}
	}
	for name, s := range res.Metrics {
		if math.IsNaN(s.Value) || math.IsInf(s.Value, 0) {
			return fmt.Errorf("%s: %s is %v", w.Name, name, s.Value)
		}
	}
	printTable(stdout, w.Name, o.trace, res.Metrics, res.Notes)
	d := detail{Workload: w.Name, Trace: o.trace, Attempted: res.Attempted, Failed: res.Failed,
		Metrics: res.Metrics, Counts: res.Counts, Notes: res.Notes}
	if err := writeJSON(detailPath(o.outDir, w.Name, o.trace), d); err != nil {
		return err
	}
	b, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(stdout, "%s\n", b)
	return err
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// orderedNames lists the metrics of m in table order: the benchmark's own
// order first, anything else alphabetically after.
func orderedNames(m map[string]sample) []string {
	var names []string
	seen := map[string]bool{}
	for _, list := range [][]metric{endToEnd, manifestPerLayer()} {
		for _, spec := range list {
			if _, ok := m[spec.Name]; ok && !seen[spec.Name] {
				names = append(names, spec.Name)
				seen[spec.Name] = true
			}
		}
	}
	var rest []string
	for name := range m {
		if !seen[name] {
			rest = append(rest, name)
		}
	}
	sort.Strings(rest)
	return append(names, rest...)
}

func printTable(w io.Writer, workload string, trace int, m map[string]sample, notes []string) {
	kind := "end to end, tracing off"
	if trace == 1 {
		kind = "per layer, traced run"
	}
	fmt.Fprintf(w, "== %s (%s)\n", workload, kind)
	for _, name := range orderedNames(m) {
		s := m[name]
		fmt.Fprintf(w, "%-42s %14.6g %-6s", name, s.Value, s.Unit)
		if s.N > 1 {
			fmt.Fprintf(w, "  p25 %.6g  p75 %.6g  n %d", s.P25, s.P75, s.N)
		}
		fmt.Fprintln(w)
	}
	for _, n := range notes {
		fmt.Fprintf(w, "note: %s\n", n)
	}
}

// unitOf looks a metric's unit up in the benchmark's tables.
func unitOf(name string) string {
	for _, list := range [][]metric{endToEnd, manifestPerLayer()} {
		for _, m := range list {
			if m.Name == name {
				return m.Unit
			}
		}
	}
	return ""
}

// workloadReport is one workload's part of the full report.
type workloadReport struct {
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	EndToEnd  map[string]sample  `json:"end_to_end"`
	PerLayer  map[string]sample  `json:"per_layer"`
	Counts    map[string]float64 `json:"counts"`
	Notes     []string           `json:"notes,omitempty"`
}

// report is the full record of one invocation: what -compare reads and what
// bench/reference.json holds for the reference box.
type report struct {
	Seed      int64                         `json:"seed"`
	Seconds   float64                       `json:"seconds"`
	Quick     bool                          `json:"quick,omitempty"`
	Host      hostFacts                     `json:"host"`
	Limits    map[string]map[string]float64 `json:"latency_limits_ms"`
	Workloads map[string]*workloadReport    `json:"workloads"`
	// Noise is the relative difference between two runs of the same code
	// (-repeat 2), per workload and end-to-end metric.
	Noise map[string]map[string]float64 `json:"noise,omitempty"`
}

// runSet runs every workload untraced and traced, each in a child process so
// that peak memory and garbage-collector state do not leak between them.
func runSet(o options, stdout, stderr io.Writer) (*report, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return nil, err
	}
	rep := &report{Seed: o.seed, Seconds: o.seconds, Quick: o.quick,
		Host: readHost(defaultWorkers(), o.outDir), Limits: map[string]map[string]float64{},
		Workloads: map[string]*workloadReport{}}
	for _, w := range workloads {
		rep.Limits[w.Name] = w.Limits
		wr := &workloadReport{Counts: map[string]float64{}}
		rep.Workloads[w.Name] = wr
		for trace := 0; trace <= 1; trace++ {
			args := []string{"-workload", w.Name, "-seed", fmt.Sprint(o.seed), "-seconds", fmt.Sprint(o.seconds),
				"-trace", fmt.Sprint(trace), "-outdir", o.outDir}
			if o.quick {
				args = append(args, "-quick")
			}
			cmd := exec.Command(self, args...)
			cmd.Stdout, cmd.Stderr = stdout, stderr
			if err := cmd.Run(); err != nil {
				return nil, fmt.Errorf("%s (trace %d): %w", w.Name, trace, err)
			}
			var d detail
			b, err := os.ReadFile(detailPath(o.outDir, w.Name, trace))
			if err != nil {
				return nil, err
			}
			if err := json.Unmarshal(b, &d); err != nil {
				return nil, err
			}
			wr.Attempted += d.Attempted
			wr.Failed += d.Failed
			wr.Notes = append(wr.Notes, d.Notes...)
			for k, v := range d.Counts {
				wr.Counts[k] = v
			}
			if trace == 0 {
				wr.EndToEnd = d.Metrics
			} else {
				wr.PerLayer = d.Metrics
			}
		}
	}
	return rep, nil
}

// check applies the reference-run rules: nothing failed, and the replay
// accounts for the time core spends.
func (r *report) check() error {
	var errs []error
	for _, w := range workloads {
		wr := r.Workloads[w.Name]
		if wr.Failed != 0 {
			errs = append(errs, fmt.Errorf("%s: %d of %d operations failed", w.Name, wr.Failed, wr.Attempted))
		}
		for _, name := range []string{"core.replay_closure", "core.replay_closure_decompress"} {
			if s, ok := wr.PerLayer[name]; ok && !r.Quick && (s.Value < 0.90 || s.Value > 1.10) {
				errs = append(errs, fmt.Errorf("%s: %s = %.3f, outside [0.90, 1.10]", w.Name, name, s.Value))
			}
		}
	}
	return errors.Join(errs...)
}

func runAll(o options, stdout, stderr io.Writer) error {
	rep, err := runSet(o, stdout, stderr)
	if err != nil {
		return err
	}
	errs := []error{rep.check()}
	for i := 1; i < o.repeat; i++ {
		again, err := runSet(o, stdout, stderr)
		if err != nil {
			return err
		}
		errs = append(errs, again.check(), rep.agree(again, stdout))
	}
	out := o.out
	if out == "" {
		out = filepath.Join(o.outDir, "report.json")
	}
	if err := writeJSON(out, rep); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "report written to %s\n", out)
	return errors.Join(errs...)
}
