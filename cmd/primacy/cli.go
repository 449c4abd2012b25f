package main

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	netpprof "net/http/pprof"
	"os"
	"time"

	"primacy"
	"primacy/internal/bytesplit"
	"primacy/internal/core"
)

// Exit codes (documented in -h): sysexits-style 64 for bad usage, 2 for
// detected corruption, 130 (128+SIGINT) for cancellation, 1 for any other
// failure.
const (
	exitOK        = 0
	exitFailure   = 1
	exitCorrupt   = 2
	exitUsage     = 64
	exitCancelled = 130
)

// usageText is printed for -h; flag defaults are appended by parseArgs.
const usageText = `usage:
  primacy -c [-solver zlib] [-chunk N] [-workers N] [-precond MODE] [-o out.prm] input.f64
  primacy -d [-salvage] [-workers N] [-o out.f64] input.prm
  primacy -stats input.f64
  primacy stats [-workers N] [-metrics-addr host:port] input.f64
  primacy trace [-workers N] [-span NAME] [-anomalies] input.f64
  primacy model [-workers N] [-rho N] [-theta MBs] [-mu-write MBs] [-mu-read MBs] input.f64
  primacy verify file.prm

stats compresses the input with telemetry enabled and prints every counter,
gauge, and stage-time histogram. -metrics-addr (usable with any command)
serves the same metrics over HTTP in Prometheus text format at /metrics;
-metrics-hold keeps the endpoint up after the run finishes.

trace compresses the input with structured tracing enabled and dumps the
flight recorder: per-chunk codec stage spans, pipeline shard spans, and
every anomaly (degraded chunks, salvage faults, retry exhaustion,
cancelled or shed admissions). -span filters by span name, -anomalies
keeps anomalous spans only. -trace-out FILE (usable with any command)
streams every span as JSONL while the run executes.

model runs a compress+decompress round trip with telemetry enabled, fits
the paper's Section III performance model to the measured stage rates and
byte counters (alpha1, alpha2, sigma_ho, sigma_lo, delta), and prints the
predicted end-to-end write/read throughput under the staging environment
given by -rho/-theta/-mu-write/-mu-read, plus the residual between the
model's compute-side prediction and the observed rate.

-pprof-addr (usable with any command) serves net/http/pprof at
http://ADDR/debug/pprof/; worker goroutines are labeled with
primacy_stage/primacy_shard when tracing is on.

exit codes:
  0    success
  1    operational failure (I/O, internal error)
  2    corruption detected (verify failure, corrupt container)
  64   usage error (bad flags or arguments)
  130  cancelled (SIGINT/SIGTERM)

flags:
`

// errCorruptionFound classifies verify/salvage findings for exit-code
// mapping.
var errCorruptionFound = errors.New("corruption found")

// exitCode maps an error to the documented exit codes.
func exitCode(err error) int {
	switch {
	case err == nil:
		return exitOK
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		return exitCancelled
	case errors.Is(err, errCorruptionFound), errors.Is(err, core.ErrCorrupt):
		return exitCorrupt
	default:
		return exitFailure
	}
}

// cli holds the parsed command configuration; separated from main so the
// tool's behaviour is unit-testable without exec.
type cli struct {
	compress   bool
	decompress bool
	verify     bool
	salvage    bool
	showStats  bool
	out        string
	solverName string
	chunk      int
	workers    int
	rowLin     bool
	identity   bool
	noISOBAR   bool
	reuseIndex bool
	float32el  bool
	precond    string
	input      string

	// Telemetry surface: the `stats` subcommand dumps the registry after the
	// run; -metrics-addr serves it over HTTP during (and, with -metrics-hold,
	// after) the run.
	telemDump   bool
	metricsAddr string
	metricsHold time.Duration
	// metricsURL is the bound endpoint URL once the listener is up (the
	// configured addr may use port 0); tests read it after metricsReady is
	// closed.
	metricsURL   string
	metricsReady chan struct{}

	// Tracing surface: the `trace` subcommand dumps the flight recorder
	// after the run; -trace-out streams spans as JSONL during any command;
	// -span / -anomalies filter the dump.
	traceDump     bool
	traceOut      string
	spanFilter    string
	anomaliesOnly bool

	// Model surface: the `model` subcommand fits Section III to a measured
	// round trip under the environment parameters below (-rho and MB/s
	// flags, defaulting to the Figure 4 staging environment).
	modelDump bool
	rho       float64
	thetaMBs  float64
	muWriteMB float64
	muReadMB  float64

	// pprof surface: -pprof-addr serves net/http/pprof during the run.
	pprofAddr  string
	pprofURL   string
	pprofReady chan struct{}
}

// parseArgs builds a cli from argv (excluding the program name).
func parseArgs(args []string) (*cli, error) {
	c := &cli{metricsReady: make(chan struct{}), pprofReady: make(chan struct{})}
	// Subcommand forms: `primacy verify <file>` checks integrity without
	// producing output; `primacy stats <file>` compresses with telemetry
	// enabled and dumps every metric; `primacy trace <file>` compresses with
	// tracing enabled and dumps the flight recorder; `primacy model <file>`
	// fits the Section III model to a measured round trip.
	if len(args) > 0 {
		switch args[0] {
		case "verify":
			c.verify = true
			args = args[1:]
		case "stats":
			c.telemDump = true
			args = args[1:]
		case "trace":
			c.traceDump = true
			args = args[1:]
		case "model":
			c.modelDump = true
			args = args[1:]
		}
	}
	fs := flag.NewFlagSet("primacy", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	fs.Usage = func() {
		fmt.Fprint(os.Stderr, usageText)
		fs.SetOutput(os.Stderr)
		fs.PrintDefaults()
		fs.SetOutput(io.Discard)
	}
	fs.BoolVar(&c.compress, "c", false, "compress the input file")
	fs.BoolVar(&c.decompress, "d", false, "decompress the input file")
	fs.BoolVar(&c.salvage, "salvage", false, "with -d: recover what a damaged file still holds, reporting lost regions")
	fs.BoolVar(&c.showStats, "stats", false, "compress and print model statistics without writing output")
	fs.StringVar(&c.out, "o", "", "output file (default: input + .prm, or stripped on -d)")
	fs.StringVar(&c.solverName, "solver", "zlib", "solver: zlib, lzo, bzlib, none")
	fs.IntVar(&c.chunk, "chunk", 0, "chunk size in bytes (default 3 MiB)")
	fs.IntVar(&c.workers, "workers", 0, "parallel workers (0 = all cores; 1 = sequential container)")
	fs.BoolVar(&c.rowLin, "rows", false, "row linearization (ablation; default columns)")
	fs.BoolVar(&c.identity, "identity", false, "identity ID mapping (ablation; default ranked)")
	fs.BoolVar(&c.noISOBAR, "no-isobar", false, "compress all mantissa bytes (ablation)")
	fs.BoolVar(&c.reuseIndex, "reuse-index", false, "emit indexes only on distribution shift")
	fs.BoolVar(&c.float32el, "f32", false, "treat input as float32 elements")
	fs.StringVar(&c.precond, "precond", "", "preconditioner selection mode: apriori, aposteriori (default: fixed chain)")
	fs.StringVar(&c.metricsAddr, "metrics-addr", "", "serve Prometheus metrics at http://ADDR/metrics during the run")
	fs.DurationVar(&c.metricsHold, "metrics-hold", 0, "with -metrics-addr: keep the endpoint up this long after the run")
	fs.StringVar(&c.traceOut, "trace-out", "", "stream every trace span as JSONL to FILE during the run")
	fs.StringVar(&c.spanFilter, "span", "", "with trace: only dump spans with this exact name")
	fs.BoolVar(&c.anomaliesOnly, "anomalies", false, "with trace: only dump anomaly-tagged spans")
	fs.Float64Var(&c.rho, "rho", 8, "with model: compute-to-I/O node ratio")
	fs.Float64Var(&c.thetaMBs, "theta", 1200, "with model: collective network throughput (MB/s)")
	fs.Float64Var(&c.muWriteMB, "mu-write", 12, "with model: disk write throughput (MB/s)")
	fs.Float64Var(&c.muReadMB, "mu-read", 200, "with model: disk read throughput (MB/s)")
	fs.StringVar(&c.pprofAddr, "pprof-addr", "", "serve net/http/pprof at http://ADDR/debug/pprof/ during the run")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if fs.NArg() != 1 {
		return nil, fmt.Errorf("exactly one input file required (got %d)", fs.NArg())
	}
	c.input = fs.Arg(0)
	if _, err := primacy.ParsePrecondMode(c.precond); err != nil {
		return nil, fmt.Errorf("-precond: %w", err)
	}
	if c.showStats {
		c.compress = true
	}
	if c.verify {
		if c.compress || c.decompress {
			return nil, errors.New("verify takes no -c / -d flags")
		}
		return c, nil
	}
	if c.telemDump {
		if c.compress || c.decompress {
			return nil, errors.New("stats takes no -c / -d flags")
		}
		return c, nil
	}
	if c.traceDump {
		if c.compress || c.decompress {
			return nil, errors.New("trace takes no -c / -d flags")
		}
		return c, nil
	}
	if c.modelDump {
		if c.compress || c.decompress {
			return nil, errors.New("model takes no -c / -d flags")
		}
		if c.rho <= 0 || c.thetaMBs <= 0 || c.muWriteMB <= 0 || c.muReadMB <= 0 {
			return nil, errors.New("model environment parameters must be positive")
		}
		return c, nil
	}
	if c.salvage && !c.decompress {
		return nil, errors.New("-salvage requires -d")
	}
	if c.compress == c.decompress {
		return nil, errors.New("exactly one of -c / -d (or -stats, or the verify subcommand) required")
	}
	return c, nil
}

func (c *cli) options() primacy.Options {
	opts := primacy.Options{
		Solver:        c.solverName,
		ChunkBytes:    c.chunk,
		DisableISOBAR: c.noISOBAR,
	}
	if c.rowLin {
		opts.Linearization = primacy.LinearizeRows
	}
	if c.identity {
		opts.Mapping = primacy.MapIdentity
	}
	if c.reuseIndex {
		opts.IndexMode = primacy.IndexReuse
	}
	if c.float32el {
		opts.Precision = primacy.Float32
	}
	if mode, err := primacy.ParsePrecondMode(c.precond); err == nil && mode != primacy.PrecondFixed {
		opts.Precond = primacy.PrecondOptions{Selection: mode}
	}
	return opts
}

// run executes the parsed command, writing human output to w.
func (c *cli) run(w io.Writer) error {
	return c.runCtx(context.Background(), w)
}

// runCtx is run with cancellation: a done ctx (e.g. SIGINT) aborts between
// chunks/shards and surfaces as ctx.Err(), which main maps to exit 130.
func (c *cli) runCtx(ctx context.Context, w io.Writer) (err error) {
	var reg *primacy.Metrics
	if c.telemDump || c.modelDump || c.metricsAddr != "" {
		reg = primacy.NewMetrics()
		primacy.EnableTelemetry(reg)
		defer primacy.EnableTelemetry(nil)
	}
	var tr *primacy.Tracer
	if c.traceDump || c.traceOut != "" {
		var cfg primacy.TraceConfig
		if c.traceOut != "" {
			tf, ferr := os.Create(c.traceOut)
			if ferr != nil {
				return fmt.Errorf("trace output: %w", ferr)
			}
			cfg.Out = tf
			// Registered before EnableTracing's defer, so tracing is already
			// off (and no span can race the sink) when the file closes.
			defer func() {
				if cerr := tf.Close(); cerr != nil && err == nil {
					err = cerr
				}
			}()
		}
		tr = primacy.NewTracer(cfg)
		primacy.EnableTracing(tr)
		defer func() {
			primacy.EnableTracing(nil)
			if serr := tr.Err(); serr != nil && err == nil {
				err = fmt.Errorf("trace sink: %w", serr)
			}
		}()
	}
	if c.metricsAddr != "" {
		stop, err := c.serveMetrics(w, reg)
		if err != nil {
			return err
		}
		defer stop()
	}
	if c.pprofAddr != "" {
		stop, err := c.servePprof(w)
		if err != nil {
			return err
		}
		defer stop()
	}
	data, err := os.ReadFile(c.input)
	if err != nil {
		return err
	}
	switch {
	case c.verify:
		err = c.runVerify(w, data)
	case c.telemDump:
		err = c.runTelemetryDump(ctx, w, data, reg)
	case c.traceDump:
		err = c.runTrace(ctx, w, data, tr)
	case c.modelDump:
		err = c.runModel(ctx, w, data, reg)
	case c.compress:
		err = c.runCompress(ctx, w, data)
	default:
		err = c.runDecompress(ctx, w, data)
	}
	if err != nil {
		return err
	}
	c.holdMetrics(ctx, w)
	return nil
}

// serveMetrics starts the Prometheus endpoint; the returned func shuts it
// down. The bound URL lands in c.metricsURL (the configured address may use
// port 0).
func (c *cli) serveMetrics(w io.Writer, reg *primacy.Metrics) (func(), error) {
	ln, err := net.Listen("tcp", c.metricsAddr)
	if err != nil {
		return nil, fmt.Errorf("metrics listener: %w", err)
	}
	c.metricsURL = fmt.Sprintf("http://%s/metrics", ln.Addr())
	close(c.metricsReady)
	fmt.Fprintf(w, "metrics: %s\n", c.metricsURL)
	mux := http.NewServeMux()
	mux.Handle("/metrics", reg.MetricsHandler())
	srv := &http.Server{Handler: mux}
	go srv.Serve(ln)
	return func() { srv.Close() }, nil
}

// servePprof starts a net/http/pprof endpoint on an explicit mux (nothing
// else in this process registers on the default mux, and an explicit mux
// keeps it that way); the returned func shuts it down. The bound URL lands
// in c.pprofURL.
func (c *cli) servePprof(w io.Writer) (func(), error) {
	ln, err := net.Listen("tcp", c.pprofAddr)
	if err != nil {
		return nil, fmt.Errorf("pprof listener: %w", err)
	}
	c.pprofURL = fmt.Sprintf("http://%s/debug/pprof/", ln.Addr())
	close(c.pprofReady)
	fmt.Fprintf(w, "pprof: %s\n", c.pprofURL)
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", netpprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", netpprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", netpprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", netpprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", netpprof.Trace)
	srv := &http.Server{Handler: mux}
	go srv.Serve(ln)
	return func() { srv.Close() }, nil
}

// holdMetrics keeps the process alive after a successful run so the metrics
// endpoint stays scrapeable. An interrupt during the hold is a clean exit:
// the run itself already succeeded.
func (c *cli) holdMetrics(ctx context.Context, w io.Writer) {
	if c.metricsAddr == "" || c.metricsHold <= 0 {
		return
	}
	fmt.Fprintf(w, "holding metrics endpoint for %s (interrupt to exit)\n", c.metricsHold)
	t := time.NewTimer(c.metricsHold)
	defer t.Stop()
	select {
	case <-ctx.Done():
	case <-t.C:
	}
}

// runTelemetryDump compresses the input with telemetry routed to reg and
// prints the resulting counters, gauges, and stage-time histograms.
func (c *cli) runTelemetryDump(ctx context.Context, w io.Writer, data []byte, reg *primacy.Metrics) error {
	opts := c.options()
	enc, err := primacy.ParallelCompress(ctx, data, primacy.ParallelOptions{Core: opts, Workers: c.workers})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%s: %d -> %d bytes (%.3fx)\n", c.input, len(data), len(enc), float64(len(data))/float64(len(enc)))
	return reg.WriteText(w)
}

// runTrace compresses the input with tracing routed to tr and dumps the
// flight recorder, honoring the -span and -anomalies filters.
func (c *cli) runTrace(ctx context.Context, w io.Writer, data []byte, tr *primacy.Tracer) error {
	opts := c.options()
	enc, err := primacy.ParallelCompress(ctx, data, primacy.ParallelOptions{Core: opts, Workers: c.workers})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%s: %d -> %d bytes (%.3fx)\n", c.input, len(data), len(enc), float64(len(data))/float64(len(enc)))
	return tr.WriteText(w, primacy.TraceDumpOptions{NameFilter: c.spanFilter, AnomaliesOnly: c.anomaliesOnly})
}

// runModel runs a compress+decompress round trip with telemetry on, fits the
// Section III model to the measurements, and prints the estimated parameters,
// predicted throughput, and model residual.
func (c *cli) runModel(ctx context.Context, w io.Writer, data []byte, reg *primacy.Metrics) error {
	opts := c.options()
	popts := primacy.ParallelOptions{Core: opts, Workers: c.workers}
	enc, err := primacy.ParallelCompress(ctx, data, popts)
	if err != nil {
		return err
	}
	if _, err := primacy.ParallelDecompress(ctx, enc, popts); err != nil {
		return err
	}
	env := primacy.ModelParams{
		ChunkBytes: float64(c.chunk),
		Rho:        c.rho,
		Theta:      c.thetaMBs * 1e6,
		MuWrite:    c.muWriteMB * 1e6,
		MuRead:     c.muReadMB * 1e6,
	}
	est, err := primacy.EstimateModel(reg.Snapshot(), env)
	if err != nil {
		return err
	}
	p := est.Params
	fmt.Fprintf(w, "%s: %d -> %d bytes over %d chunks (%d degraded)\n",
		c.input, est.RawBytes, est.CompressedBytes, est.Chunks, est.DegradedChunks)
	fmt.Fprintf(w, "measured: alpha1=%.3f alpha2=%.3f sigma_ho=%.4f sigma_lo=%.4f delta=%.1f B/chunk\n",
		p.Alpha1, p.Alpha2, p.SigmaHo, p.SigmaLo, p.MetaBytes)
	fmt.Fprintf(w, "rates: prec=%.1f MB/s solver=%.1f MB/s", est.PrecBps/1e6, est.SolverBps/1e6)
	if est.HasRead {
		fmt.Fprintf(w, " dec_prec=%.1f MB/s dec_solver=%.1f MB/s", est.DecompPrecBps/1e6, est.DecompSolverBps/1e6)
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "environment: rho=%.0f theta=%.0f MB/s mu_write=%.0f MB/s mu_read=%.0f MB/s chunk=%.0f B\n",
		p.Rho, p.Theta/1e6, p.MuWrite/1e6, p.MuRead/1e6, p.ChunkBytes)
	fmt.Fprintf(w, "predicted write: %.2f MB/s (vs %.2f MB/s uncompressed baseline)\n",
		est.Write.Throughput/1e6, baselineMBs(p, true))
	if est.HasRead {
		fmt.Fprintf(w, "predicted read:  %.2f MB/s (vs %.2f MB/s uncompressed baseline)\n",
			est.Read.Throughput/1e6, baselineMBs(p, false))
	}
	fmt.Fprintf(w, "model residual (write compute side): predicted %.1f MB/s vs observed %.1f MB/s = %.1f%%\n",
		est.PredictedWriteComputeBps/1e6, est.ObservedWriteComputeBps/1e6, 100*est.WriteResidual)
	if est.HasRead {
		fmt.Fprintf(w, "model residual (read compute side):  predicted %.1f MB/s vs observed %.1f MB/s = %.1f%%\n",
			est.PredictedReadComputeBps/1e6, est.ObservedReadComputeBps/1e6, 100*est.ReadResidual)
	}
	return nil
}

// baselineMBs is the modeled no-compression throughput in MB/s (0 when the
// environment cannot be evaluated).
func baselineMBs(p primacy.ModelParams, write bool) float64 {
	var (
		b   primacy.ModelBreakdown
		err error
	)
	if write {
		b, err = p.WriteNoCompression()
	} else {
		b, err = p.ReadNoCompression()
	}
	if err != nil {
		return 0
	}
	return b.Throughput / 1e6
}

// runVerify checks the integrity of any PRIMACY artifact and reports every
// detected fault. A corrupt file yields a non-nil error (exit status 1).
func (c *cli) runVerify(w io.Writer, data []byte) error {
	rep, err := primacy.Verify(data)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%s: %s\n", c.input, rep)
	if !rep.Clean() {
		return fmt.Errorf("%s: %w: %d fault(s)", c.input, errCorruptionFound, len(rep.Corruptions))
	}
	return nil
}

func (c *cli) runCompress(ctx context.Context, w io.Writer, data []byte) error {
	opts := c.options()
	if c.showStats {
		var codec primacy.Codec
		_, stats, err := codec.AppendCompressCtx(ctx, nil, data, opts)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "raw bytes:        %d\n", stats.RawBytes)
		fmt.Fprintf(w, "compressed bytes: %d\n", stats.CompressedBytes)
		fmt.Fprintf(w, "compression ratio: %.4f\n", stats.Ratio())
		fmt.Fprintf(w, "chunks: %d  indexes emitted: %d  index bytes: %d\n",
			stats.Chunks, stats.IndexesEmitted, stats.IndexBytes)
		fmt.Fprintf(w, "alpha1=%.3f alpha2=%.3f sigma_ho=%.4f sigma_lo=%.4f\n",
			stats.Alpha1, stats.Alpha2, stats.SigmaHo, stats.SigmaLo)
		fmt.Fprintf(w, "preconditioner: %.1f MB/s  solver: %.1f MB/s\n",
			stats.PrecThroughput()/1e6, stats.SolverThroughput()/1e6)
		return nil
	}
	var enc []byte
	var err error
	if c.workers == 1 {
		enc, err = primacy.Compress(ctx, data, opts)
	} else {
		enc, err = primacy.ParallelCompress(ctx, data, primacy.ParallelOptions{Core: opts, Workers: c.workers})
	}
	if err != nil {
		return err
	}
	out := c.out
	if out == "" {
		out = c.input + ".prm"
	}
	if err := os.WriteFile(out, enc, 0o644); err != nil {
		return err
	}
	ratio := float64(len(data)) / float64(len(enc))
	fmt.Fprintf(w, "%s: %d -> %d bytes (%.3fx)\n", out, len(data), len(enc), ratio)
	return nil
}

func (c *cli) runDecompress(ctx context.Context, w io.Writer, data []byte) error {
	dec, rep, err := c.decode(ctx, data)
	if err != nil {
		return err
	}
	if rep != nil && !rep.Clean() {
		fmt.Fprintf(w, "salvage: %s\n", rep)
	}
	out := c.out
	if out == "" {
		if n := len(c.input); n > 4 && c.input[n-4:] == ".prm" {
			out = c.input[:n-4]
		} else {
			out = c.input + ".out"
		}
	}
	if err := os.WriteFile(out, dec, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(w, "%s: %d -> %d bytes\n", out, len(data), len(dec))
	return nil
}

// decode dispatches on the container magic — parallel ("PRP"), stream
// ("PRS"), archive ("PAR") or sequential core — honoring -salvage.
func (c *cli) decode(ctx context.Context, data []byte) ([]byte, *primacy.CorruptionReport, error) {
	kind := ""
	if len(data) >= 4 {
		kind = string(data[:3])
	}
	if c.salvage && kind != "PAR" {
		return primacy.DecompressSalvage(data)
	}
	switch kind {
	case "PRP":
		dec, err := primacy.ParallelDecompress(ctx, data, primacy.ParallelOptions{Workers: c.workers})
		return dec, nil, err
	case "PRS":
		dec, err := io.ReadAll(primacy.NewStreamReader(ctx, bytes.NewReader(data)))
		return dec, nil, err
	case "PAR":
		if c.salvage {
			r, rep, err := primacy.OpenArchiveSalvage(bytes.NewReader(data), int64(len(data)))
			dec, err := archiveBytes(r, err)
			return dec, rep, err
		}
		dec, err := archiveBytes(primacy.NewArchiveReader(bytes.NewReader(data), int64(len(data))))
		return dec, nil, err
	default:
		dec, err := primacy.Decompress(ctx, data)
		return dec, nil, err
	}
}

// archiveBytes concatenates every entry of r, the archive an open returned
// with err, (variables sorted, steps ascending) as big-endian float64 bytes.
func archiveBytes(r *primacy.ArchiveReader, err error) ([]byte, error) {
	if err != nil {
		return nil, err
	}
	var out []byte
	for _, name := range r.Variables() {
		for _, step := range r.Steps(name) {
			values, err := r.GetFloat64s(name, step)
			if err != nil {
				return nil, err
			}
			out = append(out, bytesplit.Float64sToBytes(values)...)
		}
	}
	return out, nil
}
