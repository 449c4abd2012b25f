// Command primacyd serves the PRIMACY codec as a fault-tolerant multi-tenant
// HTTP service: per-request deadlines, weighted fair-share admission, explicit
// load shedding, panic isolation, a content-addressed result cache, and
// graceful drain on SIGTERM/SIGINT.
//
// Exit codes: 0 after a clean drain (every in-flight request finished or was
// explicitly cancelled), 1 on a dirty drain or serve error, 2 on bad flags.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"primacy"
	"primacy/internal/server"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("primacyd", flag.ContinueOnError)
	var (
		addr      = fs.String("addr", ":8080", "listen address")
		solver    = fs.String("solver", "zlib", "default codec backend (per-request override via ?solver=)")
		chunk     = fs.Int("chunk", 0, "codec chunk size in bytes (0: codec default)")
		workers   = fs.Int("workers", 0, "per-request pipeline width (0 = GOMAXPROCS)")
		memBudget = fs.Int64("mem-budget", 0, "admission memory budget in bytes (0: fairshare default)")
		maxConc   = fs.Int("max-concurrent", 0, "max concurrently admitted requests (0: fairshare default)")
		maxQueued = fs.Int("max-queued", 0, "global queue cap before shed-oldest (0: fairshare default)")
		maxQPT    = fs.Int("max-queued-per-tenant", 0, "per-tenant queue cap (0: fairshare default)")
		weights   = fs.String("tenant-weights", "", "comma-separated tenant=weight fair-share overrides (e.g. batch=1,interactive=4)")
		defDL     = fs.Duration("default-deadline", 0, "deadline for requests without X-Primacy-Deadline-Ms (0: 30s)")
		maxDL     = fs.Duration("max-deadline", 0, "clamp on requested deadlines (0: 2m)")
		maxBody   = fs.Int64("max-body", 0, "request body cap in bytes (0: 64 MiB)")
		cacheB    = fs.Int64("cache-bytes", 0, "result cache budget in bytes (0: 64 MiB, negative: disable retention)")
		dataDir   = fs.String("data-dir", "", "durable archive store directory (empty: archive is in-memory only)")
		fsync     = fs.Bool("fsync", true, "fsync archive puts before acknowledging (disable only for benchmarks; acknowledged writes may be lost on crash)")
		compactN  = fs.Int("compact-every", 0, "seal a tenant's journal after this many puts (0: store default, negative: disable auto-compaction)")
		drainT    = fs.Duration("drain-timeout", 30*time.Second, "how long a drain waits for in-flight requests before cancelling them")
		quiet     = fs.Bool("quiet", false, "suppress the telemetry dump on exit")
		logFormat = fs.String("log-format", "json", "structured log format: json or text")
		logLevel  = fs.String("log-level", "info", "minimum log level: debug, info, warn, or error")
		slowMs    = fs.Int64("slow-request-ms", 2000, "log a warn line with the span tree for requests slower than this (0: disable)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	tenantWeights, err := parseWeights(*weights)
	if err != nil {
		fmt.Fprintf(os.Stderr, "primacyd: %v\n", err)
		return 2
	}
	logger, err := buildLogger(*logFormat, *logLevel)
	if err != nil {
		fmt.Fprintf(os.Stderr, "primacyd: %v\n", err)
		return 2
	}

	// One process-wide registry: the codec stack reports into it via the
	// facade, the server adds its own primacyd_* series, and /metrics serves
	// the union.
	metrics := primacy.NewMetrics()
	primacy.EnableTelemetry(metrics)
	defer primacy.EnableTelemetry(nil)

	// One process-wide flight recorder: request spans from the server nest
	// admission/codec spans recorded through the facade, and /statusz shows
	// the anomaly tail.
	tracer := primacy.NewTracer(primacy.TraceConfig{})
	primacy.EnableTracing(tracer)
	defer primacy.EnableTracing(nil)

	srv, err := server.New(server.Config{
		Solver:             *solver,
		ChunkBytes:         *chunk,
		Workers:            *workers,
		MemBudget:          *memBudget,
		MaxConcurrent:      *maxConc,
		MaxQueued:          *maxQueued,
		MaxQueuedPerTenant: *maxQPT,
		TenantWeights:      tenantWeights,
		DefaultDeadline:    *defDL,
		MaxDeadline:        *maxDL,
		MaxBodyBytes:       *maxBody,
		CacheBytes:         *cacheB,
		DataDir:            *dataDir,
		NoFsync:            !*fsync,
		CompactEvery:       *compactN,
		Metrics:            metrics,
		Logger:             logger,
		Tracer:             tracer,
		SlowRequest:        time.Duration(*slowMs) * time.Millisecond,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "primacyd: %v\n", err)
		return 2
	}
	if *dataDir != "" {
		rec := srv.Recovery()
		fmt.Fprintf(os.Stderr, "primacyd: durable store at %s (fsync=%v)\n", *dataDir, *fsync)
		fmt.Fprintln(os.Stderr, rec.Summary())
		if rec.Dirty() {
			fmt.Fprintln(os.Stderr, "primacyd: previous shutdown was not clean; recovery repaired the store (see above)")
		}
	}

	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.ListenAndServe() }()
	effWorkers := *workers
	if effWorkers <= 0 {
		effWorkers = runtime.GOMAXPROCS(0)
	}
	fmt.Fprintf(os.Stderr, "primacyd: serving on %s (solver=%s workers=%d)\n", *addr, *solver, effWorkers)

	sigCh := make(chan os.Signal, 2)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)

	select {
	case err := <-serveErr:
		fmt.Fprintf(os.Stderr, "primacyd: serve: %v\n", err)
		return 1
	case sig := <-sigCh:
		fmt.Fprintf(os.Stderr, "primacyd: %v: draining (timeout %s; signal again to force exit)\n", sig, *drainT)
	}

	// Graceful drain: refuse new work (503 + flipped /readyz), finish or
	// deadline-cancel in-flight requests, then stop the listener. A second
	// signal aborts immediately.
	drainCtx, cancel := context.WithTimeout(context.Background(), *drainT)
	defer cancel()
	go func() {
		<-sigCh
		fmt.Fprintln(os.Stderr, "primacyd: second signal, forcing exit")
		os.Exit(130)
	}()
	drainErr := srv.Drain(drainCtx)
	shutCtx, cancelShut := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancelShut()
	if err := httpSrv.Shutdown(shutCtx); err != nil {
		fmt.Fprintf(os.Stderr, "primacyd: shutdown: %v\n", err)
	}
	if err := <-serveErr; err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintf(os.Stderr, "primacyd: serve: %v\n", err)
	}

	if !*quiet {
		fmt.Fprintln(os.Stderr, "primacyd: final telemetry:")
		metrics.WriteText(os.Stderr)
	}
	if drainErr != nil {
		fmt.Fprintf(os.Stderr, "primacyd: dirty drain: %v\n", drainErr)
		return 1
	}
	fmt.Fprintln(os.Stderr, "primacyd: drained clean")
	return 0
}

// buildLogger constructs the process logger on stderr in the requested
// format and level.
func buildLogger(format, level string) (*slog.Logger, error) {
	var lvl slog.Level
	switch strings.ToLower(level) {
	case "debug":
		lvl = slog.LevelDebug
	case "info":
		lvl = slog.LevelInfo
	case "warn", "warning":
		lvl = slog.LevelWarn
	case "error":
		lvl = slog.LevelError
	default:
		return nil, fmt.Errorf("invalid -log-level %q (want debug, info, warn, or error)", level)
	}
	opts := &slog.HandlerOptions{Level: lvl}
	switch strings.ToLower(format) {
	case "json":
		return slog.New(slog.NewJSONHandler(os.Stderr, opts)), nil
	case "text":
		return slog.New(slog.NewTextHandler(os.Stderr, opts)), nil
	default:
		return nil, fmt.Errorf("invalid -log-format %q (want json or text)", format)
	}
}

// parseWeights parses "a=3,b=1" into tenant weight overrides.
func parseWeights(s string) (map[string]int, error) {
	if s == "" {
		return nil, nil
	}
	out := make(map[string]int)
	for _, part := range strings.Split(s, ",") {
		name, val, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok || name == "" {
			return nil, fmt.Errorf("invalid tenant weight %q (want tenant=weight)", part)
		}
		w, err := strconv.Atoi(val)
		if err != nil || w <= 0 {
			return nil, fmt.Errorf("invalid weight in %q (want a positive integer)", part)
		}
		out[name] = w
	}
	return out, nil
}
