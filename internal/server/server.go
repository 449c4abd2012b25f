// Package server implements primacyd, the fault-tolerant multi-tenant
// PRIMACY compression service. It is designed robustness-first:
//
//   - every request runs under an explicit deadline propagated through the
//     codec's *Ctx paths, so a stuck request costs bounded compute;
//   - admission goes through a fairshare.Admitter — per-tenant weighted
//     queues over a global memory budget — so one hot tenant degrades to
//     its fair share instead of starving the node;
//   - overload is shed explicitly (429/503 + Retry-After, shed-oldest on
//     queue overflow) instead of queuing without bound;
//   - a request that panics is recovered at the request boundary (the codec
//     already isolates solver panics per chunk), so a poisoned payload can
//     never kill the process;
//   - identical concurrent requests are deduplicated single-flight against
//     a content-addressed result cache keyed by a seeded hash of the input;
//   - Drain stops intake, flips /readyz, finishes or deadline-cancels
//     in-flight work, and leaves the process ready for a clean exit 0.
package server

import (
	"context"
	"fmt"
	"hash/maphash"
	"log/slog"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"primacy/internal/core"
	"primacy/internal/durable"
	"primacy/internal/fairshare"
	"primacy/internal/solver"
	"primacy/internal/telemetry"
	"primacy/internal/trace"
)

// Config parameterizes a Server. The zero value serves with the documented
// defaults.
type Config struct {
	// Solver is the default codec backend (zlib); per-request override via
	// ?solver=.
	Solver string
	// ChunkBytes is the codec chunk size (codec default when 0).
	ChunkBytes int
	// Workers is the per-request pipeline width; 0 (default) tracks
	// runtime.GOMAXPROCS(0) so a request uses the cores the machine has.
	// Set 1 to keep requests sequential when concurrency should come only
	// from request parallelism, which the admitter governs. Output bytes
	// never depend on this value.
	Workers int

	// MemBudget, MaxConcurrent, MaxQueuedPerTenant, MaxQueued, and
	// TenantWeights configure the fair-share admitter (see
	// fairshare.Config; zero fields take its defaults).
	MemBudget          int64
	MaxConcurrent      int
	MaxQueuedPerTenant int
	MaxQueued          int
	TenantWeights      map[string]int

	// DefaultDeadline bounds requests that carry no X-Primacy-Deadline-Ms
	// header (30s when 0); MaxDeadline clamps requested deadlines (2m when
	// 0).
	DefaultDeadline time.Duration
	MaxDeadline     time.Duration

	// MaxBodyBytes caps request bodies (64 MiB when 0) — the first line of
	// memory defense, ahead of admission.
	MaxBodyBytes int64

	// CacheBytes bounds the content-addressed result cache (64 MiB when 0,
	// negative disables retention; single-flight dedup always applies). The
	// containers kept for whole-archive downloads count against it too.
	CacheBytes int64

	// DataDir roots the durable archive store. When set, /v1/archive/put
	// journals and fsyncs every entry before acknowledging, and the server
	// recovers the archive state on startup. Empty (default) keeps the
	// archive purely in memory.
	DataDir string
	// NoFsync disables fsync in the durable store — faster, but an
	// acknowledged put can be lost to a crash. Meaningless without DataDir.
	NoFsync bool
	// CompactEvery seals a tenant's journal into an archive segment after
	// this many journaled puts (durable store default when 0, negative
	// disables auto-compaction).
	CompactEvery int

	// Metrics, when set, receives the server's counters and serves
	// /metrics. Nil disables both.
	Metrics *telemetry.Registry

	// Logger, when set, receives one structured access-log line per work
	// request plus startup/recovery/drain lifecycle events. Nil disables
	// logging.
	Logger *slog.Logger
	// Tracer, when set, records a flight-recorder span per work request
	// (carrying the request ID) with admission and codec child spans nested
	// under it. Nil disables request spans.
	Tracer *trace.Tracer
	// SlowRequest is the slow-request threshold: a work request slower than
	// this logs at warn and dumps its span tree. 0 disables.
	SlowRequest time.Duration
}

func (c Config) withDefaults() Config {
	if c.Solver == "" {
		c.Solver = "zlib"
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.DefaultDeadline <= 0 {
		c.DefaultDeadline = 30 * time.Second
	}
	if c.MaxDeadline <= 0 {
		c.MaxDeadline = 2 * time.Minute
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 64 << 20
	}
	if c.CacheBytes == 0 {
		c.CacheBytes = 64 << 20
	}
	return c
}

// serverMetrics are the daemon's own series, registered on Config.Metrics
// (all handles nil-safe when metrics are disabled). Each fact is counted
// once: totals, ratios and SLO burn rates are sums over the labeled
// families (bounded tenant cardinality; a tenant storm collapses into the
// "other" bucket). The three unlabeled counters are not such sums, since
// the status label is a class, not a code.
type serverMetrics struct {
	drained  *telemetry.Counter // 503: refused while draining
	deadline *telemetry.Counter // 504: deadline exceeded
	panics   *telemetry.Counter

	requestsVec  *telemetry.CounterVec   // primacyd_requests_total{route,tenant,status}
	latencyVec   *telemetry.HistogramVec // primacyd_route_request_seconds{route,tenant}
	queueWaitVec *telemetry.HistogramVec // primacyd_queue_wait_seconds{route,tenant}
	workVec      *telemetry.HistogramVec // primacyd_work_seconds{route,tenant}
	bytesInVec   *telemetry.CounterVec   // primacyd_request_bytes_in_total{route,tenant}
	bytesOutVec  *telemetry.CounterVec   // primacyd_request_bytes_out_total{route,tenant}
	shedVec      *telemetry.CounterVec   // primacyd_shed_by_tenant_total{route,tenant}
	cacheVec     *telemetry.CounterVec   // primacyd_cache_outcomes_total{route,tenant,outcome}
}

// Server is the primacyd HTTP service. Create with New, mount Handler, and
// call Drain before exiting.
type Server struct {
	cfg   Config
	adm   *fairshare.Admitter
	cache *resultCache
	// keySeed keys the content sums in result-cache keys (see cacheKey).
	keySeed maphash.Seed
	mux     *http.ServeMux
	met     serverMetrics

	// baseCtx is cancelled to deadline-cancel all in-flight work during a
	// forced drain.
	baseCtx    context.Context
	cancelBase context.CancelFunc

	// inflight tracks requests past the drain gate; Drain waits on it.
	inflight sync.WaitGroup
	draining atomic.Bool

	// store holds the archive entries (durable when cfg.DataDir is set).
	store    *durable.Store
	recovery *durable.RecoveryReport

	closeStore sync.Once
	storeErr   error

	// Observability plumbing (see obs.go / statusz.go).
	started     time.Time
	log         *slog.Logger
	stopSampler func()
}

// New validates cfg and returns a ready-to-serve Server.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	if _, err := solver.Get(cfg.Solver); err != nil && cfg.Solver != "none" {
		return nil, fmt.Errorf("server: default solver: %w", err)
	}
	store, recovery, err := durable.Open(cfg.DataDir, durable.Options{
		NoFsync:      cfg.NoFsync,
		CompactEvery: cfg.CompactEvery,
		Core:         core.Options{Solver: cfg.Solver, ChunkBytes: cfg.ChunkBytes},
	})
	if err != nil {
		return nil, fmt.Errorf("server: opening durable store: %w", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg: cfg,
		adm: fairshare.New(fairshare.Config{
			MemBudget:          cfg.MemBudget,
			MaxConcurrent:      cfg.MaxConcurrent,
			MaxQueuedPerTenant: cfg.MaxQueuedPerTenant,
			MaxQueued:          cfg.MaxQueued,
			Weights:            cfg.TenantWeights,
		}),
		cache:      newResultCache(cfg.CacheBytes),
		keySeed:    maphash.MakeSeed(),
		baseCtx:    ctx,
		cancelBase: cancel,
		store:      store,
		recovery:   recovery,
	}
	s.started = time.Now()
	s.log = cfg.Logger
	if r := cfg.Metrics; r != nil {
		s.met = serverMetrics{
			drained:  r.Counter("primacyd_drain_refused_total", "Requests refused with 503 while draining."),
			deadline: r.Counter("primacyd_deadline_total", "Requests that exceeded their deadline (504)."),
			panics:   r.Counter("primacyd_panics_total", "Request handlers recovered from a panic."),

			requestsVec: r.CounterVec("primacyd_requests_total",
				"Work requests by route, tenant, and status class.",
				[]string{"route", "tenant", "status"}),
			latencyVec: r.HistogramVec("primacyd_route_request_seconds",
				"Wall time of work requests by route and tenant.",
				[]string{"route", "tenant"}, nil),
			queueWaitVec: r.HistogramVec("primacyd_queue_wait_seconds",
				"Time spent queued behind the fair-share admitter.",
				[]string{"route", "tenant"}, nil),
			workVec: r.HistogramVec("primacyd_work_seconds",
				"Request wall time minus admission queue wait.",
				[]string{"route", "tenant"}, nil),
			bytesInVec: r.CounterVec("primacyd_request_bytes_in_total",
				"Request body bytes read, by route and tenant.",
				[]string{"route", "tenant"}),
			bytesOutVec: r.CounterVec("primacyd_request_bytes_out_total",
				"Response body bytes written, by route and tenant.",
				[]string{"route", "tenant"}),
			shedVec: r.CounterVec("primacyd_shed_by_tenant_total",
				"Requests shed with 429, by route and tenant.",
				[]string{"route", "tenant"}),
			cacheVec: r.CounterVec("primacyd_cache_outcomes_total",
				"Result-cache outcomes by route, tenant, and outcome (hit/miss/shared).",
				[]string{"route", "tenant", "outcome"}),
		}
		telemetry.RegisterBuildInfo(r, "primacyd_build_info")
	}
	s.stopSampler = telemetry.StartRuntimeSampler(cfg.Metrics, 0)
	s.mux = http.NewServeMux()
	s.routes()
	s.lifecycle("server started",
		slog.String("solver", s.cfg.Solver),
		slog.Int("workers", s.cfg.Workers),
		slog.String("data_dir", s.cfg.DataDir))
	if recovery != nil && len(recovery.Tenants) > 0 {
		s.lifecycle("durable store recovered",
			slog.String("data_dir", s.cfg.DataDir),
			slog.Int("tenants", len(recovery.Tenants)),
			slog.Bool("dirty", recovery.Dirty()))
	}
	return s, nil
}

// Handler returns the server's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Recovery reports what startup recovery found in the durable store (empty
// for a clean start or in-memory mode, never nil).
func (s *Server) Recovery() *durable.RecoveryReport { return s.recovery }

// shutdownStore flushes and closes the durable store exactly once, stopping
// the runtime sampler first (its stop waits for the goroutine to exit, so a
// drained process leaks nothing).
func (s *Server) shutdownStore() error {
	s.closeStore.Do(func() {
		if s.stopSampler != nil {
			s.stopSampler()
		}
		s.storeErr = s.store.Close()
	})
	return s.storeErr
}

// drainGrace is how long a forced drain waits, after cancelling in-flight
// work, for handlers to unwind before declaring the drain dirty.
const drainGrace = 5 * time.Second

// Drain performs the graceful-shutdown sequence: flip /readyz and refuse new
// work with 503, let in-flight requests finish, and — if ctx expires first —
// deadline-cancel them through the codec's context paths and wait a short
// grace for the unwind. The caller stops the listener (http.Server.Shutdown)
// and flushes telemetry; a nil return means every request completed or was
// explicitly cancelled, so the process can exit 0.
func (s *Server) Drain(ctx context.Context) error {
	s.draining.Store(true)
	s.lifecycle("drain started")
	done := make(chan struct{})
	go func() {
		s.inflight.Wait()
		close(done)
	}()
	select {
	case <-done:
		err := s.shutdownStore()
		s.lifecycle("drain complete", slog.Bool("forced", false))
		return err
	case <-ctx.Done():
	}
	// Deadline-cancel in-flight work and give handlers a bounded unwind.
	s.lifecycle("drain forcing cancellation of in-flight requests")
	s.cancelBase()
	select {
	case <-done:
		err := s.shutdownStore()
		s.lifecycle("drain complete", slog.Bool("forced", true))
		return err
	case <-time.After(drainGrace):
		// Close the store anyway: journals are already fsync'd per put, so
		// this only flushes compactions and file handles.
		s.shutdownStore()
		s.lifecycle("drain timed out with requests still in flight")
		return fmt.Errorf("server: drain timed out with requests still in flight")
	}
}

// Close force-cancels all in-flight work (tests and error paths; prefer
// Drain).
func (s *Server) Close() {
	s.draining.Store(true)
	s.cancelBase()
	s.shutdownStore()
}
