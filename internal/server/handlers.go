package server

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"

	"primacy/internal/archive"
	"primacy/internal/checksum"
	"primacy/internal/core"
	"primacy/internal/fairshare"
	"primacy/internal/pipeline"
	"primacy/internal/precond"
	"primacy/internal/solver"
	"primacy/internal/stream"
	"primacy/internal/trace"
)

// Request/response headers.
const (
	// HeaderTenant names the tenant a request is accounted to (default
	// "anonymous").
	HeaderTenant = "X-Primacy-Tenant"
	// HeaderDeadlineMs requests a per-request deadline in milliseconds,
	// clamped to Config.MaxDeadline.
	HeaderDeadlineMs = "X-Primacy-Deadline-Ms"
	// HeaderCache reports how a work request was served: hit, miss, or
	// shared (single-flight follower).
	HeaderCache = "X-Primacy-Cache"
	// HeaderRatio reports the compression ratio achieved by /v1/compress.
	HeaderRatio = "X-Primacy-Ratio"
)

func (s *Server) routes() {
	s.mux.HandleFunc("POST /v1/compress", s.work("compress", s.opCompress))
	s.mux.HandleFunc("POST /v1/decompress", s.work("decompress", s.opDecompress))
	s.mux.HandleFunc("POST /v1/archive/put", s.work("archive_put", s.opArchivePut))
	s.mux.HandleFunc("GET /v1/archive/get", s.work("archive_get", s.opArchiveGet))
	s.mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		io.WriteString(w, "ok\n")
	})
	s.mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if s.draining.Load() {
			w.Header().Set("Retry-After", "1")
			w.WriteHeader(http.StatusServiceUnavailable)
			io.WriteString(w, "draining\n")
			return
		}
		io.WriteString(w, "ready\n")
	})
	s.mux.HandleFunc("GET /statusz", s.handleStatusz)
	if s.cfg.Metrics != nil {
		s.mux.Handle("GET /metrics", s.cfg.Metrics.MetricsHandler())
	}
}

// request carries one admitted work request through its operation, plus the
// per-request observability state observe() reads at completion.
type request struct {
	ctx    context.Context
	tenant string
	body   []byte
	r      *http.Request

	id      string // request ID (header-honored or generated)
	route   string
	traceID string        // inbound W3C trace ID, "" when absent
	bytesIn int64         // request body bytes read
	wait    time.Duration // fair-share admission queue wait
	resp    *response     // operation result, nil on early refusal
	err     error         // operation error, nil on success or early refusal
}

// response is what an operation produced.
type response struct {
	body    []byte
	cache   CacheOutcome
	cached  bool // operation went through the result cache
	headers map[string]string
}

// httpError carries an explicit status through the operation path.
type httpError struct {
	status int
	msg    string
	err    error
}

func (e *httpError) Error() string {
	if e.err != nil {
		return fmt.Sprintf("%s: %v", e.msg, e.err)
	}
	return e.msg
}
func (e *httpError) Unwrap() error { return e.err }

func badRequest(msg string, err error) *httpError {
	return &httpError{status: http.StatusBadRequest, msg: msg, err: err}
}

// work wraps an operation with the request-robustness envelope: panic
// isolation, drain refusal, in-flight accounting, deadline propagation, body
// bounding, and fair-share admission — plus the per-request observability
// scope (request ID, span, labeled metrics, access log; see obs.go). The
// envelope owns every status-code decision so the operations only speak in
// data and errors.
func (s *Server) work(name string, op func(*request) (*response, error)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		started := time.Now()
		req, span := s.beginRequest(w, r, name)
		sw := &statusWriter{ResponseWriter: w}

		// Join the in-flight group before anything can write a response:
		// observe() runs (LIFO) before Done, so a drain cannot return until
		// every accepted request has flushed its log line and metrics.
		s.inflight.Add(1)
		defer s.inflight.Done()
		defer s.observe(sw, req, span, started)
		defer func() {
			// A handler panic must never take down the service: recover,
			// count it, and fail only this request. (Solver panics never
			// even reach here — the codec degrades the chunk instead.)
			if rec := recover(); rec != nil {
				s.met.panics.Inc()
				s.met.serverErr.Inc()
				http.Error(sw, fmt.Sprintf("internal error: %v", rec), http.StatusInternalServerError)
			}
		}()
		if s.draining.Load() {
			s.refuseDraining(sw)
			return
		}

		ctx, cancel, err := s.requestContext(r)
		if err != nil {
			s.met.clientErr.Inc()
			http.Error(sw, err.Error(), http.StatusBadRequest)
			return
		}
		defer cancel()
		// Carry the request span in the context so admission and codec spans
		// nest under it automatically.
		req.ctx = trace.ContextWithSpan(ctx, span)

		if r.Method == http.MethodPost {
			buf := bodyPool.Get().(*[]byte)
			body, herr := readBody(sw, r, s.cfg.MaxBodyBytes, *buf)
			defer func() {
				if cap(body) <= maxPooledBody {
					*buf = body[:0]
					bodyPool.Put(buf)
				}
			}()
			if herr != nil {
				s.met.clientErr.Inc()
				http.Error(sw, herr.Error(), herr.status)
				return
			}
			req.body = body
			req.bytesIn = int64(len(body))
		}

		resp, err := op(req)
		req.resp, req.err = resp, err
		s.finish(sw, resp, err)
	}
}

// maxPooledBody is the largest body buffer that goes back to bodyPool; one
// grown past it by a rare large upload is left to the collector instead of
// being pinned for every later small request.
const maxPooledBody = 4 << 20

// bodyPool recycles request body buffers across work requests.
var bodyPool = sync.Pool{New: func() any { return new([]byte) }}

// readBody reads r's body, at most limit bytes, into buf from its start and
// returns the grown buffer — also on error, so the caller can pool it. The
// buffer doubles only when the bytes that have arrived fill it: what is held
// for a body grows with the bytes received, never with what the client
// declares in Content-Length. A body over limit is a 413, any other read
// failure (the client went away or stalled past its deadline mid-upload) a
// 400.
//
// The buffer goes back to the pool when the handler returns, so nothing an
// operation returns — response body, cached result, archived entry — may
// alias req.body: each must be a fresh slice or a copy.
func readBody(w http.ResponseWriter, r *http.Request, limit int64, buf []byte) ([]byte, *httpError) {
	body := http.MaxBytesReader(w, r.Body, limit)
	buf = buf[:0]
	for {
		if len(buf) == cap(buf) {
			grown := make([]byte, len(buf), max(512, 2*cap(buf)))
			copy(grown, buf)
			buf = grown
		}
		n, err := body.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		switch {
		case err == io.EOF:
			return buf, nil
		case err != nil:
			var mbe *http.MaxBytesError
			if errors.As(err, &mbe) {
				return buf, &httpError{status: http.StatusRequestEntityTooLarge,
					msg: fmt.Sprintf("body exceeds %d bytes", mbe.Limit)}
			}
			return buf, badRequest("reading body", err)
		}
	}
}

// requestContext derives the per-request deadline context: request deadline
// (header, clamped) over the client connection context, force-cancelled when
// the server's base context dies during a forced drain.
func (s *Server) requestContext(r *http.Request) (context.Context, context.CancelFunc, error) {
	d := s.cfg.DefaultDeadline
	if h := r.Header.Get(HeaderDeadlineMs); h != "" {
		ms, err := strconv.ParseInt(h, 10, 64)
		if err != nil || ms <= 0 {
			return nil, nil, fmt.Errorf("invalid %s %q", HeaderDeadlineMs, h)
		}
		d = time.Duration(ms) * time.Millisecond
	}
	if d > s.cfg.MaxDeadline {
		d = s.cfg.MaxDeadline
	}
	ctx, cancel := context.WithTimeout(r.Context(), d)
	stop := context.AfterFunc(s.baseCtx, cancel)
	return ctx, func() { stop(); cancel() }, nil
}

func (s *Server) refuseDraining(w http.ResponseWriter) {
	s.met.drained.Inc()
	w.Header().Set("Retry-After", "1")
	http.Error(w, "draining", http.StatusServiceUnavailable)
}

// finish maps an operation outcome to the response wire: explicit overload
// (429), drain (503), deadline (504), client faults (4xx), everything else
// (500) — never a silent hang.
func (s *Server) finish(w http.ResponseWriter, resp *response, err error) {
	if err == nil {
		s.met.ok.Inc()
		if resp.cached {
			w.Header().Set(HeaderCache, cacheHeader(resp.cache))
			switch resp.cache {
			case CacheHit:
				s.met.cacheHit.Inc()
			case CacheShared:
				s.met.cacheShare.Inc()
			default:
				s.met.cacheMiss.Inc()
			}
		}
		for k, v := range resp.headers {
			w.Header().Set(k, v)
		}
		// A sized response leaves in one write instead of chunks, and the
		// client has its last byte without waiting for the handler to return.
		w.Header().Set("Content-Type", "application/octet-stream")
		w.Header().Set("Content-Length", strconv.Itoa(len(resp.body)))
		w.Write(resp.body)
		return
	}
	var herr *httpError
	switch {
	case errors.Is(err, fairshare.ErrQueueFull) || errors.Is(err, fairshare.ErrShed):
		s.met.shed.Inc()
		w.Header().Set("Retry-After", s.retryAfter())
		http.Error(w, err.Error(), http.StatusTooManyRequests)
	case errors.Is(err, context.DeadlineExceeded):
		if s.baseCtx.Err() != nil {
			// The deadline fired because a forced drain cancelled the base
			// context; report overload-go-away, not a client timeout.
			s.refuseDraining(w)
			return
		}
		s.met.deadline.Inc()
		http.Error(w, "deadline exceeded", http.StatusGatewayTimeout)
	case errors.Is(err, context.Canceled):
		if s.baseCtx.Err() != nil {
			s.refuseDraining(w)
			return
		}
		// The client abandoned the request; nothing useful to send, but
		// complete the exchange deterministically.
		s.met.clientErr.Inc()
		http.Error(w, "request cancelled", http.StatusBadRequest)
	case errors.As(err, &herr):
		if herr.status >= 500 {
			s.met.serverErr.Inc()
		} else {
			s.met.clientErr.Inc()
		}
		http.Error(w, herr.Error(), herr.status)
	case errors.Is(err, core.ErrCorrupt) || errors.Is(err, pipeline.ErrCorrupt) || errors.Is(err, stream.ErrCorrupt) || errors.Is(err, archive.ErrCorrupt):
		s.met.clientErr.Inc()
		http.Error(w, fmt.Sprintf("corrupt payload: %v", err), http.StatusUnprocessableEntity)
	default:
		s.met.serverErr.Inc()
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

func cacheHeader(o CacheOutcome) string {
	switch o {
	case CacheHit:
		return "hit"
	case CacheShared:
		return "shared"
	default:
		return "miss"
	}
}

// retryAfter derives the Retry-After hint from current pressure: one second
// per queued-work multiple of the concurrency budget, clamped to [1, 30].
func (s *Server) retryAfter() string {
	total, _ := s.adm.Queued("")
	conc := s.cfg.MaxConcurrent
	if conc <= 0 {
		conc = 64
	}
	secs := 1 + total/conc
	if secs > 30 {
		secs = 30
	}
	return strconv.Itoa(secs)
}

// codecOptions resolves per-request codec options (?solver= and ?precond=
// overrides).
func (s *Server) codecOptions(r *http.Request) (core.Options, error) {
	opts := core.Options{Solver: s.cfg.Solver, ChunkBytes: s.cfg.ChunkBytes}
	if sv := r.URL.Query().Get("solver"); sv != "" {
		if sv != "none" {
			if _, err := solver.Get(sv); err != nil {
				return opts, badRequest(fmt.Sprintf("unknown solver %q", sv), nil)
			}
		}
		opts.Solver = sv
	}
	if pc := r.URL.Query().Get("precond"); pc != "" {
		mode, err := precond.ParseSelectionMode(pc)
		if err != nil {
			return opts, badRequest(fmt.Sprintf("unknown precond mode %q", pc), nil)
		}
		opts.Precond = core.PrecondOptions{Selection: mode}
	}
	return opts, nil
}

// admit reserves fair-share capacity for the request and returns the
// release, accumulating the admission queue wait on the request so observe()
// can split total latency into queue wait vs. work time. The single-flight
// leader runs this on its own goroutine, so the write is race-free;
// followers never admit and report zero wait.
func (s *Server) admit(req *request, weight int64) (func(), error) {
	wait, err := s.adm.AcquireMeasured(req.ctx, req.tenant, weight)
	req.wait += wait
	if err != nil {
		return nil, err
	}
	return func() { s.adm.Release(weight) }, nil
}

// cacheKey addresses a work result by operation, options, and content
// checksum. CRC32C comes from the same integrity layer that frames the
// containers, so the cache key is free for data the codec will checksum
// anyway. Worker count is deliberately NOT part of the key: compressed
// output is byte-identical across worker counts (pipeline shard geometry
// depends only on input and chunk size) and decompressed output is fully
// determined by the container bytes, so keying on workers would only split
// the cache and miss on config changes.
func cacheKey(op string, opts core.Options, body []byte) string {
	return fmt.Sprintf("%s:%s:%08x:%d", op, optionsKey(opts), checksum.Sum(body), len(body))
}

// optionsKey spells out every codec option a request can set (see
// codecOptions), for keys of results that depend on them.
func optionsKey(opts core.Options) string {
	return fmt.Sprintf("%s:%d:%d:%d", opts.Solver, opts.ChunkBytes,
		opts.Precond.Selection, opts.Precond.Transform)
}

func (s *Server) opCompress(req *request) (*response, error) {
	if len(req.body) == 0 {
		return nil, badRequest("empty body", nil)
	}
	if len(req.body)%8 != 0 {
		return nil, badRequest(fmt.Sprintf("body length %d is not a multiple of 8 (float64 stream)", len(req.body)), nil)
	}
	opts, err := s.codecOptions(req.r)
	if err != nil {
		return nil, err
	}
	key := cacheKey("c", opts, req.body)
	out, outcome, err := s.cache.Do(req.ctx, key, func() ([]byte, error) {
		release, err := s.admit(req, int64(len(req.body)))
		if err != nil {
			return nil, err
		}
		defer release()
		// Always the pipeline, even at Workers==1: one code path, one
		// container format, and pooled per-worker codec arenas reused across
		// requests. Output bytes do not depend on the worker count.
		return pipeline.CompressCtx(req.ctx, req.body, pipeline.Options{Core: opts, Workers: s.cfg.Workers})
	})
	if err != nil {
		return nil, err
	}
	return &response{
		body:   out,
		cache:  outcome,
		cached: true,
		headers: map[string]string{
			HeaderRatio: fmt.Sprintf("%.4f", float64(len(req.body))/float64(len(out))),
		},
	}, nil
}

// codecPool recycles core.Codec scratch across bare-container (PRM)
// decompress requests, as pipeline's pool does for the shards of a parallel
// container: a request checks one out for its duration.
var codecPool = sync.Pool{New: func() any { return new(core.Codec) }}

func (s *Server) opDecompress(req *request) (*response, error) {
	if len(req.body) < 4 {
		return nil, badRequest("body too short to be a PRIMACY container", nil)
	}
	opts, err := s.codecOptions(req.r)
	if err != nil {
		return nil, err
	}
	// Decompress results are addressed by content alone (zero Options): the
	// output is fully determined by the container bytes — core and stream
	// readers take no options, and pipeline options only steer concurrency —
	// so keying on the request's parsed opts would needlessly split the
	// cache across ?solver=/?chunk= variants that decode identically.
	key := cacheKey("d", core.Options{}, req.body)
	out, outcome, err := s.cache.Do(req.ctx, key, func() ([]byte, error) {
		release, err := s.admit(req, int64(len(req.body)))
		if err != nil {
			return nil, err
		}
		defer release()
		switch string(req.body[:3]) {
		case "PRP":
			return pipeline.DecompressCtx(req.ctx, req.body, pipeline.Options{Core: opts, Workers: s.cfg.Workers})
		case "PRM":
			codec := codecPool.Get().(*core.Codec)
			defer codecPool.Put(codec)
			out, _, err := codec.AppendDecompressCtx(req.ctx, nil, req.body)
			return out, err
		case "PRS":
			// The output starts at the container's size: about what a stream
			// decodes to at least, and the container is in memory already,
			// so this exposes no memory a client did not send.
			var out bytes.Buffer
			out.Grow(len(req.body))
			_, err := out.ReadFrom(stream.NewReaderCtx(req.ctx, bytes.NewReader(req.body)))
			return out.Bytes(), err
		default:
			return nil, badRequest(fmt.Sprintf("unrecognized container magic %q", req.body[:3]), nil)
		}
	})
	if err != nil {
		return nil, err
	}
	return &response{body: out, cache: outcome, cached: true}, nil
}
