// Package fairshare is the one admission gate of the PRIMACY runtime: a
// bounded global memory budget and concurrency cap, per-tenant keyed queues
// scheduled by weighted fair sharing, bounded queues with explicit load
// shedding, and cancellation-safe waits.
//
// It answers "how much work may be in flight on this node" and, when the node
// is saturated, "whose work goes next". The in-situ paths (pipeline shards,
// stream segments) admit as the one tenant "", where the gate is a plain FIFO
// that never skips its head; primacyd admits per client tenant. Scheduling is
// start-time fair queuing over a virtual clock:
// each tenant carries a virtual time that advances by admitted-bytes/weight
// whenever one of its requests is granted, and the scheduler always grants
// the head of the backlogged tenant with the smallest virtual time. A tenant
// that becomes backlogged joins at the current clock, so idle periods earn
// no credit, and heads are never skipped, so a large request behind the
// budget cannot be starved by a stream of small ones.
//
// Queues are bounded two ways. A tenant whose own queue is full has new
// requests rejected immediately with ErrQueueFull — the shed signal a client
// turns into backoff. When the global queue overflows, the oldest waiter of
// the most-backlogged tenant is shed with ErrShed (newest requests carry the
// freshest deadlines, and the most-backlogged tenant is the one applying the
// pressure), so overload degrades to explicit rejections instead of
// unbounded queuing.
package fairshare

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"primacy/internal/telemetry"
	"primacy/internal/trace"
)

// ErrQueueFull rejects a request whose tenant queue is at capacity. The
// caller should surface it as retryable overload (HTTP 429).
var ErrQueueFull = errors.New("fairshare: tenant queue full")

// ErrShed reports a queued request dropped by shed-oldest when the global
// queue overflowed. The caller should surface it as retryable overload
// (HTTP 429).
var ErrShed = errors.New("fairshare: request shed under overload")

// Config bounds an Admitter. Zero limits are replaced by the documented
// defaults, not unlimited: the admitter exists to bound the service.
type Config struct {
	// MemBudget caps the sum of in-flight admitted bytes (default 256 MiB).
	MemBudget int64
	// MaxConcurrent caps in-flight admissions (default 2×GOMAXPROCS as set
	// by the caller; 0 here means 64).
	MaxConcurrent int
	// MaxQueuedPerTenant caps one tenant's waiters; arrivals beyond it get
	// ErrQueueFull (default 32).
	MaxQueuedPerTenant int
	// MaxQueued caps total waiters across tenants; beyond it the oldest
	// waiter of the most-backlogged tenant is shed with ErrShed
	// (default 256).
	MaxQueued int
	// DefaultWeight is the fair-share weight of tenants absent from Weights
	// (default 1; weights scale service rate under contention).
	DefaultWeight int
	// Weights assigns per-tenant fair-share weights (>= 1).
	Weights map[string]int
}

func (c Config) withDefaults() Config {
	if c.MemBudget <= 0 {
		c.MemBudget = 256 << 20
	}
	if c.MaxConcurrent <= 0 {
		c.MaxConcurrent = 64
	}
	if c.MaxQueuedPerTenant <= 0 {
		c.MaxQueuedPerTenant = 32
	}
	if c.MaxQueued <= 0 {
		c.MaxQueued = 256
	}
	if c.DefaultWeight <= 0 {
		c.DefaultWeight = 1
	}
	return c
}

// Admitter is a multi-tenant admission gate; construct it with New. All
// methods are safe for concurrent use. A nil *Admitter admits everything
// immediately; the zero Admitter, whose queues hold nothing, refuses every
// request with ErrQueueFull.
type Admitter struct {
	cfg Config

	mu       sync.Mutex
	memUsed  int64
	inFlight int
	queued   int
	// clock is the virtual time of the most recent grant; tenants becoming
	// backlogged join at this value.
	clock float64
	// tenants holds only currently-backlogged tenants, so memory stays
	// bounded by concurrent backlog, not tenant-ID cardinality.
	tenants map[string]*tenant
}

type tenant struct {
	name   string
	weight float64
	// vtime is the tenant's virtual finish time; the scheduler serves the
	// backlogged tenant with the smallest vtime.
	vtime float64
	queue []*waiter
}

type waiter struct {
	tenant *tenant
	bytes  int64
	ready  chan struct{}
	// Exactly one of granted/shed is set (under the admitter lock) before
	// ready is closed.
	granted bool
	shed    bool
}

// New returns an Admitter enforcing cfg (zero fields take the documented
// defaults).
func New(cfg Config) *Admitter {
	return &Admitter{cfg: cfg.withDefaults(), tenants: make(map[string]*tenant)}
}

func (a *Admitter) weightOf(name string) float64 {
	if w, ok := a.cfg.Weights[name]; ok && w > 0 {
		return float64(w)
	}
	return float64(a.cfg.DefaultWeight)
}

// clamp bounds a request weight to the budget so one oversized request is
// admitted alone once the gate drains, instead of deadlocking. Acquire and
// Release apply the same clamp, keeping their accounting symmetric.
func (a *Admitter) clamp(bytes int64) int64 {
	if bytes < 0 {
		bytes = 0
	}
	if bytes > a.cfg.MemBudget {
		bytes = a.cfg.MemBudget
	}
	return bytes
}

// admits reports whether a request of the given weight fits now (lock held).
func (a *Admitter) admits(bytes int64) bool {
	return a.memUsed+bytes <= a.cfg.MemBudget && a.inFlight < a.cfg.MaxConcurrent
}

// cost converts admitted bytes to virtual-clock advance; the 1-byte floor
// keeps a stream of empty requests from freezing a tenant's vtime.
func cost(bytes int64) float64 {
	if bytes < 1 {
		return 1
	}
	return float64(bytes)
}

// dispatch grants queued waiters in weighted fair order for as long as the
// budget admits the next head (lock held). Heads are never skipped:
// fair order is also the no-starvation order.
func (a *Admitter) dispatch(m *metrics) {
	for {
		var next *tenant
		for _, t := range a.tenants {
			if len(t.queue) == 0 {
				continue
			}
			if next == nil || t.vtime < next.vtime ||
				(t.vtime == next.vtime && t.name < next.name) {
				next = t
			}
		}
		if next == nil {
			return
		}
		w := next.queue[0]
		if !a.admits(w.bytes) {
			return
		}
		a.grantLocked(next, w, m)
	}
}

// grantLocked admits w (the head of t's queue), advancing the fair-share
// clock (lock held).
func (a *Admitter) grantLocked(t *tenant, w *waiter, m *metrics) {
	a.memUsed += w.bytes
	a.inFlight++
	a.clock = t.vtime
	t.vtime += cost(w.bytes) / t.weight
	t.queue = t.queue[1:]
	a.queued--
	if len(t.queue) == 0 {
		delete(a.tenants, t.name)
	}
	w.granted = true
	close(w.ready)
	if m != nil {
		m.queueDepth.Add(-1)
		m.inFlight.Add(1)
		m.inFlightBytes.Add(w.bytes)
	}
}

// removeLocked unlinks w from its tenant queue (lock held); reports whether
// it was still queued.
func (a *Admitter) removeLocked(w *waiter) bool {
	t := w.tenant
	for i, q := range t.queue {
		if q == w {
			t.queue = append(t.queue[:i], t.queue[i+1:]...)
			a.queued--
			if len(t.queue) == 0 {
				delete(a.tenants, t.name)
			}
			return true
		}
	}
	return false
}

// shedOldestLocked drops the oldest waiter of the most-backlogged tenant
// (lock held). Returns the victim (never nil while anything is queued).
func (a *Admitter) shedOldestLocked(m *metrics) *waiter {
	var worst *tenant
	for _, t := range a.tenants {
		if len(t.queue) == 0 {
			continue
		}
		if worst == nil || len(t.queue) > len(worst.queue) ||
			(len(t.queue) == len(worst.queue) && t.name < worst.name) {
			worst = t
		}
	}
	if worst == nil {
		return nil
	}
	v := worst.queue[0]
	a.removeLocked(v)
	v.shed = true
	close(v.ready)
	if m != nil {
		m.shed.Inc()
		m.queueDepth.Add(-1)
	}
	return v
}

// Acquire blocks until the request is admitted under the tenant's fair
// share, or fails fast with ErrQueueFull (tenant queue at capacity), fails
// with ErrShed (dropped by shed-oldest under global overflow), or returns
// ctx.Err() when the caller gives up. Every nil return must be paired with a
// Release of the same weight. A nil Admitter admits immediately.
func (a *Admitter) Acquire(ctx context.Context, tenantName string, bytes int64) error {
	_, err := a.AcquireMeasured(ctx, tenantName, bytes)
	return err
}

// AcquireMeasured is Acquire plus the time the request spent queued behind
// the fair-share gate — zero on the fast-grant path (no clock read). The
// server splits request latency into queue wait vs. work time with it.
func (a *Admitter) AcquireMeasured(ctx context.Context, tenantName string, bytes int64) (wait time.Duration, err error) {
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	if a == nil {
		return 0, nil
	}
	m := tmet.Load()
	bytes = a.clamp(bytes)

	a.mu.Lock()
	t, ok := a.tenants[tenantName]
	if !ok {
		// Joining the backlog at the current clock means idle periods earn
		// no scheduling credit.
		t = &tenant{name: tenantName, weight: a.weightOf(tenantName), vtime: a.clock}
	}
	if len(t.queue) >= a.cfg.MaxQueuedPerTenant {
		a.mu.Unlock()
		if m != nil {
			m.rejected.Inc()
		}
		return 0, fmt.Errorf("%w (tenant %q, %d queued)", ErrQueueFull, tenantName, a.cfg.MaxQueuedPerTenant)
	}
	if !ok {
		a.tenants[tenantName] = t
	}
	w := &waiter{tenant: t, bytes: bytes, ready: make(chan struct{})}
	t.queue = append(t.queue, w)
	a.queued++
	if m != nil {
		m.queueDepth.Add(1)
	}
	// Dispatch in fair order; if capacity is free and this waiter wins, its
	// ready channel is already closed when we reach the select below.
	a.dispatch(m)
	if !w.granted && a.queued > a.cfg.MaxQueued {
		a.shedOldestLocked(m)
	}
	// Snapshot the outcome under the lock: once it is dropped, a concurrent
	// Release may grant (or a later arrival shed) this waiter at any moment,
	// and the only safe unlock-free read is after <-w.ready.
	granted, shedded := w.granted, w.shed
	a.mu.Unlock()

	if granted {
		if m != nil {
			m.admitted.Inc()
		}
		return 0, nil
	}
	if shedded {
		return 0, fmt.Errorf("%w (tenant %q)", ErrShed, tenantName)
	}
	if m != nil {
		m.blocked.Inc()
	}
	waitStart := time.Now()
	var sp telemetry.Span
	if m != nil {
		sp = m.waitSeconds.Start()
	}
	ts := trace.Start(trace.SpanFromContext(ctx), "fairshare.wait").
		AttrStr("tenant", tenantName).Attr("bytes", bytes)
	ts.Event(trace.KindGovernorWait, "admission blocked on fair-share budget")
	select {
	case <-w.ready:
		wait = time.Since(waitStart)
		sp.End()
		if w.shed {
			ts.Anomaly(trace.KindGovernorCancelled, "queued request shed under overload")
			ts.End(ErrShed)
			return wait, fmt.Errorf("%w (tenant %q)", ErrShed, tenantName)
		}
		if m != nil {
			m.admitted.Inc()
		}
		ts.End(nil)
		return wait, nil
	case <-ctx.Done():
		wait = time.Since(waitStart)
		a.mu.Lock()
		if w.granted {
			// A grant raced the cancellation; hand the capacity back before
			// reporting the cancellation.
			a.mu.Unlock()
			if m != nil {
				m.cancelled.Inc()
			}
			a.Release(bytes)
			sp.End()
			ts.Anomaly(trace.KindGovernorCancelled, "wait cancelled after grant raced cancellation")
			ts.End(ctx.Err())
			return wait, ctx.Err()
		}
		if w.shed {
			a.mu.Unlock()
			sp.End()
			ts.Anomaly(trace.KindGovernorCancelled, "queued request shed under overload")
			ts.End(ErrShed)
			return wait, fmt.Errorf("%w (tenant %q)", ErrShed, tenantName)
		}
		a.removeLocked(w)
		a.mu.Unlock()
		if m != nil {
			m.cancelled.Inc()
			m.queueDepth.Add(-1)
		}
		sp.End()
		ts.Anomaly(trace.KindGovernorCancelled, "wait cancelled before admission")
		ts.End(ctx.Err())
		return wait, ctx.Err()
	}
}

// Release returns capacity admitted by a successful Acquire (same weight)
// and dispatches queued waiters in fair order.
func (a *Admitter) Release(bytes int64) {
	if a == nil {
		return
	}
	m := tmet.Load()
	bytes = a.clamp(bytes)
	a.mu.Lock()
	defer a.mu.Unlock()
	a.memUsed -= bytes
	a.inFlight--
	if a.memUsed < 0 || a.inFlight < 0 {
		panic(fmt.Sprintf("fairshare: release without acquire (mem=%d inflight=%d)",
			a.memUsed, a.inFlight))
	}
	if m != nil {
		m.inFlight.Add(-1)
		m.inFlightBytes.Add(-bytes)
	}
	a.dispatch(m)
}

// InFlight reports current admissions and admitted bytes.
func (a *Admitter) InFlight() (admissions int, bytes int64) {
	if a == nil {
		return 0, 0
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.inFlight, a.memUsed
}

// Queued reports the total queued waiters and the count for one tenant.
func (a *Admitter) Queued(tenantName string) (total, forTenant int) {
	if a == nil {
		return 0, 0
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if t, ok := a.tenants[tenantName]; ok {
		forTenant = len(t.queue)
	}
	return a.queued, forTenant
}

// TenantLoad is one backlogged tenant's live queue state, as reported by
// Tenants for the /statusz ops console.
type TenantLoad struct {
	Name        string
	Weight      int
	Queued      int
	QueuedBytes int64
	// VTime is the tenant's virtual finish time relative to the scheduler
	// clock; the smallest backlogged VTime is served next.
	VTime float64
}

// Tenants snapshots the currently-backlogged tenants, sorted by name. Idle
// tenants are absent by design — the admitter forgets a tenant the moment
// its queue drains, so this is queue state, not an account roster.
func (a *Admitter) Tenants() []TenantLoad {
	if a == nil {
		return nil
	}
	a.mu.Lock()
	out := make([]TenantLoad, 0, len(a.tenants))
	for _, t := range a.tenants {
		var qb int64
		for _, w := range t.queue {
			qb += w.bytes
		}
		out = append(out, TenantLoad{
			Name:        t.name,
			Weight:      int(t.weight),
			Queued:      len(t.queue),
			QueuedBytes: qb,
			VTime:       t.vtime - a.clock,
		})
	}
	a.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Overloaded reports whether the gate is saturated (work would queue right
// now) — the readiness signal behind Retry-After hints.
func (a *Admitter) Overloaded() bool {
	if a == nil {
		return false
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.queued > 0 || !a.admits(1)
}
