package server

import (
	"sort"
	"sync"
	"time"

	"primacy/internal/telemetry"
)

// Rolling per-route SLO accounting. A request is "good" when it completed
// without a server-side failure (5xx) or shed (429) within the latency
// target; everything else burns error budget. The tracker keeps a rolling
// window of good/total counts per route in fixed time buckets and exports
// burn-rate gauges: burn rate 1.0 means bad requests are arriving exactly at
// the budgeted rate (the window will spend 100% of its budget), >1 means
// faster — the standard multi-window alerting input.

// SLO defaults, overridable via Config.
const (
	DefSLOTarget      = time.Second
	DefSLOWindow      = 5 * time.Minute
	DefSLOErrorBudget = 0.01
	sloBucketCount    = 30
)

// SLOConfig parameterizes the tracker (zero fields take the defaults).
type SLOConfig struct {
	// Target is the latency bound a request must meet to count as good.
	Target time.Duration
	// Window is the rolling accounting window.
	Window time.Duration
	// ErrorBudget is the tolerated bad fraction (0.01 = 99% objective).
	ErrorBudget float64
}

func (c SLOConfig) withDefaults() SLOConfig {
	if c.Target <= 0 {
		c.Target = DefSLOTarget
	}
	if c.Window <= 0 {
		c.Window = DefSLOWindow
	}
	if c.ErrorBudget <= 0 {
		c.ErrorBudget = DefSLOErrorBudget
	}
	return c
}

// SLOStatus is one route's rolling state, as reported on /statusz.
type SLOStatus struct {
	Route       string
	Good, Total int64
	BadFraction float64
	// BurnRate is BadFraction / ErrorBudget: 1.0 burns the budget exactly at
	// the sustainable rate.
	BurnRate float64
}

type sloBucket struct {
	epoch       int64 // bucket timestamp in bucket-width units; 0 = empty
	good, total int64
}

type sloRoute struct {
	buckets [sloBucketCount]sloBucket
}

// sloTracker is safe for concurrent use; a nil tracker no-ops.
type sloTracker struct {
	cfg      SLOConfig
	bucketNs int64

	requests *telemetry.CounterVec // primacyd_slo_requests_total{route,outcome}
	burn     *telemetry.GaugeVec   // primacyd_slo_burn_rate_milli{route}
	goodPct  *telemetry.GaugeVec   // primacyd_slo_good_milli{route}

	mu     sync.Mutex
	routes map[string]*sloRoute
}

func newSLOTracker(cfg SLOConfig, reg *telemetry.Registry) *sloTracker {
	cfg = cfg.withDefaults()
	return &sloTracker{
		cfg:      cfg,
		bucketNs: int64(cfg.Window) / sloBucketCount,
		requests: reg.CounterVec("primacyd_slo_requests_total",
			"Requests by SLO outcome (good = no 5xx/429 and within the latency target).",
			[]string{"route", "outcome"}),
		burn: reg.GaugeVec("primacyd_slo_burn_rate_milli",
			"Rolling-window error-budget burn rate x1000 (1000 = burning exactly at budget).",
			[]string{"route"}),
		goodPct: reg.GaugeVec("primacyd_slo_good_milli",
			"Rolling-window good-request fraction x1000.",
			[]string{"route"}),
		routes: make(map[string]*sloRoute),
	}
}

// record files one request outcome and refreshes the route's gauges.
func (t *sloTracker) record(route string, good bool, now time.Time) {
	if t == nil {
		return
	}
	outcome := "bad"
	if good {
		outcome = "good"
	}
	t.requests.With(route, outcome).Inc()

	epoch := now.UnixNano() / t.bucketNs
	t.mu.Lock()
	r := t.routes[route]
	if r == nil {
		r = &sloRoute{}
		t.routes[route] = r
	}
	b := &r.buckets[epoch%sloBucketCount]
	if b.epoch != epoch {
		b.epoch, b.good, b.total = epoch, 0, 0
	}
	b.total++
	if good {
		b.good++
	}
	goodSum, totalSum := r.window(epoch)
	t.mu.Unlock()

	if totalSum > 0 {
		bad := float64(totalSum-goodSum) / float64(totalSum)
		t.burn.With(route).Set(int64(bad / t.cfg.ErrorBudget * 1000))
		t.goodPct.With(route).Set(int64(float64(goodSum) / float64(totalSum) * 1000))
	}
}

// window sums the buckets still inside the rolling window ending at epoch
// (lock held).
func (r *sloRoute) window(epoch int64) (good, total int64) {
	min := epoch - sloBucketCount + 1
	for _, b := range r.buckets {
		if b.epoch >= min && b.epoch <= epoch && b.total > 0 {
			good += b.good
			total += b.total
		}
	}
	return good, total
}

// Status reports every route's rolling state, sorted by route.
func (t *sloTracker) Status(now time.Time) []SLOStatus {
	if t == nil {
		return nil
	}
	epoch := now.UnixNano() / t.bucketNs
	t.mu.Lock()
	out := make([]SLOStatus, 0, len(t.routes))
	for route, r := range t.routes {
		good, total := r.window(epoch)
		st := SLOStatus{Route: route, Good: good, Total: total}
		if total > 0 {
			st.BadFraction = float64(total-good) / float64(total)
			st.BurnRate = st.BadFraction / t.cfg.ErrorBudget
		}
		out = append(out, st)
	}
	t.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Route < out[j].Route })
	return out
}
