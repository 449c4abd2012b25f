package fairshare

import (
	"sync/atomic"

	"primacy/internal/telemetry"
)

// metrics bundles the admitter's telemetry handles: they are registered once
// at enable time, hot paths load the bundle pointer (one atomic load + nil
// check) and record through nil-safe handles.
type metrics struct {
	// admitted counts successful admissions; blocked the subset that had to
	// queue; cancelled waits abandoned via context.
	admitted  *telemetry.Counter
	blocked   *telemetry.Counter
	cancelled *telemetry.Counter
	// rejected counts arrivals bounced by a full tenant queue; shed counts
	// queued waiters dropped by shed-oldest under global overflow.
	rejected *telemetry.Counter
	shed     *telemetry.Counter
	// waitSeconds observes how long blocked Acquire calls queued.
	waitSeconds *telemetry.Histogram
	// queueDepth, inFlight, and inFlightBytes are delta-tracked gauges.
	queueDepth    *telemetry.Gauge
	inFlight      *telemetry.Gauge
	inFlightBytes *telemetry.Gauge
}

var tmet atomic.Pointer[metrics]

// EnableTelemetry registers the fair-share admitter's metrics on r and
// starts recording; a nil r disables recording. Enable before admitting work
// — gauges track deltas, so flipping telemetry mid-flight skews them until
// in-flight admissions drain.
func EnableTelemetry(r *telemetry.Registry) {
	if r == nil {
		tmet.Store(nil)
		return
	}
	tmet.Store(&metrics{
		admitted:      r.Counter("primacy_fairshare_admitted_total", "Admissions granted."),
		blocked:       r.Counter("primacy_fairshare_blocked_total", "Acquires that queued before admission."),
		cancelled:     r.Counter("primacy_fairshare_cancelled_total", "Queued acquires abandoned by context cancellation."),
		rejected:      r.Counter("primacy_fairshare_rejected_total", "Arrivals rejected by a full tenant queue."),
		shed:          r.Counter("primacy_fairshare_shed_total", "Queued waiters dropped by shed-oldest under global overflow."),
		waitSeconds:   r.Histogram("primacy_fairshare_wait_seconds", "Queue time of blocked acquires.", nil),
		queueDepth:    r.Gauge("primacy_fairshare_queue_depth", "Acquires currently queued."),
		inFlight:      r.Gauge("primacy_fairshare_inflight", "Admissions currently held."),
		inFlightBytes: r.Gauge("primacy_fairshare_inflight_bytes", "Bytes of input currently admitted."),
	})
}
