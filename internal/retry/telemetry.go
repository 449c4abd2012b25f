package retry

import (
	"sync/atomic"

	"primacy/internal/telemetry"
)

// metrics bundles the retry layer's telemetry handles; see the fairshare
// package for the bundle-pointer pattern.
type metrics struct {
	// attempts counts every operation try; retries counts the tries that
	// followed a transient failure (a retry storm shows up here first).
	attempts *telemetry.Counter
	retries  *telemetry.Counter
	// exhausted counts operations that failed with a retryable error after
	// the attempt budget ran out.
	exhausted *telemetry.Counter
	// backoffSeconds observes each backoff delay as it is taken.
	backoffSeconds *telemetry.Histogram
}

var tmet atomic.Pointer[metrics]

// EnableTelemetry registers the retry metrics on r and starts recording; a
// nil r disables recording.
func EnableTelemetry(r *telemetry.Registry) {
	if r == nil {
		tmet.Store(nil)
		return
	}
	tmet.Store(&metrics{
		attempts:       r.Counter("primacy_retry_attempts_total", "Operation tries, including first attempts."),
		retries:        r.Counter("primacy_retry_retries_total", "Tries re-run after a transient failure."),
		exhausted:      r.Counter("primacy_retry_exhausted_total", "Operations abandoned after the attempt budget."),
		backoffSeconds: r.Histogram("primacy_retry_backoff_seconds", "Backoff delay before each retry.", nil),
	})
}
