package stream

import (
	"sync/atomic"

	"primacy/internal/telemetry"
)

// streamMetrics bundles the streaming adapters' telemetry handles. The bundle
// pointer is loaded once per segment, so the disabled path costs one atomic
// load + nil check.
type streamMetrics struct {
	// Writer side.
	segments *telemetry.Counter
	segBytes *telemetry.Counter
	segRaw   *telemetry.Counter
	segSecs  *telemetry.Histogram
	// Salvage side (DecompressSalvage).
	salvageFaults *telemetry.Counter
	resyncs       *telemetry.Counter
}

var tmet atomic.Pointer[streamMetrics]

// EnableTelemetry registers the streaming adapters' metrics on r and starts
// recording; a nil r disables recording.
func EnableTelemetry(r *telemetry.Registry) {
	if r == nil {
		tmet.Store(nil)
		return
	}
	tmet.Store(&streamMetrics{
		segments:      r.Counter("primacy_stream_segments_total", "Segments emitted by stream writers."),
		segBytes:      r.Counter("primacy_stream_segment_bytes_total", "Compressed segment bytes emitted (payload, not framing)."),
		segRaw:        r.Counter("primacy_stream_raw_bytes_total", "Raw bytes consumed into emitted segments."),
		segSecs:       r.Histogram("primacy_stream_segment_seconds", "Per-segment compress-and-write time, including admission wait.", nil),
		salvageFaults: r.Counter("primacy_stream_salvage_faults_total", "Faults recorded while salvaging damaged streams."),
		resyncs:       r.Counter("primacy_stream_salvage_resyncs_total", "Resync scans performed while salvaging damaged streams."),
	})
}
