package core

import "primacy/internal/trace"

// EnableTracing is trace.Enable: it routes every package's spans, not only
// the codec's, to t. It stays only because bench/codec_trace.go calls it.
func EnableTracing(t *trace.Tracer) { trace.Enable(t) }
