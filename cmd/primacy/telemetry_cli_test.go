package main

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"
)

// `primacy stats` compresses with telemetry enabled and dumps every metric.
func TestStatsSubcommandDumpsTelemetry(t *testing.T) {
	dir := t.TempDir()
	in := writeTestInput(t, dir, 8192)
	c, err := parseArgs([]string{"stats", "-chunk", "8192", in})
	if err != nil {
		t.Fatalf("parseArgs: %v", err)
	}
	var buf bytes.Buffer
	if err := c.run(&buf); err != nil {
		t.Fatalf("run: %v", err)
	}
	out := buf.String()
	for _, want := range []string{
		"primacy_core_chunks_total",
		"primacy_core_bytesplit_seconds",
		"primacy_pipeline_shards_total",
		"-> ", // the ratio line
	} {
		if !strings.Contains(out, want) {
			t.Errorf("stats output missing %q:\n%s", want, out)
		}
	}
	// The chunk counter must be nonzero: 8192 elements at 8 KiB chunks is
	// multiple chunks.
	if m := regexp.MustCompile(`primacy_core_chunks_total\s+(\d+)`).FindStringSubmatch(out); m == nil || m[1] == "0" {
		t.Fatalf("chunk counter missing or zero in:\n%s", out)
	}
}

// stats rejects -c / -d like verify does.
func TestStatsSubcommandValidation(t *testing.T) {
	if _, err := parseArgs([]string{"stats", "-c", "file"}); err == nil {
		t.Fatal("stats -c accepted")
	}
}

// holdWriter is the run's output sink for the hold test: writes are
// mutex-guarded (runCtx writes from its own goroutine), and held is closed
// once the "holding metrics endpoint" line is in — the one event after which
// the run has finished and an interrupt must be a clean exit.
type holdWriter struct {
	mu   sync.Mutex
	buf  bytes.Buffer
	held chan struct{}
	once sync.Once
}

func (w *holdWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	n, err := w.buf.Write(p)
	if bytes.Contains(w.buf.Bytes(), []byte("holding metrics endpoint")) {
		w.once.Do(func() { close(w.held) })
	}
	return n, err
}

// -metrics-addr serves live Prometheus metrics over HTTP; -metrics-hold
// keeps the endpoint up after the run so it stays scrapeable, and an
// interrupt during the hold is a clean exit.
func TestMetricsEndpointServesPrometheus(t *testing.T) {
	dir := t.TempDir()
	in := writeTestInput(t, dir, 8192)
	c, err := parseArgs([]string{"stats", "-chunk", "8192", "-metrics-addr", "127.0.0.1:0", "-metrics-hold", "30s", in})
	if err != nil {
		t.Fatalf("parseArgs: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	out := &holdWriter{held: make(chan struct{})}
	done := make(chan error, 1)
	go func() { done <- c.runCtx(ctx, out) }()

	// Wait for the hold itself, not for the first counter: a scrape can see
	// a nonzero chunk counter mid-run, and cancelling then is an interrupted
	// run (context.Canceled), not an interrupted hold.
	select {
	case <-out.held:
	case err := <-done:
		t.Fatalf("runCtx returned before the hold: %v", err)
	case <-time.After(30 * time.Second):
		t.Fatal("run never reached the metrics hold")
	}
	select {
	case <-c.metricsReady:
	default:
		t.Fatal("holding the metrics endpoint, but it was never announced ready")
	}

	// The run is over, so one scrape sees its final counters.
	resp, err := http.Get(c.metricsURL)
	if err != nil {
		t.Fatalf("GET %s: %v", c.metricsURL, err)
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("read body: %v", err)
	}
	body := string(b)
	if !regexp.MustCompile(`primacy_core_chunks_total ([1-9][0-9]*)`).MatchString(body) {
		t.Fatalf("chunk counter is not nonzero after the run; scrape:\n%s", body)
	}
	for _, want := range []string{
		"# TYPE primacy_core_chunks_total counter",
		"# TYPE primacy_core_bytesplit_seconds histogram",
		"primacy_core_bytesplit_seconds_count",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("scrape missing %q", want)
		}
	}

	// Interrupt during the hold: the run already succeeded, so runCtx
	// returns nil (exit 0 for CI's kill-and-wait).
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("runCtx after interrupt during hold = %v, want nil", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("runCtx did not return after cancel")
	}
}
