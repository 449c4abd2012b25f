package fairshare

import (
	"context"
	"errors"
	"math"
	"runtime"
	"testing"
	"time"

	"primacy/internal/telemetry"
)

// AcquireMeasured reports zero wait on the fast-grant path and a positive
// wait after a blocked admission; Tenants snapshots the live backlog.

func TestAcquireMeasuredFastGrant(t *testing.T) {
	a := New(Config{MaxConcurrent: 2, MemBudget: 1 << 20})
	wait, err := a.AcquireMeasured(context.Background(), "acme", 100)
	if err != nil {
		t.Fatal(err)
	}
	if wait != 0 {
		t.Fatalf("fast grant measured wait %v, want 0", wait)
	}
	a.Release(100)

	var nilAdm *Admitter
	if w, err := nilAdm.AcquireMeasured(context.Background(), "x", 1); err != nil || w != 0 {
		t.Fatalf("nil admitter: wait=%v err=%v", w, err)
	}
}

func TestAcquireMeasuredBlockedWait(t *testing.T) {
	a := New(Config{MaxConcurrent: 1, MemBudget: 1 << 20})
	if err := a.Acquire(context.Background(), "hog", 10); err != nil {
		t.Fatal(err)
	}
	type res struct {
		wait time.Duration
		err  error
	}
	done := make(chan res, 1)
	go func() {
		w, err := a.AcquireMeasured(context.Background(), "acme", 10)
		done <- res{w, err}
	}()
	// Wait until the second request is actually queued, then hold it there
	// long enough for a measurable wait.
	for i := 0; ; i++ {
		if total, _ := a.Queued("acme"); total == 1 {
			break
		}
		if i > 1000 {
			t.Fatalf("waiter never queued")
		}
		time.Sleep(time.Millisecond)
	}
	time.Sleep(20 * time.Millisecond)
	a.Release(10)
	r := <-done
	if r.err != nil {
		t.Fatal(r.err)
	}
	if r.wait < 10*time.Millisecond {
		t.Fatalf("blocked wait = %v, want >= 10ms", r.wait)
	}
	a.Release(10)
}

// A blocked wait is read off one clock: the wait histogram's sum is exactly
// the waits AcquireMeasured returned, on the granted and the cancelled exit.
func TestWaitSecondsSumsReturnedWaits(t *testing.T) {
	reg := telemetry.NewRegistry()
	EnableTelemetry(reg)
	defer EnableTelemetry(nil)

	a := New(Config{MaxConcurrent: 1, MemBudget: 1 << 20})
	if err := a.Acquire(context.Background(), "hog", 10); err != nil {
		t.Fatal(err)
	}
	var total float64
	const rounds = 6
	for i := 0; i < rounds; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		type res struct {
			wait time.Duration
			err  error
		}
		done := make(chan res, 1)
		go func() {
			w, err := a.AcquireMeasured(ctx, "acme", 10)
			done <- res{w, err}
		}()
		for {
			if q, _ := a.Queued("acme"); q == 1 {
				break
			}
			runtime.Gosched()
		}
		// Even rounds are granted (and hold the slot for the next round);
		// odd rounds give up.
		if i%2 == 0 {
			a.Release(10)
		} else {
			cancel()
		}
		r := <-done
		cancel()
		if i%2 == 0 && r.err != nil || i%2 == 1 && !errors.Is(r.err, context.Canceled) {
			t.Fatalf("round %d: err = %v", i, r.err)
		}
		total += r.wait.Seconds()
	}
	a.Release(10)

	h, ok := reg.Snapshot().Histogram("primacy_fairshare_wait_seconds")
	if !ok || h.Count != rounds {
		t.Fatalf("wait histogram count = %d (registered %v), want %d", h.Count, ok, rounds)
	}
	if math.Abs(h.Sum-total) > 1e-12*total {
		t.Fatalf("wait histogram sum = %v s, returned waits sum to %v s", h.Sum, total)
	}
}

func TestTenantsSnapshot(t *testing.T) {
	a := New(Config{MaxConcurrent: 1, MemBudget: 1 << 20,
		Weights: map[string]int{"beta": 4}})
	if a.Tenants() != nil && len(a.Tenants()) != 0 {
		t.Fatalf("idle admitter reported tenants: %+v", a.Tenants())
	}
	if err := a.Acquire(context.Background(), "hog", 10); err != nil {
		t.Fatal(err)
	}
	release := func(name string, n int) {
		for i := 0; i < n; i++ {
			go a.Acquire(context.Background(), name, 50)
		}
	}
	release("acme", 2)
	release("beta", 1)
	for i := 0; ; i++ {
		at, _ := a.Queued("acme")
		if at == 3 {
			break
		}
		if i > 1000 {
			t.Fatalf("backlog never formed (total=%d)", at)
		}
		time.Sleep(time.Millisecond)
	}
	loads := a.Tenants()
	if len(loads) != 2 {
		t.Fatalf("tenants = %+v, want acme and beta", loads)
	}
	if loads[0].Name != "acme" || loads[1].Name != "beta" {
		t.Fatalf("not sorted by name: %+v", loads)
	}
	if loads[0].Queued != 2 || loads[0].QueuedBytes != 100 {
		t.Fatalf("acme load: %+v", loads[0])
	}
	if loads[1].Weight != 4 {
		t.Fatalf("beta weight: %+v", loads[1])
	}
	// Drain: one release admits one waiter at a time.
	for i := 0; i < 4; i++ {
		a.Release(func() int64 {
			if i == 0 {
				return 10
			}
			return 50
		}())
	}
	var nilAdm *Admitter
	if nilAdm.Tenants() != nil {
		t.Fatalf("nil admitter Tenants != nil")
	}
}
