package fairshare

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// checkGoroutines fails the test if the goroutine count settles above the
// baseline (the chaos battery's leak-checker pattern).
func checkGoroutines(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		after := runtime.NumGoroutine()
		if after <= before+5 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutine leak: %d -> %d", before, after)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestNilAdmitterAdmitsEverything(t *testing.T) {
	var a *Admitter
	if err := a.Acquire(context.Background(), "x", 1<<40); err != nil {
		t.Fatal(err)
	}
	a.Release(1 << 40)
	if a.Overloaded() {
		t.Fatal("nil admitter reports overloaded")
	}
}

// A nil admitter holds nothing it admits: InFlight and Queued report zeros.
func TestNilAdmitterReportsNothing(t *testing.T) {
	var a *Admitter
	if err := a.Acquire(context.Background(), "", 1<<40); err != nil {
		t.Fatal(err)
	}
	if n, b := a.InFlight(); n != 0 || b != 0 {
		t.Fatalf("nil admitter reports in-flight work: %d, %d", n, b)
	}
	if total, forTenant := a.Queued(""); total != 0 || forTenant != 0 {
		t.Fatalf("nil admitter reports waiters: %d, %d", total, forTenant)
	}
	a.Release(1 << 40)
}

// The zero Admitter is not a usable gate: its queue bound is 0, so it fails
// closed with ErrQueueFull — it neither panics on its nil tenant map nor
// blocks — and holds nothing afterwards.
func TestZeroValueAdmitterFailsClosed(t *testing.T) {
	var a Admitter
	if err := a.Acquire(context.Background(), "", 1); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("zero admitter: got %v, want ErrQueueFull", err)
	}
	if n, b := a.InFlight(); n != 0 || b != 0 {
		t.Fatalf("zero admitter took capacity: %d, %d", n, b)
	}
}

// With one tenant the gate is a FIFO that never skips its head: releasing the
// held 100 admits the queued 80, not the 30 queued behind it — admitting the
// 30 first would leave the 80 too little room and starve it.
func TestFIFOOrder(t *testing.T) {
	a := New(Config{MemBudget: 100})
	ctx := context.Background()
	if err := a.Acquire(ctx, "", 100); err != nil {
		t.Fatal(err)
	}
	acquire := func(bytes int64, queued int) chan error {
		ch := make(chan error, 1)
		go func() { ch <- a.Acquire(ctx, "", bytes) }()
		waitQueued(t, a, "", queued)
		return ch
	}
	first := acquire(80, 1)
	second := acquire(30, 2)
	a.Release(100)
	if err := <-first; err != nil {
		t.Fatal(err)
	}
	if total, _ := a.Queued(""); total != 1 {
		t.Fatalf("%d waiters after the head was admitted, want the 30 still queued", total)
	}
	if _, b := a.InFlight(); b != 80 {
		t.Fatalf("in-flight bytes = %d, want 80", b)
	}
	a.Release(80)
	if err := <-second; err != nil {
		t.Fatal(err)
	}
	a.Release(30)
}

// With the byte budget full, the next acquire queues until a release makes
// room for it, whatever the concurrency cap allows.
func TestMemoryBudgetBlocks(t *testing.T) {
	a := New(Config{MemBudget: 100})
	ctx := context.Background()
	if err := a.Acquire(ctx, "", 60); err != nil {
		t.Fatal(err)
	}
	if err := a.Acquire(ctx, "", 40); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- a.Acquire(ctx, "", 50) }()
	waitQueued(t, a, "", 1)
	select {
	case <-done:
		t.Fatal("acquire admitted over budget")
	default:
	}
	a.Release(60)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if _, b := a.InFlight(); b != 90 {
		t.Fatalf("in-flight bytes = %d, want 90", b)
	}
	a.Release(40)
	a.Release(50)
}

// With the concurrency cap reached, the next acquire queues even though the
// byte budget has room.
func TestConcurrencyCapBlocks(t *testing.T) {
	a := New(Config{MemBudget: 1 << 20, MaxConcurrent: 2})
	ctx := context.Background()
	if err := a.Acquire(ctx, "", 1); err != nil {
		t.Fatal(err)
	}
	if err := a.Acquire(ctx, "", 1); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- a.Acquire(ctx, "", 1) }()
	waitQueued(t, a, "", 1)
	select {
	case <-done:
		t.Fatal("acquire admitted over the concurrency cap")
	default:
	}
	a.Release(1)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if n, _ := a.InFlight(); n != 2 {
		t.Fatalf("in-flight admissions = %d, want 2", n)
	}
	a.Release(1)
	a.Release(1)
}

// A waiter cancelled while queued returns context.Canceled, leaves the
// queue, and reserves nothing: once the holder releases, nothing is held.
func TestAcquireCancellation(t *testing.T) {
	a := New(Config{MemBudget: 10})
	bg := context.Background()
	if err := a.Acquire(bg, "", 10); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(bg)
	done := make(chan error, 1)
	go func() { done <- a.Acquire(ctx, "", 5) }()
	waitQueued(t, a, "", 1)
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled acquire returned %v, want context.Canceled", err)
	}
	if total, _ := a.Queued(""); total != 0 {
		t.Fatal("cancelled waiter left in queue")
	}
	a.Release(10)
	if n, b := a.InFlight(); n != 0 || b != 0 {
		t.Fatalf("capacity leaked: %d admissions, %d bytes", n, b)
	}
}

func TestAcquireOnDoneContext(t *testing.T) {
	a := New(Config{MemBudget: 100})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := a.Acquire(ctx, "", 1); !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	if n, b := a.InFlight(); n != 0 || b != 0 {
		t.Fatalf("done-context acquire took capacity: %d, %d", n, b)
	}
}

func TestReleaseWithoutAcquirePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("release without acquire did not panic")
		}
	}()
	New(Config{MemBudget: 100}).Release(10)
}

func TestImmediateAdmissionUnderCapacity(t *testing.T) {
	a := New(Config{MemBudget: 100, MaxConcurrent: 2})
	if err := a.Acquire(context.Background(), "a", 40); err != nil {
		t.Fatal(err)
	}
	if err := a.Acquire(context.Background(), "b", 40); err != nil {
		t.Fatal(err)
	}
	n, b := a.InFlight()
	if n != 2 || b != 80 {
		t.Fatalf("inflight = %d/%d, want 2/80", n, b)
	}
	a.Release(40)
	a.Release(40)
	if n, b := a.InFlight(); n != 0 || b != 0 {
		t.Fatalf("after release inflight = %d/%d, want 0/0", n, b)
	}
}

func TestOversizedRequestClampedNotDeadlocked(t *testing.T) {
	a := New(Config{MemBudget: 100, MaxConcurrent: 4})
	if err := a.Acquire(context.Background(), "a", 1<<40); err != nil {
		t.Fatal(err)
	}
	a.Release(1 << 40)
	if n, b := a.InFlight(); n != 0 || b != 0 {
		t.Fatalf("accounting asymmetric after clamp: %d/%d", n, b)
	}
}

// An oversized request holds exactly the whole budget while admitted, and
// Release applies the same clamp.
func TestOversizedRequestClamped(t *testing.T) {
	a := New(Config{MemBudget: 100})
	if err := a.Acquire(context.Background(), "", 1_000_000); err != nil {
		t.Fatal(err)
	}
	if _, b := a.InFlight(); b != 100 {
		t.Fatalf("clamped weight = %d, want the budget, 100", b)
	}
	a.Release(1_000_000)
	if n, b := a.InFlight(); n != 0 || b != 0 {
		t.Fatalf("asymmetric clamp leaked capacity: %d, %d", n, b)
	}
}

// Under sustained backlog, grants should track tenant weights: a weight-3
// tenant gets ~3x the bytes of a weight-1 tenant.
func TestWeightedFairShare(t *testing.T) {
	a := New(Config{
		MemBudget:          100,
		MaxConcurrent:      1,
		MaxQueuedPerTenant: 1000,
		MaxQueued:          10000,
		Weights:            map[string]int{"heavy": 3, "light": 1},
	})
	// Saturate the single slot so everything below queues.
	if err := a.Acquire(context.Background(), "plug", 1); err != nil {
		t.Fatal(err)
	}
	const perTenant = 120
	var heavy, light atomic.Int64
	var wg sync.WaitGroup
	start := make(chan struct{})
	for i := 0; i < perTenant; i++ {
		for _, tn := range []string{"heavy", "light"} {
			wg.Add(1)
			go func(tn string) {
				defer wg.Done()
				<-start
				if err := a.Acquire(context.Background(), tn, 10); err != nil {
					t.Error(err)
					return
				}
				if tn == "heavy" {
					heavy.Add(1)
				} else {
					light.Add(1)
				}
				a.Release(10)
			}(tn)
		}
	}
	close(start)
	// Wait for both backlogs to build before opening the gate, so the
	// scheduler sees contention rather than a racy trickle.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if th, _ := a.Queued("heavy"); th > 0 {
			if tl, _ := a.Queued("light"); tl > 0 {
				break
			}
		}
		if time.Now().After(deadline) {
			t.Fatal("backlog never built")
		}
		time.Sleep(time.Millisecond)
	}
	a.Release(1)
	wg.Wait()
	h, l := heavy.Load(), light.Load()
	if h != perTenant || l != perTenant {
		t.Fatalf("lost grants: heavy=%d light=%d", h, l)
	}
	if n, b := a.InFlight(); n != 0 || b != 0 {
		t.Fatalf("leaked capacity: %d/%d", n, b)
	}
}

// While both tenants are backlogged, the weight-3 tenant must stay ~3x ahead
// in served requests at every prefix of the grant order.
func TestWeightedOrderUnderBacklog(t *testing.T) {
	a := New(Config{
		MemBudget:          10,
		MaxConcurrent:      1,
		MaxQueuedPerTenant: 100,
		MaxQueued:          1000,
		Weights:            map[string]int{"heavy": 3, "light": 1},
	})
	if err := a.Acquire(context.Background(), "plug", 1); err != nil {
		t.Fatal(err)
	}
	type grant struct {
		tenant string
	}
	var mu sync.Mutex
	var order []grant
	var wg sync.WaitGroup
	enqueue := func(tn string, n int) {
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if err := a.Acquire(context.Background(), tn, 1); err != nil {
					t.Error(err)
					return
				}
				mu.Lock()
				order = append(order, grant{tn})
				mu.Unlock()
				a.Release(1)
			}()
			// Serialize enqueue order so per-tenant FIFO is deterministic.
			waitQueued(t, a, tn, i+1)
		}
	}
	enqueue("heavy", 30)
	enqueue("light", 30)
	a.Release(1)
	wg.Wait()
	heavySeen := 0
	lightSeen := 0
	for i, g := range order[:40] {
		if g.tenant == "heavy" {
			heavySeen++
		} else {
			lightSeen++
		}
		// With weights 3:1 the heavy tenant should never fall behind the
		// light one in any backlogged prefix (both stay backlogged for the
		// first 40 grants).
		if i >= 4 && heavySeen < lightSeen {
			t.Fatalf("after %d grants heavy=%d light=%d: weights not honored (%v)",
				i+1, heavySeen, lightSeen, order[:i+1])
		}
	}
}

func waitQueued(t *testing.T, a *Admitter, tenant string, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, n := a.Queued(tenant); n >= want {
			return
		}
		if time.Now().After(deadline) {
			_, n := a.Queued(tenant)
			t.Fatalf("tenant %s queue stuck at %d, want %d", tenant, n, want)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

func TestTenantQueueFullRejectsArrivals(t *testing.T) {
	a := New(Config{MemBudget: 1, MaxConcurrent: 1, MaxQueuedPerTenant: 2, MaxQueued: 100})
	if err := a.Acquire(context.Background(), "t", 1); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := a.Acquire(context.Background(), "t", 1); err != nil {
				t.Error(err)
				return
			}
			a.Release(1)
		}()
		waitQueued(t, a, "t", i+1)
	}
	err := a.Acquire(context.Background(), "t", 1)
	if !errors.Is(err, ErrQueueFull) {
		t.Fatalf("third waiter got %v, want ErrQueueFull", err)
	}
	// Another tenant still has room.
	done := make(chan error, 1)
	go func() {
		err := a.Acquire(context.Background(), "u", 1)
		if err == nil {
			a.Release(1)
		}
		done <- err
	}()
	waitQueued(t, a, "u", 1)
	a.Release(1)
	wg.Wait()
	if err := <-done; err != nil {
		t.Fatalf("other tenant blocked by full queue: %v", err)
	}
}

func TestShedOldestOnGlobalOverflow(t *testing.T) {
	a := New(Config{MemBudget: 1, MaxConcurrent: 1, MaxQueuedPerTenant: 100, MaxQueued: 3})
	if err := a.Acquire(context.Background(), "plug", 1); err != nil {
		t.Fatal(err)
	}
	// Backlog: hog has 2 queued, small has 1. The 4th arrival overflows the
	// global cap and must shed hog's oldest waiter.
	errs := make([]chan error, 3)
	acquire := func(tn string, want int) chan error {
		ch := make(chan error, 1)
		go func() {
			err := a.Acquire(context.Background(), tn, 1)
			if err == nil {
				a.Release(1)
			}
			ch <- err
		}()
		waitQueued(t, a, tn, want)
		return ch
	}
	errs[0] = acquire("hog", 1)
	errs[1] = acquire("hog", 2)
	errs[2] = acquire("small", 1)
	over := acquire("small", 2)
	// The overflow arrival shed hog's oldest (errs[0]).
	select {
	case err := <-errs[0]:
		if !errors.Is(err, ErrShed) {
			t.Fatalf("victim got %v, want ErrShed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("shed victim never woke")
	}
	if total, _ := a.Queued(""); total != 3 {
		t.Fatalf("queue depth after shed = %d, want 3", total)
	}
	a.Release(1)
	for i, ch := range []chan error{errs[1], errs[2], over} {
		select {
		case err := <-ch:
			if err != nil {
				t.Fatalf("survivor %d got %v", i, err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("survivor %d never admitted", i)
		}
	}
}

// A waiter whose context is cancelled mid-queue must release nothing it
// never held, leave the queue, and not leak a goroutine.
func TestCancelWhileQueued(t *testing.T) {
	before := runtime.NumGoroutine()
	a := New(Config{MemBudget: 10, MaxConcurrent: 1})
	if err := a.Acquire(context.Background(), "t", 10); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- a.Acquire(ctx, "t", 5) }()
	waitQueued(t, a, "t", 1)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled waiter got %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled waiter never returned")
	}
	if total, _ := a.Queued(""); total != 0 {
		t.Fatalf("cancelled waiter still queued (%d)", total)
	}
	a.Release(10)
	// Full budget must be available again.
	if err := a.Acquire(context.Background(), "t", 10); err != nil {
		t.Fatalf("budget leaked by cancelled waiter: %v", err)
	}
	a.Release(10)
	checkGoroutines(t, before)
}

func TestConcurrentChurnSettlesClean(t *testing.T) {
	before := runtime.NumGoroutine()
	a := New(Config{
		MemBudget:          1000,
		MaxConcurrent:      8,
		MaxQueuedPerTenant: 16,
		MaxQueued:          64,
	})
	var wg sync.WaitGroup
	var admitted, rejected, shed atomic.Int64
	for c := 0; c < 32; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			tn := fmt.Sprintf("t%d", c%5)
			for i := 0; i < 50; i++ {
				ctx := context.Background()
				if i%7 == 3 {
					var cancel context.CancelFunc
					ctx, cancel = context.WithTimeout(ctx, time.Duration(i%3)*time.Millisecond)
					defer cancel()
				}
				err := a.Acquire(ctx, tn, int64(10+i%40))
				switch {
				case err == nil:
					admitted.Add(1)
					runtime.Gosched()
					a.Release(int64(10 + i%40))
				case errors.Is(err, ErrQueueFull):
					rejected.Add(1)
				case errors.Is(err, ErrShed):
					shed.Add(1)
				case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
				default:
					t.Errorf("unexpected error: %v", err)
				}
			}
		}(c)
	}
	wg.Wait()
	if n, b := a.InFlight(); n != 0 || b != 0 {
		t.Fatalf("capacity leaked: %d admissions, %d bytes", n, b)
	}
	if total, _ := a.Queued(""); total != 0 {
		t.Fatalf("waiters leaked: %d", total)
	}
	if admitted.Load() == 0 {
		t.Fatal("nothing admitted")
	}
	checkGoroutines(t, before)
}

// A storm of one-tenant waiters cancelled while queued, racing grants as the
// full budget is churned underneath them, leaves no waiter, no reserved
// capacity and no goroutine behind, and a later full-budget acquire admits.
func TestCancelWhileQueuedStormLeaksNothing(t *testing.T) {
	before := runtime.NumGoroutine()
	a := New(Config{MemBudget: 100, MaxConcurrent: 2, MaxQueuedPerTenant: 128, MaxQueued: 128})
	bg := context.Background()
	if err := a.Acquire(bg, "", 100); err != nil {
		t.Fatal(err)
	}

	const waiters = 64
	var wg sync.WaitGroup
	var admitted, cancelled atomic.Int64
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ctx, cancel := context.WithCancel(bg)
			defer cancel()
			go func() {
				for j := 0; j < i%4; j++ {
					runtime.Gosched()
				}
				cancel()
			}()
			err := a.Acquire(ctx, "", 10)
			switch {
			case err == nil:
				admitted.Add(1)
				runtime.Gosched()
				a.Release(10)
			case errors.Is(err, context.Canceled):
				cancelled.Add(1)
			default:
				t.Errorf("unexpected acquire error: %v", err)
			}
		}(i)
	}
	// Churn grants underneath the cancellations so grant-vs-cancel races
	// actually happen.
	for i := 0; i < 20; i++ {
		a.Release(100)
		runtime.Gosched()
		if err := a.Acquire(bg, "", 100); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	a.Release(100)

	if admitted.Load()+cancelled.Load() != waiters {
		t.Fatalf("accounting: %d admitted + %d cancelled != %d waiters",
			admitted.Load(), cancelled.Load(), waiters)
	}
	if total, _ := a.Queued(""); total != 0 {
		t.Fatalf("%d waiters left queued after the storm", total)
	}
	if n, b := a.InFlight(); n != 0 || b != 0 {
		t.Fatalf("capacity leaked: %d admissions, %d bytes", n, b)
	}
	ctx, cancel := context.WithTimeout(bg, 5*time.Second)
	defer cancel()
	if err := a.Acquire(ctx, "", 100); err != nil {
		t.Fatalf("post-storm acquire: %v", err)
	}
	a.Release(100)
	checkGoroutines(t, before)
}
