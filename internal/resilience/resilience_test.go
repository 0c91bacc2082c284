package resilience

import (
	"context"
	"errors"
	"testing"
	"time"
)

var errBoom = errors.New("boom")
var errBadInput = errors.New("bad input")

// classifyTest is the test classifier: errBadInput is permanent, context
// errors are terminal, everything else retryable.
func classifyTest(err error) Class {
	switch {
	case errors.Is(err, errBadInput):
		return Permanent
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		return Terminal
	default:
		return Retryable
	}
}

// fastPolicy keeps test backoffs negligible.
func fastPolicy() Policy {
	return Policy{
		MaxAttempts: 3,
		BaseBackoff: time.Microsecond,
		MaxBackoff:  10 * time.Microsecond,
		Classify:    classifyTest,
	}
}

func TestNewRejectsBadConfig(t *testing.T) {
	if _, err := New(fastPolicy(), 0); err == nil {
		t.Error("New accepted zero rungs")
	}
	if _, err := New(Policy{}, 1); err == nil {
		t.Error("New accepted a nil classifier")
	}
}

// TestHappyPathZero proves a first-attempt success touches nothing: no
// retries, no degradations, no breaker state, and no allocations.
func TestHappyPathZero(t *testing.T) {
	s, err := New(fastPolicy(), 3)
	if err != nil {
		t.Fatal(err)
	}
	attempt := func(ctx context.Context, rung int) error { return nil }
	rung, err := s.Do(context.Background(), attempt)
	if err != nil || rung != 0 {
		t.Fatalf("Do = (%d, %v), want (0, nil)", rung, err)
	}
	if rc := s.Counters(); rc != (Counters{}) {
		t.Errorf("happy path recorded recovery events: %+v", rc)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := s.Do(context.Background(), attempt); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("happy-path Do allocates %.1f/op, want 0", allocs)
	}
}

// TestRetriesThenSucceeds: two transient failures inside the first rung's
// budget must be retried on the same rung and counted.
func TestRetriesThenSucceeds(t *testing.T) {
	s, err := New(fastPolicy(), 2)
	if err != nil {
		t.Fatal(err)
	}
	calls := 0
	rung, err := s.Do(context.Background(), func(ctx context.Context, rung int) error {
		calls++
		if calls < 3 {
			return errBoom
		}
		return nil
	})
	if err != nil || rung != 0 {
		t.Fatalf("Do = (%d, %v), want (0, nil)", rung, err)
	}
	if calls != 3 {
		t.Errorf("attempts = %d, want 3", calls)
	}
	rc := s.Counters()
	if rc.Retries != 2 || rc.Degradations != 0 {
		t.Errorf("recovery = %+v, want 2 retries, 0 degradations", rc)
	}
}

// TestDegradesToNextRung: a rung that always fails transiently exhausts
// its budget and the ladder steps down.
func TestDegradesToNextRung(t *testing.T) {
	s, err := New(fastPolicy(), 2)
	if err != nil {
		t.Fatal(err)
	}
	perRung := map[int]int{}
	rung, err := s.Do(context.Background(), func(ctx context.Context, rung int) error {
		perRung[rung]++
		if rung == 0 {
			return errBoom
		}
		return nil
	})
	if err != nil || rung != 1 {
		t.Fatalf("Do = (%d, %v), want (1, nil)", rung, err)
	}
	if perRung[0] != 3 || perRung[1] != 1 {
		t.Errorf("attempts per rung = %v, want {0:3, 1:1}", perRung)
	}
	rc := s.Counters()
	if rc.Retries != 2 || rc.Degradations != 1 {
		t.Errorf("recovery = %+v, want 2 retries, 1 degradation", rc)
	}
}

// TestSkipAdvancesWithoutRetry: a Skip-classified error moves down the
// ladder immediately, burning neither attempts nor backoff.
func TestSkipAdvancesWithoutRetry(t *testing.T) {
	errNoCan := errors.New("unsupported")
	p := fastPolicy()
	p.Classify = func(err error) Class {
		if errors.Is(err, errNoCan) {
			return Skip
		}
		return classifyTest(err)
	}
	s, err := New(p, 2)
	if err != nil {
		t.Fatal(err)
	}
	perRung := map[int]int{}
	rung, err := s.Do(context.Background(), func(ctx context.Context, rung int) error {
		perRung[rung]++
		if rung == 0 {
			return errNoCan
		}
		return nil
	})
	if err != nil || rung != 1 {
		t.Fatalf("Do = (%d, %v), want (1, nil)", rung, err)
	}
	if perRung[0] != 1 {
		t.Errorf("skipped rung attempted %d times, want 1", perRung[0])
	}
	if rc := s.Counters(); rc.Retries != 0 {
		t.Errorf("skip recorded %d retries, want 0", rc.Retries)
	}
}

// TestPermanentAborts: a permanent error must not consult lower rungs.
func TestPermanentAborts(t *testing.T) {
	s, err := New(fastPolicy(), 3)
	if err != nil {
		t.Fatal(err)
	}
	calls := 0
	_, derr := s.Do(context.Background(), func(ctx context.Context, rung int) error {
		calls++
		return errBadInput
	})
	if !errors.Is(derr, errBadInput) {
		t.Fatalf("Do = %v, want errBadInput", derr)
	}
	if calls != 1 {
		t.Errorf("permanent error attempted %d times, want 1", calls)
	}
}

// TestTerminalAborts: caller cancellation stops the ladder immediately.
func TestTerminalAborts(t *testing.T) {
	s, err := New(fastPolicy(), 3)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	calls := 0
	_, derr := s.Do(ctx, func(actx context.Context, rung int) error {
		calls++
		cancel()
		return ctx.Err()
	})
	if !errors.Is(derr, context.Canceled) {
		t.Fatalf("Do = %v, want context.Canceled", derr)
	}
	if calls != 1 {
		t.Errorf("canceled run attempted %d times, want 1", calls)
	}
}

// TestAttemptTimeoutIsRetryable: an attempt that blows only its per-attempt
// budget (caller context still live) must be retried, not treated as the
// caller's deadline.
func TestAttemptTimeoutIsRetryable(t *testing.T) {
	p := fastPolicy()
	p.AttemptTimeout = 5 * time.Millisecond
	s, err := New(p, 1)
	if err != nil {
		t.Fatal(err)
	}
	calls := 0
	rung, derr := s.Do(context.Background(), func(actx context.Context, rung int) error {
		calls++
		if calls == 1 {
			<-actx.Done() // hang until the attempt budget expires
			return actx.Err()
		}
		return nil
	})
	if derr != nil || rung != 0 {
		t.Fatalf("Do = (%d, %v), want (0, nil)", rung, derr)
	}
	if calls != 2 {
		t.Errorf("attempts = %d, want 2 (timeout then success)", calls)
	}
}

// TestDeadlineDerivedAttemptBudget: with a caller deadline and no explicit
// AttemptTimeout, each attempt gets a share of the remaining budget, so a
// hung first attempt still leaves room to retry.
func TestDeadlineDerivedAttemptBudget(t *testing.T) {
	s, err := New(fastPolicy(), 1)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
	defer cancel()
	calls := 0
	start := time.Now()
	rung, derr := s.Do(ctx, func(actx context.Context, rung int) error {
		calls++
		if calls == 1 {
			<-actx.Done()
			return actx.Err()
		}
		return nil
	})
	if derr != nil || rung != 0 {
		t.Fatalf("Do = (%d, %v) after %v, want (0, nil)", rung, derr, time.Since(start))
	}
	if calls != 2 {
		t.Errorf("attempts = %d, want 2", calls)
	}
	// The first attempt must have been cut well before the full deadline:
	// its share was ~1/3 of 300ms.
	if el := time.Since(start); el > 250*time.Millisecond {
		t.Errorf("run took %v, the per-attempt budget did not bound the hung attempt", el)
	}
}

// TestBreakerTripsAndCoolsDown: threshold consecutive failures open the
// breaker (ending the rung early), the open rung is skipped on the next
// Do, and after the cooldown the rung is probed again.
func TestBreakerTripsAndCoolsDown(t *testing.T) {
	p := fastPolicy()
	p.BreakerThreshold = 2
	p.BreakerCooldown = 30 * time.Millisecond
	s, err := New(p, 2)
	if err != nil {
		t.Fatal(err)
	}
	perRung := map[int]int{}
	fail0 := true
	attempt := func(ctx context.Context, rung int) error {
		perRung[rung]++
		if rung == 0 && fail0 {
			return errBoom
		}
		return nil
	}
	// First Do: rung 0 fails twice -> breaker trips -> rung 1 serves.
	rung, derr := s.Do(context.Background(), attempt)
	if derr != nil || rung != 1 {
		t.Fatalf("Do #1 = (%d, %v), want (1, nil)", rung, derr)
	}
	if perRung[0] != 2 {
		t.Errorf("rung 0 attempted %d times before trip, want 2", perRung[0])
	}
	if !s.BreakerOpen(0) {
		t.Error("breaker not open after threshold failures")
	}
	// Second Do while open: rung 0 must not be attempted at all.
	perRung = map[int]int{}
	rung, derr = s.Do(context.Background(), attempt)
	if derr != nil || rung != 1 {
		t.Fatalf("Do #2 = (%d, %v), want (1, nil)", rung, derr)
	}
	if perRung[0] != 0 {
		t.Errorf("open breaker still allowed %d attempts on rung 0", perRung[0])
	}
	rc := s.Counters()
	if rc.BreakerTrips != 1 {
		t.Errorf("breaker trips = %d, want 1", rc.BreakerTrips)
	}
	// After the cooldown the rung heals and serves again.
	time.Sleep(p.BreakerCooldown + 10*time.Millisecond)
	fail0 = false
	perRung = map[int]int{}
	rung, derr = s.Do(context.Background(), attempt)
	if derr != nil || rung != 0 {
		t.Fatalf("Do #3 = (%d, %v), want (0, nil)", rung, derr)
	}
	if s.BreakerOpen(0) {
		t.Error("breaker still open after a success")
	}
}

// TestAllRungsExhausted returns the last rung's error.
func TestAllRungsExhausted(t *testing.T) {
	s, err := New(fastPolicy(), 2)
	if err != nil {
		t.Fatal(err)
	}
	rung, derr := s.Do(context.Background(), func(ctx context.Context, rung int) error {
		return errBoom
	})
	if !errors.Is(derr, errBoom) || rung != 1 {
		t.Fatalf("Do = (%d, %v), want (1, errBoom)", rung, derr)
	}
}

// TestCancelDuringBackoffPrompt is the package-level half of the
// promptness acceptance: a cancel landing mid-backoff must return within
// milliseconds even when the configured backoff is seconds long.
func TestCancelDuringBackoffPrompt(t *testing.T) {
	p := fastPolicy()
	p.BaseBackoff = 10 * time.Second
	p.MaxBackoff = 10 * time.Second
	s, err := New(p, 1)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, derr := s.Do(ctx, func(ctx context.Context, rung int) error { return errBoom })
	elapsed := time.Since(start)
	if !errors.Is(derr, context.Canceled) {
		t.Fatalf("Do = %v, want context.Canceled", derr)
	}
	if elapsed > 500*time.Millisecond {
		t.Errorf("cancel during a 10s backoff took %v to return", elapsed)
	}
	t.Logf("canceled mid-backoff after %v", elapsed)
}

// TestBackoffShape: the exponential schedule is capped and jitter stays
// within its band.
func TestBackoffShape(t *testing.T) {
	p := Policy{
		MaxAttempts: 5,
		BaseBackoff: 10 * time.Millisecond,
		MaxBackoff:  40 * time.Millisecond,
		Multiplier:  2,
		Jitter:      0.2,
		Classify:    classifyTest,
	}
	s, err := New(p, 1)
	if err != nil {
		t.Fatal(err)
	}
	nominal := []time.Duration{10, 20, 40, 40} // ms, capped at MaxBackoff
	for i, n := range nominal {
		d := s.backoff(i + 1)
		lo := time.Duration(float64(n*time.Millisecond) * 0.8)
		hi := time.Duration(float64(n*time.Millisecond) * 1.2)
		if d < lo || d > hi {
			t.Errorf("backoff(%d) = %v, want within [%v, %v]", i+1, d, lo, hi)
		}
	}
}
