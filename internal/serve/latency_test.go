package serve

import (
	"sync"
	"testing"
	"time"
)

// TestPercentileNearestRank pins the nearest-rank definition against
// hand-computed values, including the degenerate sizes the ring hits during
// warm-up (empty, one sample) and the extreme p values.
func TestPercentileNearestRank(t *testing.T) {
	mk := func(n int) []time.Duration {
		s := make([]time.Duration, n)
		for i := range s {
			s[i] = time.Duration(i+1) * time.Millisecond
		}
		return s
	}
	cases := []struct {
		n    int
		p    float64
		want time.Duration
	}{
		{0, 50, 0},
		{1, 0, time.Millisecond},
		{1, 100, time.Millisecond},
		{4, 50, 2 * time.Millisecond}, // rank = round(4*0.5) = 2
		{4, 95, 4 * time.Millisecond}, // rank = round(3.8) = 4
		{100, 50, 50 * time.Millisecond},
		{100, 95, 95 * time.Millisecond},
		{100, 99, 99 * time.Millisecond},
		{100, 100, 100 * time.Millisecond},
		{10, 0, time.Millisecond}, // rank clamps to the first sample
	}
	for _, tc := range cases {
		if got := Percentile(mk(tc.n), tc.p); got != tc.want {
			t.Errorf("Percentile(n=%d, p=%v) = %v, want %v", tc.n, tc.p, got, tc.want)
		}
	}
}

// TestLatencyRingWindow pins the ring semantics: the window holds at most
// cap samples, the oldest are evicted first, count keeps the all-time
// total, and max is all-time (not windowed).
func TestLatencyRingWindow(t *testing.T) {
	r := newLatencyRing(4)
	for i := 1; i <= 6; i++ {
		r.record(time.Duration(i) * time.Millisecond)
	}
	s := r.stats()
	if s.Count != 6 {
		t.Errorf("count = %d, want 6", s.Count)
	}
	if s.Window != 4 {
		t.Errorf("window = %d, want 4", s.Window)
	}
	// Window now holds {3,4,5,6}ms: p50 = nearest-rank 2nd = 4ms.
	if s.P50MS != 4 {
		t.Errorf("p50 = %vms over window {3..6}ms, want 4", s.P50MS)
	}
	if s.MaxMS != 6 {
		t.Errorf("max = %vms, want 6", s.MaxMS)
	}

	// A degenerate cap is clamped to 1 rather than panicking.
	r1 := newLatencyRing(0)
	r1.record(7 * time.Millisecond)
	r1.record(9 * time.Millisecond)
	if s := r1.stats(); s.Window != 1 || s.P99MS != 9 {
		t.Errorf("cap-0 ring: window=%d p99=%v, want window 1 holding the last sample", s.Window, s.P99MS)
	}
}

// TestLatencyRingConcurrent hammers one ring with concurrent writers and
// readers under the race detector; afterwards the totals must be exact and
// every reported percentile must be a value that was actually recorded.
func TestLatencyRingConcurrent(t *testing.T) {
	const (
		writers = 8
		perW    = 2000
	)
	r := newLatencyRing(256)
	var readers, writersWG sync.WaitGroup
	stop := make(chan struct{})
	// Concurrent readers exercise stats() against in-flight record()s.
	for g := 0; g < 2; g++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
					s := r.stats()
					if s.P50MS > s.P95MS || s.P95MS > s.P99MS || s.P99MS > s.MaxMS {
						t.Errorf("percentiles out of order mid-run: %+v", s)
						return
					}
				}
			}
		}()
	}
	for g := 0; g < writers; g++ {
		writersWG.Add(1)
		go func(g int) {
			defer writersWG.Done()
			for i := 0; i < perW; i++ {
				// All samples in [1ms, 8ms]; every percentile must land in it.
				r.record(time.Duration(g+1) * time.Millisecond)
			}
		}(g)
	}
	writersWG.Wait()
	close(stop)
	readers.Wait()

	s := r.stats()
	if s.Count != writers*perW {
		t.Errorf("count = %d, want %d (lost or duplicated records)", s.Count, writers*perW)
	}
	if s.Window != 256 {
		t.Errorf("window = %d, want full ring 256", s.Window)
	}
	for name, v := range map[string]float64{"p50": s.P50MS, "p95": s.P95MS, "p99": s.P99MS, "max": s.MaxMS} {
		if v < 1 || v > float64(writers) {
			t.Errorf("%s = %vms outside the recorded range [1, %d]ms", name, v, writers)
		}
	}
}
