package sched

import (
	"context"
	"errors"
	"fmt"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestMain forces a multi-worker pool before its lazy first-use sizing:
// the CI container is single-core, and with GOMAXPROCS=1 every call takes
// the serial fast path, leaving the pool, panic-containment, and drain
// logic untested. A GOMAXPROCS set in the environment is kept, so that
// `GOMAXPROCS=2 go test` runs the pool at two workers.
func TestMain(m *testing.M) {
	if os.Getenv("GOMAXPROCS") == "" {
		runtime.GOMAXPROCS(4)
	}
	m.Run()
}

func TestRunCoversEveryIndexOnce(t *testing.T) {
	for _, n := range []int{0, 1, 2, 3, 7, 64, 1000, 4097} {
		hits := make([]int32, n)
		Run(n, func(i int) { atomic.AddInt32(&hits[i], 1) })
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("n=%d: index %d executed %d times", n, i, h)
			}
		}
	}
}

func TestRunChunksPartitionsRange(t *testing.T) {
	for _, n := range []int{1, 5, 63, 64, 65, 1000} {
		hits := make([]int32, n)
		var calls int32
		RunChunks(n, func(lo, hi int) {
			if lo < 0 || hi > n || lo >= hi {
				t.Errorf("n=%d: bad chunk [%d, %d)", n, lo, hi)
			}
			atomic.AddInt32(&calls, 1)
			for i := lo; i < hi; i++ {
				atomic.AddInt32(&hits[i], 1)
			}
		})
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("n=%d: index %d covered %d times", n, i, h)
			}
		}
		if calls == 0 {
			t.Fatalf("n=%d: no chunks executed", n)
		}
	}
}

func TestNestedRunCompletes(t *testing.T) {
	var total int64
	Run(8, func(i int) {
		Run(16, func(j int) { atomic.AddInt64(&total, 1) })
	})
	if total != 8*16 {
		t.Fatalf("nested total = %d, want %d", total, 8*16)
	}
}

func TestConcurrentRuns(t *testing.T) {
	var wg sync.WaitGroup
	var total int64
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			Run(1000, func(i int) { atomic.AddInt64(&total, 1) })
		}()
	}
	wg.Wait()
	if total != 8*1000 {
		t.Fatalf("concurrent total = %d, want %d", total, 8*1000)
	}
}

func TestWorkersPositive(t *testing.T) {
	if Workers() < 1 {
		t.Fatalf("Workers() = %d", Workers())
	}
}

// TestFullQueueCompletesOnCaller reproduces the wake-loop bug: with every
// pool worker blocked in another job and the job queue full, submit's wake
// sends all hit the default case, and the early exit must break out of the
// loop so the caller completes the job alone rather than mis-iterating.
func TestFullQueueCompletesOnCaller(t *testing.T) {
	if Workers() == 1 {
		t.Skip("needs a worker pool")
	}
	gate := make(chan struct{})
	var blocked atomic.Int32
	blockers := make([]*job, Workers()-1)
	// Open the gate on every exit, a failure's included, and wait for the
	// blockers and the stale jobs, so that no later test finds the pool
	// parked or its wake-ups landing behind them.
	defer func() {
		close(gate)
		for _, b := range blockers {
			if b != nil {
				b.fin.Wait()
			}
		}
		for len(jobs) > 0 {
			runtime.Gosched()
		}
	}()
	for i := range blockers {
		b := &job{n: 1, chunk: 1}
		b.fin.Add(1)
		b.refs.Store(2) // the wake-up's and this test's, never released: not recycled
		b.fnIdx = func(int) {
			blocked.Add(1)
			<-gate
		}
		blockers[i] = b
		jobs <- b
	}
	for blocked.Load() != int32(len(blockers)) {
		runtime.Gosched()
	}
	// Every worker is now parked inside a blocker; stuff the queue full of
	// stale no-op jobs so the next submit's wake sends cannot land.
	var stale int
fill:
	for {
		select {
		case jobs <- staleJob():
			stale++
		default:
			break fill
		}
	}
	if stale != cap(jobs) {
		t.Fatalf("filled %d jobs, want capacity %d", stale, cap(jobs))
	}

	done := make(chan struct{})
	hits := make([]int32, 1000)
	go func() {
		defer close(done)
		Run(len(hits), func(i int) { atomic.AddInt32(&hits[i], 1) })
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Run hung with a full job queue")
	}
	for i, h := range hits {
		if h != 1 {
			t.Fatalf("index %d executed %d times", i, h)
		}
	}
}

// staleJob is a wake-up for a region that is already over: nothing to claim.
// The extra reference keeps it out of the pool.
func staleJob() *job {
	j := new(job)
	j.refs.Store(2)
	return j
}

// TestPanicReRaisedOnCaller: a body panic on any participant must surface
// as a panic on the submitting goroutine with the original value, and the
// pool must keep working afterwards.
func TestPanicReRaisedOnCaller(t *testing.T) { inEachMode(t, testPanicReRaisedOnCaller) }

func testPanicReRaisedOnCaller(t *testing.T) {
	for _, form := range []string{"run", "chunks"} {
		got := func() (r any) {
			defer func() { r = recover() }()
			if form == "run" {
				Run(1000, func(i int) {
					if i == 417 {
						panic("boom-417")
					}
				})
			} else {
				RunChunks(1000, func(lo, hi int) {
					if lo <= 417 && 417 < hi {
						panic("boom-417")
					}
				})
			}
			return nil
		}()
		if got != "boom-417" {
			t.Fatalf("%s: recovered %v, want boom-417", form, got)
		}
		// Pool survives: a fresh region still covers every index.
		var total int64
		Run(500, func(int) { atomic.AddInt64(&total, 1) })
		if total != 500 {
			t.Fatalf("%s: post-panic Run covered %d/500", form, total)
		}
	}
}

// TestPanicOnEveryParticipant: all participants panic concurrently; exactly
// one value is re-raised and submit does not hang on fin.
func TestPanicOnEveryParticipant(t *testing.T) { inEachMode(t, testPanicOnEveryParticipant) }

func testPanicOnEveryParticipant(t *testing.T) {
	got := func() (r any) {
		defer func() { r = recover() }()
		Run(10000, func(i int) { panic(i) })
		return nil
	}()
	if _, ok := got.(int); !ok {
		t.Fatalf("recovered %T(%v), want an index", got, got)
	}
}

// TestDrainAfterPanic verifies the drain guarantee: once Run has re-raised
// a panic, no participant is still executing the body, so the caller may
// immediately reuse the body's buffers without synchronization. Run under
// -race this fails loudly if a straggler is still writing.
func TestDrainAfterPanic(t *testing.T) { inEachMode(t, testDrainAfterPanic) }

func testDrainAfterPanic(t *testing.T) {
	for iter := 0; iter < 50; iter++ {
		buf := make([]int, 4096)
		func() {
			defer func() { recover() }()
			Run(len(buf), func(i int) {
				buf[i] = i
				if i == 2048 {
					panic("abort")
				}
			})
		}()
		// Unsynchronized reuse: legal only if the job fully drained.
		for i := range buf {
			buf[i] = -1
		}
	}
}

func TestRunCtxNilAndBackground(t *testing.T) {
	var total int64
	if err := RunCtx(nil, 1000, func(int) { atomic.AddInt64(&total, 1) }); err != nil {
		t.Fatalf("nil ctx: %v", err)
	}
	if err := RunCtx(context.Background(), 1000, func(int) { atomic.AddInt64(&total, 1) }); err != nil {
		t.Fatalf("background ctx: %v", err)
	}
	if total != 2000 {
		t.Fatalf("total = %d, want 2000", total)
	}
}

func TestRunCtxCanceledBeforeStart(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var ran int64
	err := RunCtx(ctx, 100000, func(int) { atomic.AddInt64(&ran, 1) })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if ran != 0 {
		t.Fatalf("%d indices ran under a pre-canceled context", ran)
	}
}

// TestRunCtxCancelMidway cancels from inside the body and checks the region
// stops within one chunk per participant instead of finishing the range.
func TestRunCtxCancelMidway(t *testing.T) { inEachMode(t, testRunCtxCancelMidway) }

func testRunCtxCancelMidway(t *testing.T) {
	const n = 1 << 20
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var ran int64
	err := RunCtx(ctx, n, func(i int) {
		if atomic.AddInt64(&ran, 1) == 100 {
			cancel()
		}
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// Each participant may finish the chunk it already claimed; nothing
	// beyond one chunk each may run after the cancel.
	limit := int64(Workers()+1) * int64(n/chunksPerWorker+1)
	if got := atomic.LoadInt64(&ran); got >= n || got > 100+limit {
		t.Fatalf("ran %d of %d indices after cancel (limit %d)", got, n, 100+limit)
	}
}

// TestRunCtxDeadline: a deadline that passes mid-region stops it within one
// chunk per participant, and RunCtx returns context.DeadlineExceeded.
func TestRunCtxDeadline(t *testing.T) {
	const n, k = 1 << 16, 1000
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	// Every index from k on waits for the deadline, so it lands while each
	// participant is inside the body; after it, a participant may finish
	// the chunk it holds, and must claim no other.
	var late atomic.Int64
	err := RunCtx(ctx, n, func(i int) {
		if i >= k {
			<-ctx.Done()
			late.Add(1)
		}
	})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	chunk := (n + Workers()*chunksPerWorker - 1) / (Workers() * chunksPerWorker)
	if got, limit := late.Load(), int64(Workers()+1)*int64(chunk); got > limit {
		t.Fatalf("%d indices ran after the deadline, more than one %d-index chunk for each of %d participants",
			got, chunk, Workers()+1)
	}
}

// TestCtxErrorPropagatesCustomCause: whatever ctx.Err() reports is what the
// call returns.
func TestCtxErrorPropagatesCustomCause(t *testing.T) {
	cause := fmt.Errorf("budget exhausted")
	ctx, cancel := context.WithCancelCause(context.Background())
	cancel(cause)
	err := RunCtx(ctx, 1000, func(int) {})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if c := context.Cause(ctx); !errors.Is(c, cause) {
		t.Fatalf("cause = %v, want %v", c, cause)
	}
}

func BenchmarkRunEmpty4096(b *testing.B) {
	for i := 0; i < b.N; i++ {
		Run(4096, func(int) {})
	}
}

func BenchmarkRunChunksEmpty4096(b *testing.B) {
	for i := 0; i < b.N; i++ {
		RunChunks(4096, func(lo, hi int) {})
	}
}

// TestRunAllocs pins the allocation cost of a parallel region on the pool
// path at zero: the job comes from a pool and goes back when its last
// reference (submitter, participants, queued wake-ups) is dropped, there is
// no completion channel, and no closure when the caller passes a prebuilt
// body. Solvers issue dozens of regions per solve on every time step, under
// a hold, which allocates nothing either.
func TestRunAllocs(t *testing.T) {
	if Workers() == 1 {
		t.Skip("pool path needs more than one worker")
	}
	var sink atomic.Int64
	fnIdx := func(i int) { sink.Add(int64(i)) }
	fnChunk := func(lo, hi int) { sink.Add(int64(hi - lo)) }
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	inEachMode(t, func(t *testing.T) {
		for name, region := range map[string]func(){
			"Run":        func() { Run(256, fnIdx) },
			"Run16":      func() { Run(16, fnIdx) },
			"RunChunks":  func() { RunChunks(256, fnChunk) },
			"RunCtx":     func() { _ = RunCtx(ctx, 256, fnIdx) },
			"RunEachCtx": func() { _ = RunEachCtx(ctx, 16, false, fnIdx) },
		} {
			if got := testing.AllocsPerRun(200, region); got != 0 {
				t.Errorf("%s: %.1f allocs per region, want 0", name, got)
			}
		}
	})
}

// TestRunEachClaimsOneAtATime: every index runs once, and no participant is
// handed two indices in one claim — while a participant sits in index 0,
// the others must be able to take all the rest.
func TestRunEachClaimsOneAtATime(t *testing.T) {
	if Workers() == 1 {
		t.Skip("needs a worker pool")
	}
	// Stale wake-ups of earlier tests must not crowd this region's out of
	// the queue: index 0 needs company.
	for len(jobs) > 0 {
		runtime.Gosched()
	}
	const n = 64
	var rest atomic.Int32
	hits := make([]int32, n)
	err := RunEachCtx(nil, n, false, func(i int) {
		atomic.AddInt32(&hits[i], 1)
		if i != 0 {
			rest.Add(1)
			return
		}
		for deadline := time.Now().Add(10 * time.Second); rest.Load() != n-1; runtime.Gosched() {
			if time.Now().After(deadline) {
				t.Error("index 0 shared its claim with indices nobody else could take")
				return
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, h := range hits {
		if h != 1 {
			t.Fatalf("index %d executed %d times", i, h)
		}
	}
}

// TestRunEachInlineStaysOnCaller: an inline region wakes nobody — every
// index runs in order on the calling goroutine, which a plain append with no
// lock proves under -race — and still stops at a canceled context.
func TestRunEachInlineStaysOnCaller(t *testing.T) {
	var order []int
	if err := RunEachCtx(nil, 64, true, func(i int) { order = append(order, i) }); err != nil {
		t.Fatal(err)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("position %d ran index %d", i, v)
		}
	}
	if len(order) != 64 {
		t.Fatalf("%d of 64 indices ran", len(order))
	}
	ctx, cancel := context.WithCancel(context.Background())
	ran := 0
	err := RunEachCtx(ctx, 64, true, func(i int) {
		if ran++; i == 9 {
			cancel()
		}
	})
	if err != context.Canceled || ran != 10 {
		t.Fatalf("err = %v after %d indices, want context.Canceled after 10", err, ran)
	}
}

// TestRecycleStress issues many short regions from several goroutines at
// once, so the wake-up queue stays saturated and most wake-ups are stale by
// the time a worker receives them. A job recycled while a wake-up for it was
// still queued would hand that worker another region's indices: a sum comes
// out wrong, or the race detector sees the reset.
func TestRecycleStress(t *testing.T) {
	if Workers() == 1 {
		t.Skip("needs a worker pool")
	}
	inEachMode(t, testRecycleStress)
}

func testRecycleStress(t *testing.T) {
	const goroutines, regions, n = 8, 400, 7
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			ctx := context.Background()
			for r := 0; r < regions; r++ {
				var sum atomic.Int64
				body := func(i int) { sum.Add(int64(i + 1)) }
				var err error
				switch (g + r) % 3 {
				case 0:
					Run(n, body)
				case 1:
					err = RunEachCtx(ctx, n, false, body)
				default:
					RunChunks(n, func(lo, hi int) {
						for i := lo; i < hi; i++ {
							body(i)
						}
					})
				}
				if err != nil || sum.Load() != n*(n+1)/2 {
					t.Errorf("goroutine %d region %d: sum %d, err %v", g, r, sum.Load(), err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// BenchmarkRegionBurst issues bursts of 30 back-to-back regions of about
// 50 µs of work each, the shape of a solve's phase list, and reports the
// start delay per region: the time from the call to the first index a pool
// worker runs. Every region has two indices of 25 µs of spinning each, and
// whichever runs first spins until the other has started, so the second
// index can only be started by a worker and its start time is the worker's
// arrival, however late. "held" runs each burst under a Hold, as a solve
// does; "free" does not, so its workers block between regions.
func BenchmarkRegionBurst(b *testing.B) {
	if Workers() == 1 {
		b.Skip("needs a worker pool")
	}
	const regions, work = 30, 25 * time.Microsecond
	for _, held := range []bool{false, true} {
		name := "free"
		if held {
			name = "held"
		}
		b.Run(name, func(b *testing.B) {
			var total time.Duration
			for i := 0; i < b.N; i++ {
				if held {
					Hold()
				}
				for r := 0; r < regions; r++ {
					var entered atomic.Int32
					var second atomic.Int64
					start := time.Now()
					_ = RunEachCtx(nil, 2, false, func(int) {
						t := time.Now()
						if entered.Add(1) == 2 {
							second.Store(int64(t.Sub(start)))
						}
						for deadline := t.Add(time.Second); entered.Load() < 2 && time.Now().Before(deadline); {
						}
						for time.Since(t) < work {
						}
					})
					total += time.Duration(second.Load())
				}
				if held {
					Release()
				}
			}
			b.ReportMetric(float64(total.Microseconds())/float64(b.N*regions), "start-µs/region")
		})
	}
}

// inEachMode runs body as a subtest twice: with no hold, where every region
// wakes a blocked worker, and inside a Hold, where workers poll between
// regions, so that a region is joined by a worker that took it from the
// channel's buffer as well as by one it woke.
func inEachMode(t *testing.T, body func(t *testing.T)) {
	for _, held := range []bool{false, true} {
		name := "free"
		if held {
			name = "held"
		}
		t.Run(name, func(t *testing.T) {
			if held {
				Hold()
				defer Release()
			}
			body(t)
		})
	}
}

// waitLingering waits, yielding, until no worker polls, or fails after ten
// seconds.
func waitLingering(t *testing.T, why string) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); lingering.Load() != 0; runtime.Gosched() {
		if time.Now().After(deadline) {
			t.Fatalf("%d workers still polling %s", lingering.Load(), why)
		}
	}
}

// startPolling issues regions under the caller's hold until one runs while
// a worker polls. Each region is a rendezvous: two indices, each of whose
// bodies waits until the other index's participant has joined, so every
// region has provably been run by a worker as well as by the caller, and
// each worker that runs one polls after it. No time bound ends the loop.
// A region's wake-ups are dropped when the queue is full (the caller then
// runs it alone, which a rendezvous cannot), so each region waits for the
// workers to drain the stale wake-ups earlier tests left.
func startPolling(t *testing.T) {
	t.Helper()
	var polled atomic.Bool
	for !polled.Load() {
		for len(jobs) > 0 {
			runtime.Gosched()
		}
		var arrived atomic.Int32
		_ = RunEachCtx(nil, 2, false, func(int) {
			arrived.Add(1)
			for arrived.Load() < 2 {
				runtime.Gosched()
			}
			if lingering.Load() > 0 {
				polled.Store(true)
			}
		})
	}
}

// TestWorkersStopPollingAfterRelease: workers poll between a held solve's
// regions, keep doing so while any of two nested holds remains, stop once
// the last is released, and do not start again, although every worker is
// still handed a region every few microseconds.
func TestWorkersStopPollingAfterRelease(t *testing.T) {
	if Workers() == 1 {
		t.Skip("needs a worker pool")
	}
	Hold()
	Hold()
	startPolling(t)
	Release()
	startPolling(t)
	// The regions come from the workers themselves: each one-index region
	// queues the next while feed is set, one chain per worker, so no
	// submitter's scheduling can leave a worker without a region for long
	// enough that the bound, not the release, ends its polling.
	var feed atomic.Bool
	var bodies sync.WaitGroup // chain jobs whose body has not returned
	var chain func() *job
	chain = func() *job {
		bodies.Add(1)
		j := &job{n: 1, chunk: 1}
		j.fin.Add(1)
		j.refs.Store(2) // the wake-up's and one never released: not recycled
		j.fnIdx = func(int) {
			defer bodies.Done()
			if feed.Load() {
				jobs <- chain()
			}
		}
		return j
	}
	feed.Store(true)
	// Every chain job queued runs; once their bodies have all returned, no
	// late send can land in a later test's queue.
	defer func() {
		feed.Store(false)
		bodies.Wait()
	}()
	for w := 1; w < Workers(); w++ {
		jobs <- chain()
	}
	Release()
	waitLingering(t, "after the last Release")
	for end := time.Now().Add(20 * time.Millisecond); time.Now().Before(end); runtime.Gosched() {
		if n := lingering.Load(); n != 0 {
			t.Fatalf("%d workers polling again with no hold", n)
		}
	}
}

// TestHoldWithoutRegionsLetsWorkersBlock: a hold around a long serial
// stretch does not keep workers polling through it; after lingerBound
// without a region they block, while the hold is still active.
func TestHoldWithoutRegionsLetsWorkersBlock(t *testing.T) {
	if Workers() == 1 {
		t.Skip("needs a worker pool")
	}
	Hold()
	defer Release()
	startPolling(t)
	waitLingering(t, "under a hold with no regions")
	// A region after the bound still completes: it wakes a blocked worker.
	var total atomic.Int64
	Run(1000, func(int) { total.Add(1) })
	if total.Load() != 1000 {
		t.Fatalf("region after the bound covered %d/1000", total.Load())
	}
}
