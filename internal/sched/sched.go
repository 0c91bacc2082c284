// Package sched provides the repository's shared compute scheduler: a
// persistent pool of worker goroutines with atomic work-stealing chunk
// claiming, so a box sweep pays neither a goroutine create/destroy nor a
// mutex-guarded work index — measurable overhead on the traversal hot path
// the paper's Section 3.3.3 efficiency numbers depend on. Every parallel
// region of the solvers calls it directly.
//
// Design:
//
//   - Workers are created once (lazily, on the first parallel call) and
//     live for the life of the process. Pool size is GOMAXPROCS at first
//     use. A worker that is not in a region blocks on the job channel,
//     except while a solve holds the pool (below).
//
//   - A region reaches a blocked worker as a channel send, and the Go
//     runtime delivers it late: the woken goroutine is queued on the
//     submitter's own P, and an idle P takes it only by stealing, after a
//     back-off. On a two-core host that cost 60-150 µs per region, longer
//     than many of a solve's regions last. So a solve holds the pool
//     (Hold/Release, taken by the phase runner around a solve's phase
//     list). While any hold is active, a worker that leaves a region keeps
//     polling the job channel, yielding the P every few polls, and takes
//     the next region out of the channel's buffer with no wake-up at all
//     (a few µs); the submitter likewise polls for its region's last chunk
//     before it blocks. A worker stops polling as soon as no hold remains,
//     or after lingerBound without a region, and then blocks as before.
//     The polling is limited to a held solve because a serving host is
//     CPU-bound: workers that polled after every region, whoever sent it,
//     took the time the request goroutines needed.
//
//   - Work distribution is dynamic: participants claim contiguous index
//     chunks from an atomic counter. The chunk size adapts to the iteration
//     count (several chunks per worker), so sweeps with highly non-uniform
//     per-index cost — e.g. box arrays where most leaves are empty — do not
//     suffer the load imbalance of one static chunk per worker, while
//     cheap uniform sweeps still amortize the atomic increment.
//
//   - The submitting goroutine always participates in its own job, so a
//     parallel region completes even if every pool worker is busy in
//     another job. In particular, nested Run calls cannot deadlock: the
//     nested caller simply executes its job itself.
//
//   - A region allocates nothing: its descriptor is reference-counted
//     (submitter, participants, wake-ups still queued) and recycled by the
//     last holder. A solver issues dozens of regions per solve.
//
// Failure containment:
//
//   - A panic raised by the body on any participant (pool worker or the
//     submitting caller) aborts the job: remaining chunks are abandoned,
//     every in-flight participant is drained, and the first panic value is
//     re-raised on the submitting goroutine. Pool workers survive the
//     panic and return to the job channel, so a contained failure in one
//     parallel region never wedges later regions.
//
//   - RunCtx/RunEachCtx accept a context whose cancellation is checked
//     in the chunk-claim loop of every participant: a canceled context
//     stops the job within one chunk's work and the call returns ctx.Err().
//
//   - In both cases Run*/submit return only after no participant is still
//     executing the body (the drain guarantee): callers may immediately
//     reuse the buffers the body wrote without synchronization.
//
// On a single-core machine (Workers() == 1) every call degenerates to a
// plain serial loop with no synchronization and no allocation.
package sched

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"sync"
	"sync/atomic"
	"time"
)

// chunksPerWorker controls adaptive chunking: each participant should get
// several chunks so dynamic claiming can rebalance uneven work, but not so
// many that the atomic counter becomes contended. 8 keeps the claim
// overhead under ~1% for the repository's box sweeps while still splitting
// a level-4 sweep (4096 boxes) into 1/8-worker-sized pieces. It also sets
// the cancellation granularity: a canceled context is noticed at the next
// chunk boundary.
const chunksPerWorker = 8

// lingerBound is how long a worker polls for the next region without
// getting one before it blocks on the job channel, hold or no hold. It caps
// what a hold around a long serial phase (the sort at N = 2^21, for one)
// costs in polling at one millisecond of CPU per worker. Between the regions
// of a uniform solve a worker almost never reaches it; in a clustered force
// solve it does about once per solve, idle through the tail of a near-field
// round that one heavy row keeps busy (EXPERIMENTS.md, "The pool stays awake
// through a solve").
const lingerBound = time.Millisecond

// pollsPerYield is how many polls a waiting participant makes between
// runtime.Gosched calls: often enough (under a microsecond apart) that a
// request goroutine queued on the same P runs soon, rarely enough that the
// scheduler round trip does not dominate the poll.
const pollsPerYield = 64

// panicBox carries the first recovered panic of a job back to the
// submitting goroutine, with the stack of the participant that raised it.
type panicBox struct {
	val   any
	stack []byte
}

// job is one parallel region. Participants (the caller plus any pool
// workers that pick the job up) claim [lo, hi) chunks from next until the
// range is exhausted or the job aborts; completion (or fully drained
// abortion) releases fin.
type job struct {
	fnIdx   func(i int)
	fnChunk func(lo, hi int)
	n       int64
	chunk   int64
	next    atomic.Int64
	done    atomic.Int64

	// ctx is the optional cancellation signal; nil jobs (Run/RunChunks)
	// pay only a nil compare per chunk claim.
	ctx context.Context

	// aborted stops further chunk claiming after a panic or cancellation.
	aborted atomic.Bool
	// inflight counts participants currently inside participate; the last
	// one to leave an aborted job releases fin, which is what lets submit
	// guarantee no participant still runs the body after it returns.
	inflight atomic.Int64
	// panicVal holds the first recovered panic (CAS winner).
	panicVal atomic.Pointer[panicBox]

	// fin holds the submitter until the job is over: submit adds one, and
	// finish releases it exactly once (the finished flag).
	finished atomic.Bool
	fin      sync.WaitGroup

	// refs counts who may still touch the job: the submitter plus every
	// wake-up sent into jobs, whether a worker is running it, has yet to
	// receive it, or will find it stale. The last release resets the struct
	// and returns it to jobPool, so a region allocates nothing — a solver
	// issuing dozens of regions per solve would otherwise pay one job each,
	// every time step — and a queued wake-up can never see the job reused
	// for another region.
	refs atomic.Int64
}

// finish signals job completion exactly once, whether by normal range
// exhaustion or by a drained abort.
func (j *job) finish() {
	if j.finished.CompareAndSwap(false, true) {
		j.fin.Done()
	}
}

// release drops one reference; the last one recycles the job.
func (j *job) release() {
	if j.refs.Add(-1) != 0 {
		return
	}
	*j = job{}
	jobPool.Put(j)
}

var (
	initOnce sync.Once
	poolSize int
	jobs     chan *job
	jobPool  = sync.Pool{New: func() any { return new(job) }}

	// holds counts the solves holding the pool (Hold/Release); lingering
	// counts the workers that are polling the job channel (or running a
	// region they took while polling) instead of blocking on it.
	holds     atomic.Int32
	lingering atomic.Int32
)

// Hold marks a solve in flight until the matching Release: while any hold
// is active, a pool worker that leaves a region polls for the next one
// instead of blocking, and a submitter polls for its region's last chunk
// before it blocks, so a region reaches a worker without a goroutine
// wake-up. Holds nest and may be taken by concurrent solves; they allocate
// nothing. The phase runner (pipeline.Run) takes one around every solve.
func Hold() { holds.Add(1) }

// Release ends a Hold. Workers stop polling once no hold remains.
func Release() { holds.Add(-1) }

// initPool sizes and starts the worker pool. Workers run forever; each
// blocks on the job channel between parallel regions. A panic inside a job
// body is recovered in participate, so workers are never lost to one.
func initPool() {
	poolSize = runtime.GOMAXPROCS(0)
	if poolSize < 1 {
		poolSize = 1
	}
	counters = make([]workerCounters, poolSize)
	if poolSize == 1 {
		return
	}
	// The channel is buffered generously so wake-up sends never block even
	// when stale wake-ups (for jobs that finished before a worker got to
	// them) are still queued; a stale wake-up is a cheap no-op.
	jobs = make(chan *job, 8*poolSize)
	for w := 1; w < poolSize; w++ {
		go func(slot int) {
			// Label the worker so CPU profiles attribute pool time to the
			// scheduler and to the individual worker slot.
			labels := pprof.Labels("pool", "sched", "worker", fmt.Sprint(slot))
			pprof.Do(context.Background(), labels, func(context.Context) {
				for j := range jobs {
					j.participate(slot)
					j.release()
					linger(slot)
				}
			})
		}(w)
	}
}

// Workers returns the pool size (GOMAXPROCS at first use). One job runs on
// at most Workers()+1 goroutines: every pool worker plus the submitting
// caller.
func Workers() int {
	initOnce.Do(initPool)
	return poolSize
}

// Run executes fn(i) for every i in [0, n), distributing index chunks over
// the worker pool. fn must be safe to call concurrently for distinct i. If
// fn panics on any participant, the job is aborted and drained and the first
// panic value is re-raised on the caller.
func Run(n int, fn func(i int)) {
	if n <= 0 {
		return
	}
	if Workers() == 1 || n == 1 {
		if statsOn.Load() {
			defer chargeSerial(now())
		}
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	_ = submit(nil, n, 0, fn, nil)
}

// RunChunks executes body(lo, hi) over a partition of [0, n) into
// contiguous chunks, distributing chunks over the worker pool. It is the
// preferred form when the body wants per-chunk setup (scratch buffers,
// local accumulators) amortized over many indices. Panic semantics match
// Run.
func RunChunks(n int, body func(lo, hi int)) {
	if n <= 0 {
		return
	}
	if Workers() == 1 {
		if statsOn.Load() {
			defer chargeSerial(now())
		}
		body(0, n)
		return
	}
	_ = submit(nil, n, 0, nil, body)
}

// RunCtx is Run with cooperative cancellation: every participant checks
// ctx in its chunk-claim loop, so a canceled context stops the job within
// one chunk's work and RunCtx returns ctx.Err(). Indices not yet claimed
// when the job aborts are never executed; the caller must treat any output
// of a canceled region as garbage. A nil ctx is equivalent to Run.
func RunCtx(ctx context.Context, n int, fn func(i int)) error {
	if ctx == nil {
		Run(n, fn)
		return nil
	}
	if n <= 0 {
		return nil
	}
	if Workers() == 1 || n == 1 {
		return runSerialCtx(ctx, n, 0, fn)
	}
	return submit(ctx, n, 0, fn, nil)
}

// RunEachCtx is RunCtx for regions whose indices are few and coarse (a row
// of boxes each, not a box): participants claim one index at a time, so two
// heavy indices never share a chunk, and ctx (which may be nil) is checked
// before every index. inline keeps the region on the caller alone: one too
// small to be worth a wake-up and a barrier.
func RunEachCtx(ctx context.Context, n int, inline bool, fn func(i int)) error {
	if n <= 0 {
		return nil
	}
	if Workers() == 1 || n == 1 || inline {
		return runSerialCtx(ctx, n, 1, fn)
	}
	return submit(ctx, n, 1, fn, nil)
}

// runSerialCtx executes a cancellable region on the caller alone, checking
// ctx (when there is one) between chunks — of the given size, or with
// chunk == 0 of the adaptive size a one-worker pool would use.
func runSerialCtx(ctx context.Context, n, chunk int, fn func(i int)) error {
	if statsOn.Load() {
		defer chargeSerial(now())
	}
	if chunk == 0 {
		chunk = (n + chunksPerWorker - 1) / chunksPerWorker
	}
	for lo := 0; lo < n; lo += chunk {
		if ctx != nil {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		for i := lo; i < hi; i++ {
			fn(i)
		}
	}
	return nil
}

// submit takes a job from the pool, sizes its chunks (chunk == 0: adaptive),
// wakes enough workers, participates, and waits until the job has completed
// or has aborted with every participant drained. A contained panic is
// re-raised here on the submitting goroutine; a cancellation returns
// ctx.Err().
func submit(ctx context.Context, n, chunk int, fnIdx func(i int), fnChunk func(lo, hi int)) error {
	j := jobPool.Get().(*job)
	j.fnIdx, j.fnChunk, j.ctx, j.n = fnIdx, fnChunk, ctx, int64(n)
	if chunk == 0 {
		nchunks := poolSize * chunksPerWorker
		chunk = (n + nchunks - 1) / nchunks
	}
	j.chunk = int64(chunk)
	j.fin.Add(1)
	j.refs.Store(1)
	// Wake at most as many workers as there are chunks beyond the one the
	// caller will take itself.
	wake := (n + chunk - 1) / chunk
	if wake > poolSize-1 {
		wake = poolSize - 1
	}
wakeLoop:
	for w := 0; w < wake; w++ {
		j.refs.Add(1)
		select {
		case jobs <- j:
		default:
			// Queue full: workers are saturated; the caller still
			// completes the job on its own.
			j.refs.Add(-1)
			break wakeLoop
		}
	}
	j.participate(0)
	if holds.Load() > 0 {
		j.await()
	}
	j.fin.Wait()
	pb := j.panicVal.Load()
	var err error
	if j.aborted.Load() && ctx != nil {
		err = ctx.Err()
	}
	j.release()
	if pb != nil {
		// Re-raise the first panic of the region on the submitting
		// goroutine (the participant's stack was captured in pb.stack for
		// debuggers; the value itself is what callers recover).
		panic(pb.val)
	}
	return err
}

// linger keeps a worker that has just left a region polling the job
// channel while a solve holds the pool, so that the solve's next region is
// taken from the channel's buffer instead of being handed to a blocked
// goroutine. A region joined this way is joined through its wake-up, and so
// through the job's own reference count, exactly like one received by a
// blocked worker. The worker returns to blocking once no hold remains or
// after lingerBound without a region.
func linger(slot int) {
	if holds.Load() == 0 {
		return
	}
	lingering.Add(1)
	defer lingering.Add(-1)
	idleSince := time.Now()
	for polls := 0; holds.Load() > 0; polls++ {
		// The first poll after every region yields: if this worker
		// finished a region whose submitter had blocked in fin.Wait, the
		// submitter now sits in this P's runnext, and a P that keeps
		// polling would strand it there until another P steals it.
		if polls%pollsPerYield == 0 {
			runtime.Gosched()
			if time.Since(idleSince) > lingerBound {
				return
			}
		}
		select {
		case j := <-jobs:
			j.participate(slot)
			j.release()
			polls, idleSince = -1, time.Now()
		default:
		}
	}
}

// await polls for the job's completion, yielding the P every few polls,
// for at most lingerBound; the caller then blocks in fin.Wait, which
// returns at once if the poll saw the job finish. A held solve's submitter
// waits this way for a worker's last chunk so that its own wake-up does not
// pay the same hand-over delay as a worker's.
func (j *job) await() {
	start := time.Now()
	for polls := 1; !j.finished.Load(); polls++ {
		if polls%pollsPerYield == 0 {
			runtime.Gosched()
			if time.Since(start) > lingerBound {
				return
			}
		}
	}
}

// participate runs the job on behalf of one participant, containing any
// panic the body raises: the first panic is recorded, the job aborts, and
// the last participant to leave an aborted job releases fin. Pool workers
// call it from their job loop, the submitting caller from submit; either
// way the goroutine survives the panic.
func (j *job) participate(slot int) {
	j.inflight.Add(1)
	defer func() {
		if r := recover(); r != nil {
			j.panicVal.CompareAndSwap(nil, &panicBox{val: r, stack: debug.Stack()})
			j.aborted.Store(true)
		}
		if j.inflight.Add(-1) == 0 && j.aborted.Load() {
			j.finish()
		}
	}()
	j.runTimed(slot)
}

// run claims and executes chunks until the job's range is exhausted or the
// job aborts, returning the number of indices this participant executed.
// The participant whose chunk completes the range signals fin exactly once
// (done is incremented by exact chunk sizes, so only one participant can
// observe done == n). Aborted jobs signal fin from participate instead,
// once every in-flight participant has drained.
func (j *job) run() int64 {
	var total int64
	for {
		if j.aborted.Load() {
			break
		}
		if j.ctx != nil && j.ctx.Err() != nil {
			j.aborted.Store(true)
			break
		}
		lo := j.next.Add(j.chunk) - j.chunk
		if lo >= j.n {
			break
		}
		hi := lo + j.chunk
		if hi > j.n {
			hi = j.n
		}
		if j.fnChunk != nil {
			j.fnChunk(int(lo), int(hi))
		} else {
			fn := j.fnIdx
			for i := lo; i < hi; i++ {
				fn(int(i))
			}
		}
		total += hi - lo
	}
	if total > 0 && j.done.Add(total) == j.n {
		j.finish()
	}
	return total
}
