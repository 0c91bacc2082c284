package metrics

import (
	"sync/atomic"
	"time"

	"nbody/internal/simd"
)

// Rec is a phase-scoped recorder: monotonic wall time, analytic flop
// counts, call counts, and moved-byte counts, each accumulated per Phase,
// plus the two headline interaction counters (T2 translations, near-field
// pairs). All counters are atomic, so concurrent workers may record into
// one Rec without coordination.
//
// Every method is nil-safe: a nil *Rec is the disabled sink, and every
// call on it is a branch on a register — no time syscall, no atomic
// traffic, no allocation. Hot paths therefore keep their instrumentation
// compiled in unconditionally and pay only when a recorder is attached.
type Rec struct {
	ns    [NumPhases]atomic.Int64
	flops [NumPhases]atomic.Int64
	calls [NumPhases]atomic.Int64
	bytes [NumPhases]atomic.Int64

	t2Count   atomic.Int64
	nearPairs atomic.Int64

	particles atomic.Int64
	depth     atomic.Int64
	k         atomic.Int64

	// active is the currently open phase plus one (0 = no open span). The
	// solvers open at most one span at a time per Rec, so a plain store is
	// enough; it lets a recovery boundary name the phase that was running
	// when a panic unwound past its Span.End.
	active atomic.Int32
}

// Span is one open phase interval. It is a value type: Begin/End pairs
// allocate nothing, so they may bracket steady-state solver phases without
// disturbing a zero-allocation hot path.
type Span struct {
	r     *Rec
	p     Phase
	start time.Time
}

// Begin opens a timing span for phase p. On a nil Rec the returned Span is
// inert and End is free.
func (r *Rec) Begin(p Phase) Span {
	if r == nil {
		return Span{}
	}
	r.active.Store(int32(p) + 1)
	return Span{r: r, p: p, start: time.Now()}
}

// End closes the span, charging the elapsed wall time and one call to the
// span's phase.
func (s Span) End() {
	if s.r == nil {
		return
	}
	s.r.ns[s.p].Add(int64(time.Since(s.start)))
	s.r.calls[s.p].Add(1)
	s.r.active.CompareAndSwap(int32(s.p)+1, 0)
}

// ActivePhase returns the phase of the currently open span, if any. After a
// panic unwinds past a Span.End, the span stays active, so a recovery
// boundary can attribute the failure to the phase that was running.
func (r *Rec) ActivePhase() (Phase, bool) {
	if r == nil {
		return 0, false
	}
	a := r.active.Load()
	if a == 0 {
		return 0, false
	}
	return Phase(a - 1), true
}

// ClearActive closes the active-phase marker without charging time, used by
// recovery boundaries after reading ActivePhase so a stale marker does not
// leak into the next solve.
func (r *Rec) ClearActive() {
	if r == nil {
		return
	}
	r.active.Store(0)
}

// AddFlops charges n floating-point operations to phase p.
func (r *Rec) AddFlops(p Phase, n int64) {
	if r == nil {
		return
	}
	r.flops[p].Add(n)
}

// AddBytes charges n moved bytes (memory or modeled network traffic) to
// phase p.
func (r *Rec) AddBytes(p Phase, n int64) {
	if r == nil {
		return
	}
	r.bytes[p].Add(n)
}

// AddT2 counts n applied interactive-field (T2) translations.
func (r *Rec) AddT2(n int64) {
	if r == nil {
		return
	}
	r.t2Count.Add(n)
}

// AddNearPairs counts n evaluated particle-particle interactions.
func (r *Rec) AddNearPairs(n int64) {
	if r == nil {
		return
	}
	r.nearPairs.Add(n)
}

// SetShape records the problem shape the counters describe.
func (r *Rec) SetShape(particles, depth, k int) {
	if r == nil {
		return
	}
	r.particles.Store(int64(particles))
	r.depth.Store(int64(depth))
	r.k.Store(int64(k))
}

// Reset zeroes every counter (the shape included).
func (r *Rec) Reset() {
	if r == nil {
		return
	}
	for p := Phase(0); p < NumPhases; p++ {
		r.ns[p].Store(0)
		r.flops[p].Store(0)
		r.calls[p].Store(0)
		r.bytes[p].Store(0)
	}
	r.t2Count.Store(0)
	r.nearPairs.Store(0)
	r.particles.Store(0)
	r.depth.Store(0)
	r.k.Store(0)
	r.active.Store(0)
}

// ReadInto fills dst with a consistent-enough copy of the counters (each
// counter is read atomically; the set is not a single snapshot, which is
// fine between solves). Fields of dst the recorder does not own — Workers —
// are left untouched.
func (r *Rec) ReadInto(dst *Snapshot) {
	if r == nil {
		*dst = Snapshot{Workers: dst.Workers, Backend: simd.Active()}
		return
	}
	dst.Backend = simd.Active()
	for p := Phase(0); p < NumPhases; p++ {
		dst.Time[p] = time.Duration(r.ns[p].Load())
		dst.Flops[p] = r.flops[p].Load()
		dst.Calls[p] = r.calls[p].Load()
		dst.Bytes[p] = r.bytes[p].Load()
	}
	dst.T2Count = r.t2Count.Load()
	dst.NearPairs = r.nearPairs.Load()
	dst.Particles = int(r.particles.Load())
	dst.Depth = int(r.depth.Load())
	dst.K = int(r.k.Load())
}

// Snapshot returns a freshly allocated copy of the counters.
func (r *Rec) Snapshot() *Snapshot {
	s := &Snapshot{}
	r.ReadInto(s)
	return s
}
