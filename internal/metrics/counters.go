package metrics

import "sync"

// The four structs below are the wire form of the serving side's event
// counters: plain snapshots whose JSON tags are the /v1/metrics protocol.
// None of them has process-wide state. Each count lives on the instance
// that produces the event — the retry supervisor, the brownout controller,
// the dispatcher, the planner, the server, the gateway, the simulation —
// and whoever reports a snapshot assembles it from the owners it holds, so
// two servers in one process never read each other's events. Every field
// is zero on an instance that saw no such event: any nonzero value in a
// report is worth reading.

// RecoveryStats counts the self-healing layer's events: how often a retry
// supervisor re-attempted a solve, tripped a circuit breaker, stepped down
// the degradation ladder, and how many simulation snapshots were written
// or restored.
type RecoveryStats struct {
	Retries      int64 `json:"retries"`       // re-attempts beyond the first, per rung
	BreakerTrips int64 `json:"breaker_trips"` // circuit breakers opened
	Degradations int64 `json:"degradations"`  // ladder steps to a lower rung
	Checkpoints  int64 `json:"checkpoints"`   // simulation snapshots written
	Resumes      int64 `json:"resumes"`       // simulations restored from a snapshot
}

// Zero reports whether no recovery event has been recorded.
func (r RecoveryStats) Zero() bool { return r == RecoveryStats{} }

// OverloadStats counts the overload-control layer's events: requests shed
// because their predicted completion missed the deadline (at admission, or
// stale at dequeue), requests served degraded, and brownout level changes.
type OverloadStats struct {
	Shed           int64 `json:"shed"`            // rejected at admission: predicted completion past deadline
	ShedStale      int64 `json:"shed_stale"`      // dropped at dequeue: deadline unmeetable before the solve started
	Browned        int64 `json:"browned"`         // requests served at brownout-degraded fidelity
	BrownoutRaises int64 `json:"brownout_raises"` // controller level increases
	BrownoutDrops  int64 `json:"brownout_drops"`  // controller level decreases
}

// PlannerStats counts the plan subsystem's events: automatic resolutions
// answered from the tuned table versus the analytic cost model, measured
// searches run (and how long), the provenance mix of every resolved plan,
// and the persistent store traffic.
type PlannerStats struct {
	TuneHits      int64 `json:"tune_hits"`      // auto-resolutions answered from the tuned table
	TuneMisses    int64 `json:"tune_misses"`    // auto-resolutions that fell back to the analytic model
	Searches      int64 `json:"searches"`       // measured candidate searches actually run
	SearchNS      int64 `json:"search_ns"`      // total wall time spent inside measured searches
	PlansPinned   int64 `json:"plans_pinned"`   // resolutions where the caller pinned the depth
	PlansAnalytic int64 `json:"plans_analytic"` // resolutions served by the analytic cost model
	PlansTuned    int64 `json:"plans_tuned"`    // resolutions served by a tuned (measured) plan
	StoreLoads    int64 `json:"store_loads"`    // tuned-plan store files loaded
	StoreSaves    int64 `json:"store_saves"`    // tuned-plan store files written
}

// Zero reports whether no planning event has been recorded.
func (p PlannerStats) Zero() bool { return p == PlannerStats{} }

// GatewayStats counts the replication tier's events: replica ejections and
// recoveries from health checking, solve failovers and hedges from the
// retry layer, and stream resumes from the crash-survivable simulate path.
type GatewayStats struct {
	Ejections     int64 `json:"ejections"`      // replicas marked down (probe or passive failure)
	Recoveries    int64 `json:"recoveries"`     // replicas marked healthy again
	Failovers     int64 `json:"failovers"`      // solve retried on another replica after a failure
	HedgesFired   int64 `json:"hedges_fired"`   // hedged duplicate requests launched
	HedgesWon     int64 `json:"hedges_won"`     // hedges that answered before the primary
	HedgesLost    int64 `json:"hedges_lost"`    // hedges the primary beat (duplicate discarded)
	StreamResumes int64 `json:"stream_resumes"` // simulate streams resumed on another replica
	StreamsLost   int64 `json:"streams_lost"`   // simulate streams abandoned (no checkpoint or no replica)
}

// Set is the instance-scoped holder for counters that have no other home
// on their owner: a value of a plain counter struct T behind a mutex. The
// owner embeds one (or shares it by pointer with the helpers that produce
// its events), bumps fields inside Update, and snapshots with Read. Every
// increment it guards is on an event path, never a per-particle one. The
// zero Set is ready to use and must not be copied after first use.
type Set[T any] struct {
	mu sync.Mutex
	v  T
}

// Update applies f to the counters under the lock.
func (s *Set[T]) Update(f func(*T)) {
	s.mu.Lock()
	f(&s.v)
	s.mu.Unlock()
}

// Read returns a consistent copy of the counters.
func (s *Set[T]) Read() T {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.v
}
