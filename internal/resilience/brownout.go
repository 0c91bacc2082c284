package resilience

import (
	"fmt"
	"sync"
	"time"
)

// BrownoutConfig tunes a Brownout controller. The zero value of every field
// selects the documented default.
type BrownoutConfig struct {
	// Target is the pressure-signal setpoint (default 100ms): sustained
	// observations above it raise the level, sustained observations below
	// Target/4 lower it. For the serving layer the signal is per-request
	// queue delay — the quantity that grows without bound when offered load
	// exceeds capacity.
	Target time.Duration
	// MaxLevel caps the degradation level (default 2).
	MaxLevel int
	// RaiseAfter is how long the smoothed signal must stay above Target
	// before the level rises one step (default 500ms); DropAfter is the
	// corresponding dwell below Target/4 before it falls one step (default
	// 2s). The asymmetry is deliberate: brown out fast, recover cautiously.
	RaiseAfter time.Duration
	DropAfter  time.Duration
	// Alpha is the EWMA smoothing weight of each observation (default 0.2).
	Alpha float64
	// Now overrides the clock (tests). Default time.Now.
	Now func() time.Time
}

func (c BrownoutConfig) withDefaults() BrownoutConfig {
	if c.Target <= 0 {
		c.Target = 100 * time.Millisecond
	}
	if c.MaxLevel <= 0 {
		c.MaxLevel = 2
	}
	if c.RaiseAfter <= 0 {
		c.RaiseAfter = 500 * time.Millisecond
	}
	if c.DropAfter <= 0 {
		c.DropAfter = 2 * time.Second
	}
	if c.Alpha <= 0 || c.Alpha > 1 {
		c.Alpha = 0.2
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	return c
}

// BrownoutStats is a snapshot of a controller's state and counters.
type BrownoutStats struct {
	Level    int           `json:"level"`
	Raises   int64         `json:"raises"`
	Drops    int64         `json:"drops"`
	Pressure time.Duration `json:"pressure_ns"` // smoothed signal
}

// Brownout is a hysteresis feedback controller for load-driven degradation:
// the third leg of the resilience layer, giving the degradation ladder a
// load trigger alongside the supervisor's fault trigger. Callers feed it a
// pressure signal (queue delay) through Observe; Level reports the current
// degradation level 0..MaxLevel, which the caller maps onto whatever
// fidelity ladder it owns (the serving layer lowers solve accuracy and
// re-pins over-deep hierarchies). The controller is deliberately dumb —
// EWMA, two thresholds, dwell times — because its job is stability, not
// optimality: it must never flap fidelity on transient spikes, and it must
// always return to full fidelity once pressure subsides.
//
// Every level change is counted on the controller itself (Stats), the same
// pattern the retry supervisor uses for its recovery counters.
type Brownout struct {
	cfg BrownoutConfig

	mu         sync.Mutex
	level      int
	ewma       time.Duration
	overSince  time.Time // zero: signal not currently above Target
	underSince time.Time // zero: signal not currently below Target/4
	lastObs    time.Time
	raises     int64
	drops      int64
}

// NewBrownout builds a controller at level 0.
func NewBrownout(cfg BrownoutConfig) *Brownout {
	return &Brownout{cfg: cfg.withDefaults()}
}

// Observe feeds one pressure sample and returns the (possibly updated)
// level. Call it once per completed or dequeued request with that request's
// queue delay.
func (b *Brownout) Observe(pressure time.Duration) int {
	if pressure < 0 {
		pressure = 0
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	now := b.cfg.Now()
	b.decayIdle(now)
	if b.ewma == 0 && b.lastObs.IsZero() {
		b.ewma = pressure
	} else {
		b.ewma += time.Duration(b.cfg.Alpha * float64(pressure-b.ewma))
	}
	b.lastObs = now
	b.step(now)
	return b.level
}

// Level returns the current degradation level (0 = full fidelity). A quiet
// server receives no observations, so Level also decays: with no sample for
// a DropAfter window the controller steps down on read rather than pinning
// the last level forever.
func (b *Brownout) Level() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.decayIdle(b.cfg.Now())
	return b.level
}

// Stats snapshots the controller.
func (b *Brownout) Stats() BrownoutStats {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.decayIdle(b.cfg.Now())
	return BrownoutStats{Level: b.level, Raises: b.raises, Drops: b.drops, Pressure: b.ewma}
}

// String renders the controller for logs.
func (b *Brownout) String() string {
	s := b.Stats()
	return fmt.Sprintf("brownout level=%d pressure=%s raises=%d drops=%d",
		s.Level, s.Pressure.Round(time.Millisecond), s.Raises, s.Drops)
}

// step applies the hysteresis thresholds. Called with the lock held.
func (b *Brownout) step(now time.Time) {
	hi, lo := b.cfg.Target, b.cfg.Target/4
	switch {
	case b.ewma > hi:
		b.underSince = time.Time{}
		if b.overSince.IsZero() {
			b.overSince = now
			return
		}
		if now.Sub(b.overSince) >= b.cfg.RaiseAfter && b.level < b.cfg.MaxLevel {
			b.level++
			b.raises++
			b.overSince = now // a further raise needs a fresh dwell
		}
	case b.ewma < lo:
		b.overSince = time.Time{}
		if b.underSince.IsZero() {
			b.underSince = now
			return
		}
		if now.Sub(b.underSince) >= b.cfg.DropAfter && b.level > 0 {
			b.level--
			b.drops++
			b.underSince = now
		}
	default:
		// Between the thresholds: hold the level, reset both dwells.
		b.overSince, b.underSince = time.Time{}, time.Time{}
	}
}

// decayIdle steps the level down once per elapsed DropAfter window with no
// observations at all (an idle server is, by definition, under no
// pressure). Called with the lock held.
func (b *Brownout) decayIdle(now time.Time) {
	if b.level == 0 || b.lastObs.IsZero() {
		return
	}
	for b.level > 0 && now.Sub(b.lastObs) >= b.cfg.DropAfter {
		b.level--
		b.drops++
		b.lastObs = b.lastObs.Add(b.cfg.DropAfter)
		b.ewma = 0
		b.overSince, b.underSince = time.Time{}, time.Time{}
	}
}
