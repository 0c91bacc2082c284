package nbody

import (
	"fmt"

	"nbody/internal/metrics"
)

// Accelerator is any solver that can produce potentials and fields for a
// system (Anderson and DataParallel qualify; Direct through the adapter
// below).
type Accelerator interface {
	Accelerations(*System) ([]float64, []Vec3, error)
}

// AcceleratorInto is the allocation-free variant: the solver writes
// potentials and fields into caller-owned slices and reuses its internal
// working memory between calls (Anderson implements it). Simulation detects
// it and runs every step after the first without allocating.
type AcceleratorInto interface {
	AccelerationsInto(phi []float64, acc []Vec3, s *System) error
}

// DirectAccelerator adapts the O(N^2) solver to the Accelerator interface.
type DirectAccelerator struct{ Direct }

// Accelerations computes exact potentials and fields.
func (d DirectAccelerator) Accelerations(s *System) ([]float64, []Vec3, error) {
	return accelerations(nil, d.Direct, s)
}

// Simulation integrates a self-interacting system with the kick-drift-kick
// leapfrog scheme, the standard symplectic integrator for N-body dynamics.
// Charges act as gravitational masses: the field is attractive toward
// positive charges (the +grad phi convention used throughout).
type Simulation struct {
	System     *System
	Velocities []Vec3
	Solver     Accelerator
	DT         float64

	acc  []Vec3
	phi  []float64
	into AcceleratorInto // non-nil when Solver supports in-place solves
	time float64
	step int

	// Periodic checkpointing, armed by EnableCheckpoints.
	ckPath  string
	ckEvery int

	counts metrics.Set[simCounts]
}

// simCounts are the recovery events this simulation performed itself.
type simCounts struct{ checkpoints, resumes int64 }

// Counters returns how many snapshots this simulation has written and how
// many times it was restored from one (1 for a resumed simulation, else 0)
// — the Simulation half of metrics.RecoveryStats, beside
// Resilient.Counters.
func (s *Simulation) Counters() (checkpoints, resumes int64) {
	c := s.counts.Read()
	return c.checkpoints, c.resumes
}

// EnableCheckpoints arms periodic checkpointing: after every `every`
// completed steps, Step atomically writes a snapshot to path (see
// CheckpointFile), so a crashed run resumes from the last multiple of
// `every` instead of from zero.
func (s *Simulation) EnableCheckpoints(path string, every int) error {
	if path == "" {
		return fmt.Errorf("nbody: empty checkpoint path")
	}
	if every <= 0 {
		return fmt.Errorf("nbody: non-positive checkpoint interval %d", every)
	}
	s.ckPath, s.ckEvery = path, every
	return nil
}

// NewSimulation prepares a simulation; velocities may be nil for a cold
// start.
func NewSimulation(sys *System, vel []Vec3, solver Accelerator, dt float64) (*Simulation, error) {
	if dt <= 0 {
		return nil, fmt.Errorf("nbody: non-positive timestep %g", dt)
	}
	if vel == nil {
		vel = make([]Vec3, sys.Len())
	}
	if len(vel) != sys.Len() {
		return nil, fmt.Errorf("nbody: %d velocities for %d particles", len(vel), sys.Len())
	}
	s := &Simulation{System: sys, Velocities: vel, Solver: solver, DT: dt}
	s.into, _ = solver.(AcceleratorInto)
	s.phi = make([]float64, sys.Len())
	s.acc = make([]Vec3, sys.Len())
	if err := s.solve(); err != nil {
		return nil, err
	}
	return s, nil
}

// solve refreshes phi and acc from the solver, containing any panic the
// solver lets escape: the panic becomes an *InternalError and the
// simulation's own state (positions, velocities, step counter) is untouched,
// so the caller may retry the step or abandon the run cleanly.
func (s *Simulation) solve() error {
	return guard(nil, nil, func() error {
		if s.into != nil {
			return s.into.AccelerationsInto(s.phi, s.acc, s.System)
		}
		phi, acc, err := s.Solver.Accelerations(s.System)
		if err != nil {
			return err
		}
		s.phi, s.acc = phi, acc
		return nil
	})
}

// Step advances the system by n leapfrog steps.
func (s *Simulation) Step(n int) error {
	for k := 0; k < n; k++ {
		dt := s.DT
		for i := range s.Velocities {
			s.Velocities[i] = s.Velocities[i].Add(s.acc[i].Scale(dt / 2))
			s.System.Positions[i] = s.System.Positions[i].Add(s.Velocities[i].Scale(dt))
		}
		if err := s.solve(); err != nil {
			return fmt.Errorf("nbody: step %d: %w", s.step+1, err)
		}
		for i := range s.Velocities {
			s.Velocities[i] = s.Velocities[i].Add(s.acc[i].Scale(dt / 2))
		}
		s.step++
		s.time += dt
		if s.ckEvery > 0 && s.step%s.ckEvery == 0 {
			if err := s.CheckpointFile(s.ckPath); err != nil {
				return fmt.Errorf("nbody: step %d: checkpoint: %w", s.step, err)
			}
		}
	}
	return nil
}

// Time returns the accumulated simulation time.
func (s *Simulation) Time() float64 { return s.time }

// Steps returns the number of completed steps.
func (s *Simulation) Steps() int { return s.step }

// Energy returns kinetic, potential and total energy. The potential energy
// uses the gravitational sign convention U = -(1/2) sum m_i phi_i.
func (s *Simulation) Energy() (kinetic, potential, total float64) {
	for i := range s.Velocities {
		kinetic += 0.5 * s.System.Charges[i] * s.Velocities[i].Norm2()
		potential -= 0.5 * s.System.Charges[i] * s.phi[i]
	}
	return kinetic, potential, kinetic + potential
}

// Accel returns the most recent acceleration field (valid after
// NewSimulation and after every Step).
func (s *Simulation) Accel() []Vec3 { return s.acc }
