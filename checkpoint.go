package nbody

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"

	"nbody/internal/frame"
)

// Snapshot format, version 1. A checkpoint is one internal/frame record
// (magic "NBODYCKP", version, payload length, payload, CRC32C) whose
// payload, for n particles (length = 32 + 56n, all integers and float bit
// patterns little-endian), is:
//
//	0       8          n (uint64)
//	8       8          completed steps (uint64)
//	16      8          simulation time (float64 bits)
//	24      8          timestep DT (float64 bits)
//	32      24n        positions (x, y, z float64 bits per particle)
//	32+24n  24n        velocities (x, y, z float64 bits per particle)
//	32+48n  8n         charges (float64 bits per particle)
//
// Version rules: the magic never changes; readers reject any version they
// do not know with ErrCorruptCheckpoint rather than guessing. A future
// layout change bumps the version and keeps decoding of all prior
// versions. The payload length is written redundantly with n so torn or
// forged records fail structural validation before any field is trusted,
// and the trailing CRC32C catches bit rot that structure cannot.
var ckFormat = frame.Format{
	Magic:   [8]byte{'N', 'B', 'O', 'D', 'Y', 'C', 'K', 'P'},
	Version: 1,
	Corrupt: ErrCorruptCheckpoint,
}

const (
	ckPayloadFixed     = 32    // n, step, time, dt
	ckBytesPerParticle = 7 * 8 // 3 position + 3 velocity + 1 charge floats
)

// Checkpoint writes a versioned, checksummed snapshot of the simulation's
// full restartable state — positions, velocities, charges, time, step
// count, and timestep — to w. The accelerations are deliberately not
// stored: they are a deterministic function of the positions, and
// ResumeSimulation recomputes them bitwise-identically, so checkpoint →
// resume → Step reproduces the uninterrupted trajectory exactly (given an
// equivalently configured solver).
func (s *Simulation) Checkpoint(w io.Writer) error {
	n := s.System.Len()
	le := binary.LittleEndian
	payload := make([]byte, ckPayloadFixed+n*ckBytesPerParticle)
	le.PutUint64(payload[0:], uint64(n))
	le.PutUint64(payload[8:], uint64(s.step))
	le.PutUint64(payload[16:], math.Float64bits(s.time))
	le.PutUint64(payload[24:], math.Float64bits(s.DT))
	off := ckPayloadFixed
	for _, p := range s.System.Positions {
		le.PutUint64(payload[off:], math.Float64bits(p.X))
		le.PutUint64(payload[off+8:], math.Float64bits(p.Y))
		le.PutUint64(payload[off+16:], math.Float64bits(p.Z))
		off += 24
	}
	for _, v := range s.Velocities {
		le.PutUint64(payload[off:], math.Float64bits(v.X))
		le.PutUint64(payload[off+8:], math.Float64bits(v.Y))
		le.PutUint64(payload[off+16:], math.Float64bits(v.Z))
		off += 24
	}
	for _, q := range s.System.Charges {
		le.PutUint64(payload[off:], math.Float64bits(q))
		off += 8
	}
	if err := ckFormat.Write(w, payload); err != nil {
		return fmt.Errorf("nbody: write checkpoint: %w", err)
	}
	s.counts.Update(func(c *simCounts) { c.checkpoints++ })
	return nil
}

// CheckpointFile writes the snapshot to path atomically: into a temporary
// file in the same directory, fsynced, then renamed over path. A crash at
// any point leaves either the previous snapshot or the new one — never a
// readable-but-torn file.
func (s *Simulation) CheckpointFile(path string) error {
	if err := frame.WriteFileAtomic(path, s.Checkpoint); err != nil {
		return fmt.Errorf("nbody: checkpoint %s: %w", path, err)
	}
	return nil
}

// CheckpointState is the decoded restartable content of one checkpoint
// record: everything Checkpoint wrote, with structure and checksum already
// validated. It separates parsing from resumption so callers that only
// need to inspect a snapshot — the serve layer validating a resume token,
// the gateway reading the step a stream died at — can do so without
// building a solver.
type CheckpointState struct {
	Step       int
	Time       float64
	DT         float64
	Positions  []Vec3
	Velocities []Vec3
	Charges    []float64
}

// Len returns the particle count.
func (st *CheckpointState) Len() int { return len(st.Positions) }

// DecodeCheckpoint parses and validates one snapshot record from r. Any
// structural damage — bad magic, unknown version, truncation, inconsistent
// lengths, checksum mismatch, non-finite time or non-positive timestep —
// is reported with ErrCorruptCheckpoint; corrupt input never panics and
// never yields a silently wrong state.
func DecodeCheckpoint(r io.Reader) (*CheckpointState, error) {
	payload, err := ckFormat.Read(r, func(plen uint64) error {
		if plen < ckPayloadFixed || (plen-ckPayloadFixed)%ckBytesPerParticle != 0 {
			return fmt.Errorf("implausible payload length %d", plen)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	le, corruptf := binary.LittleEndian, ckFormat.Corruptf
	plen := uint64(len(payload))

	nParticles := (plen - ckPayloadFixed) / ckBytesPerParticle
	if n := le.Uint64(payload[0:]); n != nParticles {
		return nil, corruptf("particle count %d inconsistent with payload length %d", n, plen)
	}
	step := le.Uint64(payload[8:])
	if step > math.MaxInt64 {
		return nil, corruptf("implausible step count %d", step)
	}
	simTime := math.Float64frombits(le.Uint64(payload[16:]))
	dt := math.Float64frombits(le.Uint64(payload[24:]))
	if !finite(simTime) {
		return nil, corruptf("non-finite simulation time")
	}
	if !finite(dt) || dt <= 0 {
		return nil, corruptf("non-positive timestep %g", dt)
	}

	n := int(nParticles)
	pos := make([]Vec3, n)
	vel := make([]Vec3, n)
	q := make([]float64, n)
	off := ckPayloadFixed
	for i := range pos {
		pos[i] = Vec3{
			X: math.Float64frombits(le.Uint64(payload[off:])),
			Y: math.Float64frombits(le.Uint64(payload[off+8:])),
			Z: math.Float64frombits(le.Uint64(payload[off+16:])),
		}
		off += 24
	}
	for i := range vel {
		vel[i] = Vec3{
			X: math.Float64frombits(le.Uint64(payload[off:])),
			Y: math.Float64frombits(le.Uint64(payload[off+8:])),
			Z: math.Float64frombits(le.Uint64(payload[off+16:])),
		}
		off += 24
	}
	for i := range q {
		q[i] = math.Float64frombits(le.Uint64(payload[off:]))
		off += 8
	}

	return &CheckpointState{
		Step:       int(step),
		Time:       simTime,
		DT:         dt,
		Positions:  pos,
		Velocities: vel,
		Charges:    q,
	}, nil
}

// ResumeSimulationState rebuilds a Simulation from a decoded checkpoint,
// running it on solver (which must be configured compatibly with the
// original — same domain box and accuracy — for the resumed trajectory to
// continue bitwise). The accelerations are recomputed deterministically
// from the positions, so resume → Step reproduces the uninterrupted
// trajectory exactly. The state's slices are adopted, not copied.
func ResumeSimulationState(st *CheckpointState, solver Accelerator) (*Simulation, error) {
	n := st.Len()
	sim := &Simulation{
		System:     &System{Positions: st.Positions, Charges: st.Charges},
		Velocities: st.Velocities,
		Solver:     solver,
		DT:         st.DT,
		time:       st.Time,
		step:       st.Step,
	}
	sim.into, _ = solver.(AcceleratorInto)
	sim.phi = make([]float64, n)
	sim.acc = make([]Vec3, n)
	if err := sim.solve(); err != nil {
		return nil, fmt.Errorf("nbody: resume: initial solve: %w", err)
	}
	sim.counts.Update(func(c *simCounts) { c.resumes++ })
	return sim, nil
}

// ResumeSimulation rebuilds a Simulation from a snapshot written by
// Checkpoint: DecodeCheckpoint composed with ResumeSimulationState.
func ResumeSimulation(r io.Reader, solver Accelerator) (*Simulation, error) {
	st, err := DecodeCheckpoint(r)
	if err != nil {
		return nil, err
	}
	return ResumeSimulationState(st, solver)
}

// ResumeSimulationFile is ResumeSimulation over a snapshot file written by
// CheckpointFile.
func ResumeSimulationFile(path string, solver Accelerator) (*Simulation, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("nbody: resume %s: %w", path, err)
	}
	defer f.Close()
	sim, err := ResumeSimulation(bufio.NewReader(f), solver)
	if err != nil {
		return nil, fmt.Errorf("resume %s: %w", path, err)
	}
	return sim, nil
}
