package serve

import (
	"bytes"
	"encoding/base64"
	"fmt"
	"math"

	"nbody"
)

// Resume tokens are the crash-survivable streaming protocol's currency: a
// token is the base64 (standard alphabet) of one checkpoint record —
// exactly the bytes Simulation.Checkpoint writes, magic, version, CRC32C
// and all — so the full corruption hardening of the checkpoint decoder
// (structural validation before any field is trusted, checksum last)
// guards the HTTP surface too. A token is self-contained: it carries the
// particle state, the step count, the time, and the timestep, so any
// replica can continue the simulation from it with no other state.

// maxTokenOverhead bounds the non-particle part of a decoded token:
// header, fixed payload fields, CRC.
const maxTokenOverhead = 64

// encodeResumeToken snapshots sim into a resume token.
func encodeResumeToken(sim *nbody.Simulation) (string, error) {
	var buf bytes.Buffer
	if err := sim.Checkpoint(&buf); err != nil {
		return "", err
	}
	return base64.StdEncoding.EncodeToString(buf.Bytes()), nil
}

// decodeResumeToken parses and validates a resume token against the
// server's size limits. Corruption of any kind — bad base64, a forged
// length, truncation, bit rot, trailing garbage — is a client error
// (ErrBadRequest or nbody.ErrCorruptCheckpoint, both 400), never a panic
// and never a 5xx: a gateway replaying a stale or damaged token must not
// look like a server failure.
func decodeResumeToken(tok string, lim Limits) (*nbody.CheckpointState, error) {
	// Cap the decode before allocating: a token for MaxN particles is
	// bounded, so anything longer is forged.
	if lim.MaxN > 0 {
		maxRaw := int64(lim.MaxN)*56 + maxTokenOverhead
		if int64(len(tok)) > (maxRaw+2)/3*4+4 {
			return nil, fmt.Errorf("%w: resume token longer than any %d-particle checkpoint", ErrTooLarge, lim.MaxN)
		}
	}
	raw, err := base64.StdEncoding.DecodeString(tok)
	if err != nil {
		return nil, fmt.Errorf("%w: resume token is not valid base64: %v", ErrBadRequest, err)
	}
	r := bytes.NewReader(raw)
	st, err := nbody.DecodeCheckpoint(r)
	if err != nil {
		return nil, err
	}
	if r.Len() != 0 {
		return nil, fmt.Errorf("%w: resume token has %d trailing bytes", ErrBadRequest, r.Len())
	}
	if lim.MaxN > 0 && st.Len() > lim.MaxN {
		return nil, fmt.Errorf("%w: resume token holds %d particles, cap is %d", ErrTooLarge, st.Len(), lim.MaxN)
	}
	return st, nil
}

// resolveResume is the resume-path counterpart of SolveRequest.resolve: it
// decodes and validates the token, reconciles the integration parameters
// with the checkpoint (DT must match or be omitted; Steps is the original
// total and must lie beyond the checkpoint's step), validates the restored
// particle state against the simulation domain, and returns the system.
// The decoded state lands in req.resume for the stream loop.
func (r *SimulateRequest) resolveResume(lim Limits, box nbody.Box) (*nbody.System, error) {
	if len(r.Positions) != 0 || len(r.pos) != 0 || len(r.Charges) != 0 {
		return nil, fmt.Errorf("%w: resume_token and positions/charges are mutually exclusive", ErrBadRequest)
	}
	st, err := decodeResumeToken(r.ResumeToken, lim)
	if err != nil {
		return nil, err
	}
	switch {
	case r.DT == 0:
		r.DT = st.DT
	case r.DT != st.DT:
		return nil, fmt.Errorf("%w: dt %g does not match the checkpoint's %g", ErrBadRequest, r.DT, st.DT)
	}
	if r.Steps <= st.Step {
		return nil, fmt.Errorf("%w: steps %d not beyond the checkpoint's step %d", ErrBadRequest, r.Steps, st.Step)
	}
	if err := r.resolveSelectors(lim); err != nil {
		return nil, err
	}
	sys := &nbody.System{Positions: st.Positions, Charges: st.Charges}
	if err := sys.Validate(box); err != nil {
		return nil, err
	}
	// Validate covers positions and charges; the velocities only the
	// checkpoint carries need their own finiteness check.
	for i, v := range st.Velocities {
		if math.IsNaN(v.X) || math.IsInf(v.X, 0) ||
			math.IsNaN(v.Y) || math.IsInf(v.Y, 0) ||
			math.IsNaN(v.Z) || math.IsInf(v.Z, 0) {
			return nil, fmt.Errorf("%w: non-finite velocity at particle %d", ErrBadRequest, i)
		}
	}
	r.resume = st
	return sys, nil
}
