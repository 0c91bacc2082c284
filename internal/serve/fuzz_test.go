package serve

import (
	"bytes"
	"testing"
)

// FuzzServeRequest fuzzes the JSON decoder/validator pair behind
// POST /v1/solve and POST /v1/simulate: whatever bytes arrive, decoding
// must never panic, and when it accepts a request the resolved system must
// actually satisfy the invariants the solvers rely on (validated domain,
// matching lengths, bounded N and depth, known selectors) — the decoder is
// the only wall between the network and the solver stack.
func FuzzServeRequest(f *testing.F) {
	// A valid small request.
	f.Add([]byte(`{"tenant":"a","positions":[[0.1,0.2,0.3],[0.7,0.8,0.9]],"charges":[1,-1]}`))
	// Overflowing numbers decode to +Inf in some parsers; ours must reject
	// (JSON itself cannot carry NaN, so Inf via overflow is the probe).
	f.Add([]byte(`{"positions":[[1e999,0.5,0.5]],"charges":[1]}`))
	f.Add([]byte(`{"positions":[[0.5,0.5,0.5]],"charges":[1e999]}`))
	// Empty and zero-N systems.
	f.Add([]byte(`{"positions":[],"charges":[]}`))
	f.Add([]byte(`{}`))
	// Mismatched lengths.
	f.Add([]byte(`{"positions":[[0.5,0.5,0.5]],"charges":[1,2,3]}`))
	// Duplicate particles (legal for the decoder; the solver tolerates
	// coincident points by convention — must not trip validation).
	f.Add([]byte(`{"positions":[[0.5,0.5,0.5],[0.5,0.5,0.5]],"charges":[1,1]}`))
	// Out-of-domain and boundary positions.
	f.Add([]byte(`{"positions":[[1.5,0.5,0.5]],"charges":[1]}`))
	f.Add([]byte(`{"positions":[[1.0,0.0,0.999999]],"charges":[1]}`))
	// Selector abuse.
	f.Add([]byte(`{"positions":[[0.5,0.5,0.5]],"charges":[1],"accuracy":"warp9"}`))
	f.Add([]byte(`{"positions":[[0.5,0.5,0.5]],"charges":[1],"depth":-1}`))
	f.Add([]byte(`{"positions":[[0.5,0.5,0.5]],"charges":[1],"depth":1}`))
	f.Add([]byte(`{"positions":[[0.5,0.5,0.5]],"charges":[1],"depth":99}`))
	f.Add([]byte(`{"positions":[[0.5,0.5,0.5]],"charges":[1],"compute":"accelerations","phases":true}`))
	// Simulate-shaped bodies (same fuzz target covers both decoders).
	f.Add([]byte(`{"positions":[[0.5,0.5,0.5]],"charges":[1],"steps":4,"dt":0.001}`))
	f.Add([]byte(`{"positions":[[0.5,0.5,0.5]],"charges":[1],"steps":-4,"dt":1e999,"stream_every":-9}`))
	// Structural garbage.
	f.Add([]byte(`[[[[`))
	f.Add([]byte(`{"positions": 42}`))
	f.Add([]byte(``))

	lim := Limits{MaxN: 4096, MaxDepth: 6}
	f.Fuzz(func(t *testing.T, data []byte) {
		req, sys, err := decodeSolveRequest(bytes.NewReader(data), lim)
		if err == nil {
			n := sys.Len()
			if n < 1 || n > lim.MaxN {
				t.Fatalf("accepted N=%d outside (0, %d]", n, lim.MaxN)
			}
			if len(sys.Charges) != n || len(req.Positions) != n {
				t.Fatalf("accepted mismatched lengths: n=%d charges=%d positions=%d", n, len(sys.Charges), len(req.Positions))
			}
			// Depth 0 (auto) survives decoding for the planner to resolve;
			// anything else must land in [2, MaxDepth].
			if req.Depth != 0 && (req.Depth < 2 || req.Depth > lim.MaxDepth) {
				t.Fatalf("accepted depth %d outside {0} ∪ [2, %d]", req.Depth, lim.MaxDepth)
			}
			switch req.Compute {
			case "potentials", "accelerations":
			default:
				t.Fatalf("accepted compute %q", req.Compute)
			}
			switch req.Accuracy {
			case "fast", "balanced", "accurate":
			default:
				t.Fatalf("accepted accuracy %q", req.Accuracy)
			}
			// The decoder promised a validated system.
			if verr := sys.Validate(Domain()); verr != nil {
				t.Fatalf("accepted system fails Validate: %v", verr)
			}
		}

		sreq, ssys, serr := decodeSimulateRequest(bytes.NewReader(data), lim)
		if serr == nil {
			if sreq.Steps < 1 || !(sreq.DT > 0) {
				t.Fatalf("accepted steps=%d dt=%g", sreq.Steps, sreq.DT)
			}
			if sreq.StreamEvery < 1 {
				t.Fatalf("accepted stream_every=%d after defaulting", sreq.StreamEvery)
			}
			if verr := ssys.Validate(SimDomain()); verr != nil {
				t.Fatalf("accepted simulate system fails Validate: %v", verr)
			}
		}
	})
}
