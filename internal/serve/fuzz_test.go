package serve

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"

	"nbody"
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

// FuzzDecodeDifferential holds the scanner to its contract: whatever bytes
// arrive, on either endpoint, decodeRequest and the encoding/json reference
// (decodeSolveRequest / decodeSimulateRequest, which is also its fallback)
// agree on success or failure, on the error and the HTTP status it maps to,
// and on success on every selector and every bit of every position and
// charge. The scanner is then an optimisation and nothing else.
func FuzzDecodeDifferential(f *testing.F) {
	for _, seed := range wireSeeds {
		f.Add([]byte(seed.body))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkDecodeAgrees(t, data, false)
		checkDecodeAgrees(t, data, true)
	})
}

// FuzzEncodeFloats holds the append encoder to encoding/json's bytes, for
// any bit pattern: a lone float, the array forms, and the refusal of the
// values JSON cannot carry.
func FuzzEncodeFloats(f *testing.F) {
	for _, x := range []float64{0, math.Copysign(0, -1), 1, -1, 0.1, 1e-6, -1e-6, math.Nextafter(1e-6, 0),
		1e21, -1e21, math.Nextafter(1e21, 0), 1e-7, 1.5e-9, 1e-10, 1e100, 123456789.125, 5e-324, -5e-324,
		2.2250738585072014e-308, math.MaxFloat64, -math.MaxFloat64, math.Inf(1), math.Inf(-1), math.NaN()} {
		f.Add(math.Float64bits(x), math.Float64bits(-x/3), math.Float64bits(x*7))
	}
	f.Fuzz(func(t *testing.T, a, b, c uint64) {
		x, y, z := math.Float64frombits(a), math.Float64frombits(b), math.Float64frombits(c)
		check := func(what string, got []byte, gerr error, v any) {
			want, werr := json.Marshal(v)
			if (gerr == nil) != (werr == nil) || (gerr != nil && gerr.Error() != werr.Error()) {
				t.Fatalf("%s %v: err %v, json.Marshal err %v", what, v, gerr, werr)
			}
			if gerr == nil && !bytes.Equal(got, want) {
				t.Fatalf("%s %v: %s, json.Marshal %s", what, v, got, want)
			}
		}
		got, err := appendFloat(nil, x)
		check("appendFloat", got, err, x)
		got, err = appendFloats(nil, []float64{x, y, z})
		check("appendFloats", got, err, []float64{x, y, z})
		got, err = appendVec3s(nil, []nbody.Vec3{{X: x, Y: y, Z: z}, {X: z, Y: x, Z: y}})
		check("appendVec3s", got, err, [][3]float64{{x, y, z}, {z, x, y}})
	})
}
