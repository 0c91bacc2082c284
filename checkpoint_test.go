package nbody_test

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"nbody"
)

// ckSimulation builds a deterministic simulation for checkpoint tests: a
// fixed box large enough that a few leapfrog steps never leave the domain,
// and a fresh Anderson solver per call so an original and a resumed run use
// equivalently configured but independent backends.
func ckSimulation(t *testing.T, n int, seed int64) (*nbody.Simulation, *nbody.Anderson) {
	t.Helper()
	sys := nbody.NewUniformSystem(n, seed)
	box := nbody.Box{Center: nbody.Vec3{X: 0.5, Y: 0.5, Z: 0.5}, Side: 100}
	a, err := nbody.NewAnderson(box, nbody.Options{Depth: 3})
	if err != nil {
		t.Fatal(err)
	}
	sim, err := nbody.NewSimulation(sys, nil, a, 1e-4)
	if err != nil {
		t.Fatal(err)
	}
	return sim, a
}

// ckSolver builds the Anderson backend alone, configured identically to
// ckSimulation's, for resuming.
func ckSolver(t *testing.T) *nbody.Anderson {
	t.Helper()
	box := nbody.Box{Center: nbody.Vec3{X: 0.5, Y: 0.5, Z: 0.5}, Side: 100}
	a, err := nbody.NewAnderson(box, nbody.Options{Depth: 3})
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// TestCheckpointResumeBitwise is the round-trip acceptance test: a run that
// checkpoints mid-flight and resumes on a fresh, identically configured
// solver must continue the uninterrupted trajectory bit for bit — positions,
// velocities, time, and step count all exactly equal.
func TestCheckpointResumeBitwise(t *testing.T) {
	sim, _ := ckSimulation(t, 1024, 31)
	if err := sim.Step(3); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := sim.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}

	// The original keeps going...
	if err := sim.Step(2); err != nil {
		t.Fatal(err)
	}

	// ...while a resumed copy replays the same two steps from the snapshot.
	resumed, err := nbody.ResumeSimulation(bytes.NewReader(buf.Bytes()), ckSolver(t))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := resumed.Steps(), 3; got != want {
		t.Fatalf("resumed at step %d, want %d", got, want)
	}
	if err := resumed.Step(2); err != nil {
		t.Fatal(err)
	}

	if got, want := resumed.Steps(), sim.Steps(); got != want {
		t.Errorf("steps %d, want %d", got, want)
	}
	if got, want := resumed.Time(), sim.Time(); math.Float64bits(got) != math.Float64bits(want) {
		t.Errorf("time %v, want bitwise %v", got, want)
	}
	for i := range sim.System.Positions {
		if resumed.System.Positions[i] != sim.System.Positions[i] {
			t.Fatalf("position %d diverged: %v vs %v", i, resumed.System.Positions[i], sim.System.Positions[i])
		}
		if resumed.Velocities[i] != sim.Velocities[i] {
			t.Fatalf("velocity %d diverged: %v vs %v", i, resumed.Velocities[i], sim.Velocities[i])
		}
	}
}

// TestCheckpointRoundTripState checks the snapshot preserves every stored
// field exactly, without stepping at all.
func TestCheckpointRoundTripState(t *testing.T) {
	sim, _ := ckSimulation(t, 256, 32)
	if err := sim.Step(1); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := sim.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}
	resumed, err := nbody.ResumeSimulation(&buf, ckSolver(t))
	if err != nil {
		t.Fatal(err)
	}
	if resumed.DT != sim.DT {
		t.Errorf("DT %g, want %g", resumed.DT, sim.DT)
	}
	if resumed.Steps() != sim.Steps() || resumed.Time() != sim.Time() {
		t.Errorf("(step, time) = (%d, %g), want (%d, %g)", resumed.Steps(), resumed.Time(), sim.Steps(), sim.Time())
	}
	for i := range sim.System.Charges {
		if resumed.System.Charges[i] != sim.System.Charges[i] {
			t.Fatalf("charge %d = %g, want %g", i, resumed.System.Charges[i], sim.System.Charges[i])
		}
	}
}

// zeroAccel is a solver-free Accelerator for tests that only exercise the
// checkpoint codec.
type zeroAccel struct{}

func (zeroAccel) Accelerations(s *nbody.System) ([]float64, []nbody.Vec3, error) {
	return make([]float64, s.Len()), make([]nbody.Vec3, s.Len()), nil
}

// TestCheckpointGoldenBytes pins the on-disk and on-wire format: a fixed
// two-particle state must encode to exactly the bytes the pre-internal/frame
// codec (commit e479957) wrote, and those bytes must decode back to it.
func TestCheckpointGoldenBytes(t *testing.T) {
	const golden = "4e424f4459434b50010000009000000000000000" +
		"02000000000000000700000000000000000000000000ec3f000000000000c03f" +
		"000000000000d03f000000000000e03f000000000000e83f000000000000e43f000000000000d83f000000000000c03f" +
		"000000000000f0bf000000000000004000000000000008c0000000000000e03f000000000000d0bf0000000000000000" +
		"000000000000f83f00000000000000c0" +
		"297e3cc1"
	st := &nbody.CheckpointState{
		Step: 7, Time: 0.875, DT: 0.125,
		Positions:  []nbody.Vec3{{X: 0.25, Y: 0.5, Z: 0.75}, {X: 0.625, Y: 0.375, Z: 0.125}},
		Velocities: []nbody.Vec3{{X: -1, Y: 2, Z: -3}, {X: 0.5, Y: -0.25, Z: 0}},
		Charges:    []float64{1.5, -2},
	}
	sim, err := nbody.ResumeSimulationState(st, zeroAccel{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := sim.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}
	if got := hex.EncodeToString(buf.Bytes()); got != golden {
		t.Fatalf("checkpoint bytes changed:\n got %s\nwant %s", got, golden)
	}
	raw, _ := hex.DecodeString(golden)
	back, err := nbody.DecodeCheckpoint(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if back.Step != 7 || back.Time != 0.875 || back.DT != 0.125 ||
		back.Positions[1] != st.Positions[1] || back.Velocities[0] != st.Velocities[0] || back.Charges[1] != -2 {
		t.Fatalf("golden decoded to %+v", back)
	}
}

// ckBytes produces a valid snapshot as raw bytes.
func ckBytes(t *testing.T) []byte {
	t.Helper()
	sim, _ := ckSimulation(t, 64, 33)
	var buf bytes.Buffer
	if err := sim.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// reCRC rewrites the trailing CRC32C so a deliberate payload mutation tests
// the field validation behind the checksum, not the checksum itself.
func reCRC(b []byte) []byte {
	payload := b[20 : len(b)-4]
	binary.LittleEndian.PutUint32(b[len(b)-4:], crc32.Checksum(payload, crc32.MakeTable(crc32.Castagnoli)))
	return b
}

// TestResumeCorruptTable is the corruption table: every damaged snapshot
// must be rejected with ErrCorruptCheckpoint — never a panic, never a
// silently wrong simulation.
func TestResumeCorruptTable(t *testing.T) {
	valid := ckBytes(t)
	mut := func(f func(b []byte) []byte) []byte {
		return f(append([]byte{}, valid...))
	}
	cases := []struct {
		name string
		data []byte
	}{
		{"empty", nil},
		{"truncated header", valid[:10]},
		{"header only", valid[:20]},
		{"truncated payload", valid[:len(valid)/2]},
		{"missing checksum", valid[:len(valid)-2]},
		{"bad magic", mut(func(b []byte) []byte { b[0] = 'X'; return b })},
		{"future version", mut(func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[8:], 99)
			return b
		})},
		{"implausible length", mut(func(b []byte) []byte {
			binary.LittleEndian.PutUint64(b[12:], 13) // under the fixed header, not a particle multiple
			return b
		})},
		{"forged huge length", mut(func(b []byte) []byte {
			binary.LittleEndian.PutUint64(b[12:], 32+56*(1<<40))
			return b
		})},
		{"payload bit flip", mut(func(b []byte) []byte { b[40] ^= 0x10; return b })},
		{"checksum bit flip", mut(func(b []byte) []byte { b[len(b)-1] ^= 1; return b })},
		{"inconsistent particle count", mut(func(b []byte) []byte {
			binary.LittleEndian.PutUint64(b[20:], 63)
			return reCRC(b)
		})},
		{"negative step count", mut(func(b []byte) []byte {
			binary.LittleEndian.PutUint64(b[28:], 1<<63)
			return reCRC(b)
		})},
		{"NaN time", mut(func(b []byte) []byte {
			binary.LittleEndian.PutUint64(b[36:], math.Float64bits(math.NaN()))
			return reCRC(b)
		})},
		{"zero timestep", mut(func(b []byte) []byte {
			binary.LittleEndian.PutUint64(b[44:], 0)
			return reCRC(b)
		})},
		{"negative timestep", mut(func(b []byte) []byte {
			binary.LittleEndian.PutUint64(b[44:], math.Float64bits(-1e-4))
			return reCRC(b)
		})},
	}
	solver := ckSolver(t)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sim, err := nbody.ResumeSimulation(bytes.NewReader(tc.data), solver)
			if !errors.Is(err, nbody.ErrCorruptCheckpoint) {
				t.Fatalf("got (%v, %v), want ErrCorruptCheckpoint", sim, err)
			}
			if sim != nil {
				t.Fatal("corrupt snapshot returned a non-nil simulation")
			}
		})
	}

	// The untouched original must still resume — the mutations above worked
	// on copies.
	if _, err := nbody.ResumeSimulation(bytes.NewReader(valid), solver); err != nil {
		t.Fatalf("pristine snapshot rejected: %v", err)
	}
}

// TestPeriodicCheckpoints arms EnableCheckpoints and proves Step writes the
// snapshot at every interval multiple, that the file resumes to the latest
// multiple, and that no temporary files are left behind by the atomic
// writer.
func TestPeriodicCheckpoints(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "sim.ckpt")
	sim, _ := ckSimulation(t, 256, 34)
	if err := sim.EnableCheckpoints(path, 2); err != nil {
		t.Fatal(err)
	}
	if err := sim.Step(5); err != nil {
		t.Fatal(err)
	}
	if ck, res := sim.Counters(); ck != 2 || res != 0 {
		t.Errorf("(checkpoints, resumes) = (%d, %d), want (2, 0): steps 2 and 4", ck, res)
	}
	resumed, err := nbody.ResumeSimulationFile(path, ckSolver(t))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := resumed.Steps(), 4; got != want {
		t.Errorf("resumed at step %d, want %d (the last interval multiple)", got, want)
	}
	// The counts belong to the simulation that performed them: the resumed
	// one was restored once and has written nothing.
	if ck, res := resumed.Counters(); ck != 0 || res != 1 {
		t.Errorf("resumed (checkpoints, resumes) = (%d, %d), want (0, 1)", ck, res)
	}

	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.Contains(e.Name(), ".tmp-") {
			t.Errorf("atomic writer left temporary file %s", e.Name())
		}
	}
	if len(entries) != 1 {
		t.Errorf("checkpoint dir holds %d entries, want just the snapshot", len(entries))
	}

	// Arming validation.
	if err := sim.EnableCheckpoints("", 2); err == nil {
		t.Error("EnableCheckpoints accepted an empty path")
	}
	if err := sim.EnableCheckpoints(path, 0); err == nil {
		t.Error("EnableCheckpoints accepted a zero interval")
	}
}

// TestResumeMissingFile checks the file-level entry point reports a missing
// snapshot as a plain I/O error, not as corruption.
func TestResumeMissingFile(t *testing.T) {
	_, err := nbody.ResumeSimulationFile(filepath.Join(t.TempDir(), "nope.ckpt"), ckSolver(t))
	if err == nil {
		t.Fatal("missing file resumed")
	}
	if errors.Is(err, nbody.ErrCorruptCheckpoint) {
		t.Fatalf("missing file reported as corruption: %v", err)
	}
}
