package cli

import (
	"slices"
	"testing"

	"nbody"
	"nbody/internal/dpfmm"
	"nbody/internal/simd"
)

func TestSetBackend(t *testing.T) {
	prev := simd.Active()
	defer func() {
		if err := simd.SetBackend(prev); err != nil {
			t.Fatal(err)
		}
	}()

	cases := []struct {
		name    string
		want    string // expected simd.Active() after the call; "" = auto-resolved
		wantErr bool
	}{
		{"auto", "", false},
		{"neon", "", true},
		{"AVX2", "", true}, // names are case-sensitive, like every other flag
		{"scalar", simd.Scalar, false},
		// The flag's empty default keeps the process's backend (here the
		// scalar the row above selected), as NBODY_BACKEND=scalar with no
		// -backend must.
		{"", simd.Scalar, false},
	}
	for _, tc := range cases {
		err := SetBackend(tc.name)
		if tc.wantErr {
			if err == nil {
				t.Errorf("SetBackend(%q) accepted an invalid backend", tc.name)
			}
			continue
		}
		if err != nil {
			t.Fatalf("SetBackend(%q): %v", tc.name, err)
		}
		if tc.want != "" && simd.Active() != tc.want {
			t.Errorf("SetBackend(%q): active backend %q, want %q", tc.name, simd.Active(), tc.want)
		}
		if !slices.Contains(simd.Supported(), simd.Active()) {
			t.Errorf("SetBackend(%q) activated unsupported backend %q", tc.name, simd.Active())
		}
	}

	// Selecting a vector backend explicitly must activate it exactly when the
	// host supports it and fail loudly otherwise — never silently fall back.
	for _, be := range []string{simd.AVX2, simd.AVX512} {
		before := simd.Active()
		err := SetBackend(be)
		supported := slices.Contains(simd.Supported(), be)
		switch {
		case supported && (err != nil || simd.Active() != be):
			t.Errorf("SetBackend(%s): err=%v, active %q on a host that supports it", be, err, simd.Active())
		case !supported && (err == nil || simd.Active() != before):
			t.Errorf("SetBackend(%s): err=%v, active %q on a host without it", be, err, simd.Active())
		}
	}
}

func TestSystemDistributions(t *testing.T) {
	for _, dist := range []string{"uniform", "plummer", "neutral"} {
		sys, err := System(dist, 100, 1)
		if err != nil {
			t.Fatalf("System(%q): %v", dist, err)
		}
		if sys.Len() != 100 {
			t.Errorf("System(%q): %d particles, want 100", dist, sys.Len())
		}
	}
	if _, err := System("gaussian", 100, 1); err == nil {
		t.Error("System accepted an unknown distribution")
	}
}

func TestAccuracyAndStrategy(t *testing.T) {
	if a, err := Accuracy("balanced"); err != nil || a != nbody.Balanced {
		t.Errorf("Accuracy(balanced) = %v, %v", a, err)
	}
	if _, err := Accuracy("ludicrous"); err == nil {
		t.Error("Accuracy accepted an unknown preset")
	}
	if s, err := Strategy("direct-aliased"); err != nil || s != dpfmm.DirectAliased {
		t.Errorf("Strategy(direct-aliased) = %v, %v", s, err)
	}
	if _, err := Strategy("telepathic"); err == nil {
		t.Error("Strategy accepted an unknown strategy")
	}
}

func TestSpecBuildsEveryKind(t *testing.T) {
	sys := nbody.NewUniformSystem(256, 1)
	box := sys.BoundingBox()
	for _, kind := range []string{"anderson", "core", "bh", "direct", "dp"} {
		spec := Spec{Kind: kind, Opts: nbody.Options{Depth: 2}, Theta: 0.6,
			Nodes: 8, Strategy: dpfmm.LinearizedAliased}
		s, err := spec.New(box)
		if err != nil {
			t.Fatalf("Spec{%q}.New: %v", kind, err)
		}
		if _, err := s.Potentials(sys); err != nil {
			t.Errorf("Spec{%q} solver failed to solve: %v", kind, err)
		}
	}
	if _, err := (Spec{Kind: "magic"}).New(box); err == nil {
		t.Error("Spec accepted an unknown kind")
	}
}

func TestLadder(t *testing.T) {
	sys := nbody.NewUniformSystem(128, 2)
	box := sys.BoundingBox()
	spec := Spec{Kind: "dp", Opts: nbody.Options{Depth: 3}, Theta: 0.6,
		Nodes: 8, Strategy: dpfmm.LinearizedAliased}

	cases := []struct {
		name      string
		fallbacks string
		wantNames []string
		wantErr   bool
	}{
		{"no fallbacks", "", []string{"anderson-dp"}, false},
		{"one fallback", "anderson", []string{"anderson-dp", "anderson"}, false},
		{"full ladder", "anderson, bh ,direct", []string{"anderson-dp", "anderson", "barnes-hut", "direct"}, false},
		{"unknown kind", "anderson,telekinesis", nil, true},
		{"empty element", "anderson,,direct", nil, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rungs, err := spec.Ladder(tc.fallbacks, box)
			if tc.wantErr {
				if err == nil {
					t.Fatalf("Ladder(%q) accepted an invalid list", tc.fallbacks)
				}
				return
			}
			if err != nil {
				t.Fatalf("Ladder(%q): %v", tc.fallbacks, err)
			}
			if len(rungs) != len(tc.wantNames) {
				t.Fatalf("Ladder(%q): %d rungs, want %d", tc.fallbacks, len(rungs), len(tc.wantNames))
			}
			for i, want := range tc.wantNames {
				if got := rungs[i].Name(); got != want {
					t.Errorf("rung %d = %q, want %q", i, got, want)
				}
			}
		})
	}
}

func TestAccel(t *testing.T) {
	sys := nbody.NewUniformSystem(64, 3)
	box := sys.BoundingBox()
	for _, kind := range []string{"anderson", "direct", "dp"} {
		s, err := Spec{Kind: kind, Opts: nbody.Options{Depth: 2}, Nodes: 8,
			Strategy: dpfmm.LinearizedAliased}.New(box)
		if err != nil {
			t.Fatalf("Spec{%q}: %v", kind, err)
		}
		a, err := Accel(s)
		if err != nil {
			t.Fatalf("Accel(%q): %v", kind, err)
		}
		if _, _, err := a.Accelerations(sys); err != nil {
			t.Errorf("Accel(%q) solver failed: %v", kind, err)
		}
	}
	if _, err := Accel(nbody.NewBarnesHut(box, 0.6)); err == nil {
		t.Error("Accel accepted the potentials-only Barnes-Hut solver")
	}
}

func TestRecoveryFlagsValidate(t *testing.T) {
	cases := []struct {
		name    string
		flags   RecoveryFlags
		wantErr bool
	}{
		{"zero value", RecoveryFlags{}, false},
		{"retries only", RecoveryFlags{Retries: 5}, false},
		{"fallback only", RecoveryFlags{Fallback: "direct"}, false},
		{"checkpointing", RecoveryFlags{Checkpoint: "x.ckpt", CheckpointEvery: 10}, false},
		{"resume only", RecoveryFlags{Resume: "x.ckpt"}, false},
		{"everything", RecoveryFlags{Retries: 3, Fallback: "anderson,direct",
			Checkpoint: "x.ckpt", CheckpointEvery: 5, Resume: "y.ckpt"}, false},
		{"negative retries", RecoveryFlags{Retries: -1}, true},
		{"negative interval", RecoveryFlags{CheckpointEvery: -2}, true},
		{"interval without path", RecoveryFlags{CheckpointEvery: 4}, true},
		{"path without interval", RecoveryFlags{Checkpoint: "x.ckpt"}, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.flags.Validate()
			if tc.wantErr && err == nil {
				t.Fatalf("Validate(%+v) accepted an invalid combination", tc.flags)
			}
			if !tc.wantErr && err != nil {
				t.Fatalf("Validate(%+v): %v", tc.flags, err)
			}
		})
	}
}

func TestSupervised(t *testing.T) {
	sys := nbody.NewUniformSystem(128, 4)
	box := sys.BoundingBox()
	spec := Spec{Kind: "anderson", Opts: nbody.Options{Depth: 2}}

	// No recovery flags: the bare solver, not a wrapper.
	s, err := Supervised(spec, RecoveryFlags{}, box)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s.(*nbody.Anderson); !ok {
		t.Errorf("Supervised with no flags returned %T, want the bare *nbody.Anderson", s)
	}

	// Any recovery request wraps the ladder.
	s, err = Supervised(spec, RecoveryFlags{Retries: 2, Fallback: "direct"}, box)
	if err != nil {
		t.Fatal(err)
	}
	r, ok := s.(*nbody.Resilient)
	if !ok {
		t.Fatalf("Supervised returned %T, want *nbody.Resilient", s)
	}
	if got := r.RungNames(); len(got) != 2 || got[0] != "anderson" || got[1] != "direct" {
		t.Errorf("ladder %v, want [anderson direct]", got)
	}
	if _, err := s.Potentials(sys); err != nil {
		t.Errorf("supervised solve failed: %v", err)
	}

	// Invalid flag combinations surface before any solver is built.
	if _, err := Supervised(spec, RecoveryFlags{Retries: -1}, box); err == nil {
		t.Error("Supervised accepted negative retries")
	}
}
