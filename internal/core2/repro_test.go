package core2

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"os"
	"os/exec"
	"slices"
	"strings"
	"testing"

	"nbody/internal/simd"
)

// reproConfigs are the solves the reproducibility tests hash: plain sweeps
// at K = 8, 12 and 32 (below, at and across the mat-vec kernel's 12-column
// blocks; K = 12 is the one avx512 rebinds) and a supernode solve at K = 16.
var reproConfigs = []Config{
	{K: 8, Depth: 4},
	{K: 12, Depth: 4},
	{K: 32, Depth: 3},
	{K: 16, Depth: 4, Supernodes: true},
}

// reproHashes solves every reproConfigs entry on one uniform fixture, twice
// each, fails unless the repeat reproduces the first solve bit for bit, and
// returns one "name-hash=…" line per configuration.
func reproHashes(t *testing.T) []string {
	t.Helper()
	pos, q := uniform2(rand.New(rand.NewSource(97)), 4096)
	var lines []string
	for _, cfg := range reproConfigs {
		s, err := NewSolver(unitBox2(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		var first uint64
		for rep := 0; rep < 2; rep++ {
			phi, err := potentials(s, pos, q)
			if err != nil {
				t.Fatal(err)
			}
			h := fnv.New64a()
			for _, v := range phi {
				fmt.Fprintf(h, "%x\n", math.Float64bits(v))
			}
			if rep == 0 {
				first = h.Sum64()
			} else if h.Sum64() != first {
				t.Fatalf("%+v: repeated solve %016x, then %016x", cfg, first, h.Sum64())
			}
		}
		lines = append(lines, fmt.Sprintf("K%d-depth%d-super%v-hash=%016x", cfg.K, cfg.Depth, cfg.Supernodes, first))
	}
	return lines
}

// childEnv marks a test process started by rerunAt: the scheduler sizes its
// pool once per process, so a worker count needs a process of its own.
const childEnv = "NBODY_CORE2_TEST_CHILD"

// rerunAt runs the calling test alone in a child process with the given
// GOMAXPROCS and returns the child's output; a failing child fails the test.
func rerunAt(t *testing.T, procs int) string {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(exe, "-test.run=^"+t.Name()+"$", "-test.count=1", "-test.v")
	cmd.Env = append(os.Environ(), childEnv+"=1", fmt.Sprintf("GOMAXPROCS=%d", procs))
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("child at GOMAXPROCS=%d: %v\n%s", procs, err, out)
	}
	return string(out)
}

// TestSolveIndependentOfWorkerCount: every sweep of the 2-D solver writes a
// box from one job in an order fixed by the input, so a solve's bits are the
// same at one, two and four workers (each count in a child process).
func TestSolveIndependentOfWorkerCount(t *testing.T) {
	if os.Getenv(childEnv) != "" {
		for _, line := range reproHashes(t) {
			fmt.Println(line)
		}
		return
	}
	var want []string
	for _, procs := range []int{1, 2, 4} {
		var got []string
		for _, line := range strings.Split(rerunAt(t, procs), "\n") {
			if strings.Contains(line, "-hash=") {
				got = append(got, line)
			}
		}
		if len(got) != len(reproConfigs) {
			t.Fatalf("child at GOMAXPROCS=%d printed %d hashes, want %d", procs, len(got), len(reproConfigs))
		}
		if want == nil {
			want = got
		} else if !slices.Equal(got, want) {
			t.Errorf("GOMAXPROCS=%d: %v, GOMAXPROCS=1: %v", procs, got, want)
		}
	}
}

// TestSolveSameBitsOnAVX2AndAVX512: the avx512 backend rebinds the mat-vec
// kernel's K = 12 slab body only, in avx2's order, and the 2-D near field
// has no vector body, so a 2-D solve gives avx2's bits on avx512.
func TestSolveSameBitsOnAVX2AndAVX512(t *testing.T) {
	for _, be := range []string{simd.AVX2, simd.AVX512} {
		if !slices.Contains(simd.Supported(), be) {
			t.Skipf("backend %s not supported on this host", be)
		}
	}
	hashes := func(be string) []string {
		prev := simd.Active()
		if err := simd.SetBackend(be); err != nil {
			t.Fatal(err)
		}
		defer func() {
			if err := simd.SetBackend(prev); err != nil {
				t.Fatal(err)
			}
		}()
		return reproHashes(t)
	}
	if avx2, avx512 := hashes(simd.AVX2), hashes(simd.AVX512); !slices.Equal(avx2, avx512) {
		t.Errorf("avx2 %v, avx512 %v", avx2, avx512)
	}
}
