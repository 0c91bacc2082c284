package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"

	"nbody/internal/geom"
)

// TestT2SweepPartition is the schedule's correctness statement, checked on
// the plan alone (no arithmetic): over every level of a depth-5 hierarchy,
// and both separations, the jobs visit every in-grid (target, offset) pair
// exactly once, each target in exactly one job, each
// target's offsets in s.interactive[oct] order, and the visits add up to
// the T2 count the solver reports.
func TestT2SweepPartition(t *testing.T) {
	for sep := 1; sep <= 2; sep++ {
		s, err := NewSolver(unitBox(), Config{Degree: 5, Depth: 5, Separation: sep, RadiusRatio: 0.95})
		if err != nil {
			t.Fatal(err)
		}
		var total int64
		for l := 2; l <= 5; l++ {
			sw := s.t2Plan[l]
			total += sw.count
			t.Run(fmt.Sprintf("sep%d/level%d", sep, l), func(t *testing.T) {
				checkT2Partition(t, s, sw)
			})
		}
		rng := rand.New(rand.NewSource(71))
		pos, q := uniformParticles(rng, 4000)
		if _, err := s.Potentials(pos, q); err != nil {
			t.Fatal(err)
		}
		if got := s.Stats().T2Count; got != total {
			t.Errorf("sep %d: solver counted %d conversions, the sweeps hold %d", sep, got, total)
		}
	}
}

func checkT2Partition(t *testing.T, s *Solver, sw *t2Sweep) {
	n := sw.grid
	// offs[li] is the offset of lattice li and pos[li] its position in its
	// octant's interactive list (lattices emptied by clipping are absent
	// from the plan, so the two numberings differ).
	offs := make([]geom.Coord3, 0, len(sw.lats))
	pos := make([]int, 0, len(sw.lats))
	for oct := 0; oct < 8; oct++ {
		for p, o := range s.interactive[oct] {
			if _, ok := offsetLattice(n, oct, o); ok {
				offs = append(offs, o)
				pos = append(pos, p)
			}
		}
		if len(offs) != int(sw.octLo[oct+1]) {
			t.Fatalf("octant %d: plan holds %d lattices up to here, want %d", oct, sw.octLo[oct+1], len(offs))
		}
	}

	owner := make([]int32, n*n*n) // job that visited the box, +1
	next := make([]int, n*n*n)    // position in interactive[oct] the box expects next
	// skip advances a box past the offsets that leave the grid, which no
	// job may apply.
	skip := func(b int, c geom.Coord3, list []geom.Coord3) {
		for next[b] < len(list) && !c.Add(list[next[b]]).In(n) {
			next[b]++
		}
	}
	var visits int64
	for i := 0; i < sw.jobs(); i++ {
		j := sw.job(i)
		list := s.interactive[j.oct]
		for li := sw.octLo[j.oct]; li < sw.octLo[j.oct+1]; li++ {
			lat := &sw.lats[li]
			first, ok := lat.clip(j)
			if !ok {
				continue
			}
			for r := 0; r < int(lat.ny); r++ {
				for x := 0; x < int(lat.nx); x++ {
					b := first + r*2*n + 2*x
					c := geom.CoordFromIndex(b, n)
					if c.Octant() != j.oct || c.Z != j.z {
						t.Fatalf("job %d %+v visits box %v outside its ownership", i, j, c)
					}
					if owner[b] != 0 && owner[b] != int32(i+1) {
						t.Fatalf("box %v visited by jobs %d and %d", c, owner[b]-1, i)
					}
					owner[b] = int32(i + 1)
					if src := c.Add(offs[li]); !src.In(n) || src.Index(n) != b+int(lat.delta) {
						t.Fatalf("box %v offset %v: source %v / delta %d disagree", c, offs[li], src, lat.delta)
					}
					skip(b, c, list)
					if next[b] != pos[li] {
						t.Fatalf("box %v: got offset #%d %v, expected #%d next", c, pos[li], offs[li], next[b])
					}
					next[b]++
					visits++
				}
			}
		}
	}
	for b := range next {
		c := geom.CoordFromIndex(b, n)
		list := s.interactive[c.Octant()]
		skip(b, c, list)
		if next[b] != len(list) {
			t.Fatalf("box %v: in-grid offset #%d %v never applied", c, next[b], list[next[b]])
		}
	}
	if visits != sw.count {
		t.Errorf("%d visits, sweep count %d", visits, sw.count)
	}
}

// TestT2CancelMidSweepThenReuse cancels the context from inside the deepest
// level's T2 region: the solve must return ctx.Err() having abandoned the
// rest of the region, and the same Solver must then reproduce a fresh
// Solver's result bitwise (the half-written grids are rebuilt, no job state
// survives).
func TestT2CancelMidSweepThenReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(72))
	pos, q := uniformParticles(rng, 6000)
	cfg := Config{Degree: 5, Depth: 4}
	s, err := NewSolver(unitBox(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	sw := s.t2Plan[cfg.Depth]
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	run := sw.run
	var ran atomic.Int64
	sw.run = func(i int) {
		if ran.Add(1) == 3 {
			cancel()
		}
		run(i)
	}
	_, err = s.PotentialsCtx(ctx, pos, q)
	sw.run = run
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled solve returned %v, want context.Canceled", err)
	}
	if got := ran.Load(); got < 3 || got >= int64(sw.jobs()) {
		t.Fatalf("%d of %d jobs ran; the cancellation should land mid-region", got, sw.jobs())
	}
	// The abandoned level is not counted as converted; the finished ones are.
	var done int64
	for l := 2; l < cfg.Depth; l++ {
		done += s.t2Plan[l].count
	}
	if got := s.Stats().T2Count; got != done {
		t.Errorf("canceled solve counted %d conversions, the completed levels hold %d", got, done)
	}

	got, err := s.Potentials(pos, q)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := NewSolver(unitBox(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, err := fresh.Potentials(pos, q)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("potential %d after a canceled solve: %g, fresh solver %g", i, got[i], want[i])
		}
	}
}
