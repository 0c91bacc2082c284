package serve

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"nbody"
	"nbody/internal/plan"
)

// tkey builds a plan Key the way the server's planner does: accuracy
// resolved to K, depth and flags in the Plan.
func tkey(n, depth int, acc string, super, sim bool) Key {
	return Key{
		Shape: plan.ShapeKey{N: n, Accuracy: acc},
		Sim:   sim,
		Plan:  plan.Plan{Depth: depth, K: plan.AccuracyK(acc), Supernodes: super},
	}
}

// fakeBuild swaps the cache's constructor for an instant one, so the cache
// mechanics (keying, eviction, exclusivity) are tested without paying for
// real solver construction.
func fakeBuild(c *PlanCache) *atomic.Int64 {
	var builds atomic.Int64
	c.build = func(key Key, _ nbody.RetryPolicy) (*Plan, error) {
		builds.Add(1)
		return &Plan{Key: key}, nil
	}
	return &builds
}

func TestPlanCacheKeying(t *testing.T) {
	c := NewPlanCache(8, nbody.RetryPolicy{})
	builds := fakeBuild(c)

	kA := tkey(512, 3, "fast", false, false)
	kB := tkey(512, 4, "fast", false, false)     // depth differs
	kC := tkey(512, 3, "accurate", false, false) // accuracy differs
	kD := tkey(512, 3, "fast", false, true)      // domain differs

	plans := map[Key]*Plan{}
	for _, k := range []Key{kA, kB, kC, kD} {
		p, hit, err := c.Acquire(k)
		if err != nil || hit {
			t.Fatalf("Acquire(%v) = hit=%v err=%v, want cold miss", k, hit, err)
		}
		plans[k] = p
	}
	if got := builds.Load(); got != 4 {
		t.Fatalf("distinct keys built %d plans, want 4", got)
	}
	for _, p := range plans {
		c.Release(p)
	}

	// Same key again: a hit returning the identical plan.
	p, hit, err := c.Acquire(kA)
	if err != nil || !hit {
		t.Fatalf("warm Acquire = hit=%v err=%v, want hit", hit, err)
	}
	if p != plans[kA] {
		t.Fatalf("warm Acquire returned a different plan for the same key")
	}
	c.Release(p)

	st := c.Stats()
	if st.Hits != 1 || st.Misses != 4 || st.Evictions != 0 {
		t.Fatalf("stats = %+v, want 1 hit, 4 misses, 0 evictions", st)
	}
}

func TestPlanCacheEviction(t *testing.T) {
	c := NewPlanCache(2, nbody.RetryPolicy{})
	fakeBuild(c)

	keys := []Key{tkey(1, 0, "", false, false), tkey(2, 0, "", false, false), tkey(3, 0, "", false, false)}
	var plans []*Plan
	for _, k := range keys {
		p, _, err := c.Acquire(k)
		if err != nil {
			t.Fatal(err)
		}
		plans = append(plans, p)
	}
	// All three in flight: nothing idle, nothing evictable.
	if st := c.Stats(); st.Idle != 0 || st.Evictions != 0 {
		t.Fatalf("in-flight plans counted as idle: %+v", st)
	}
	for _, p := range plans {
		c.Release(p)
	}
	st := c.Stats()
	if st.Idle != 2 || st.Evictions != 1 {
		t.Fatalf("stats after releasing 3 into cap 2 = %+v, want Idle=2 Evictions=1", st)
	}
	// The evicted plan is the oldest release: {N:1}. Its key must now be a
	// cold miss; the surviving two stay warm.
	if _, hit, _ := c.Acquire(keys[0]); hit {
		t.Fatalf("evicted key served warm")
	}
	if _, hit, _ := c.Acquire(keys[1]); !hit {
		t.Fatalf("retained key %v served cold", keys[1])
	}
	if _, hit, _ := c.Acquire(keys[2]); !hit {
		t.Fatalf("retained key %v served cold", keys[2])
	}
}

func TestPlanCacheDisabled(t *testing.T) {
	c := NewPlanCache(-1, nbody.RetryPolicy{})
	builds := fakeBuild(c)
	k := tkey(7, 0, "", false, false)
	for i := 0; i < 3; i++ {
		p, hit, err := c.Acquire(k)
		if err != nil || hit {
			t.Fatalf("disabled cache served warm")
		}
		c.Release(p)
	}
	if got := builds.Load(); got != 3 {
		t.Fatalf("disabled cache built %d plans for 3 requests, want 3", got)
	}
}

func TestPlanCacheDoubleReleasePanics(t *testing.T) {
	c := NewPlanCache(2, nbody.RetryPolicy{})
	fakeBuild(c)
	p, _, _ := c.Acquire(tkey(1, 0, "", false, false))
	c.Release(p)
	defer func() {
		if recover() == nil {
			t.Fatalf("double Release did not panic")
		}
	}()
	c.Release(p)
}

// TestPlanCacheExclusivity hammers one key from many goroutines and proves
// no plan is ever held by two requests at once: each holder CASes a
// per-plan flag that any concurrent holder would trip over.
func TestPlanCacheExclusivity(t *testing.T) {
	c := NewPlanCache(4, nbody.RetryPolicy{})
	fakeBuild(c)

	var mu sync.Mutex
	held := map[*Plan]bool{}
	key := tkey(64, 2, "fast", false, false)

	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				p, _, err := c.Acquire(key)
				if err != nil {
					t.Error(err)
					return
				}
				mu.Lock()
				if held[p] {
					mu.Unlock()
					t.Error("plan handed to two holders at once")
					return
				}
				held[p] = true
				mu.Unlock()

				mu.Lock()
				held[p] = false
				mu.Unlock()
				c.Release(p)
			}
		}()
	}
	wg.Wait()
	st := c.Stats()
	if st.Hits+st.Misses != 16*200 {
		t.Fatalf("accounting lost requests: %+v", st)
	}
}

// TestPlanReuseBitwise exercises the real constructor: a warm plan must
// reproduce its own cold solve bitwise, and both must match a fresh
// solver of the same shape — the contract that makes serving cached plans
// indistinguishable from building one per request.
func TestPlanReuseBitwise(t *testing.T) {
	const n = 256
	key := tkey(n, 2, "fast", false, false)
	c := NewPlanCache(2, nbody.RetryPolicy{})

	sys := nbody.NewUniformSystem(n, 42)
	ctx := context.Background()

	p, hit, err := c.Acquire(key)
	if err != nil || hit {
		t.Fatalf("cold Acquire: hit=%v err=%v", hit, err)
	}
	if err := p.Ladder.PotentialsIntoCtx(ctx, p.Phi, sys); err != nil {
		t.Fatal(err)
	}
	cold := append([]float64(nil), p.Phi...)
	c.Release(p)

	p2, hit, err := c.Acquire(key)
	if err != nil || !hit {
		t.Fatalf("warm Acquire: hit=%v err=%v", hit, err)
	}
	if p2 != p {
		t.Fatalf("warm Acquire returned a different plan")
	}
	if err := p2.Ladder.PotentialsIntoCtx(ctx, p2.Phi, sys); err != nil {
		t.Fatal(err)
	}
	for i := range cold {
		if p2.Phi[i] != cold[i] {
			t.Fatalf("phi[%d]: warm %v != cold %v", i, p2.Phi[i], cold[i])
		}
	}
	c.Release(p2)

	// A fresh same-shape solver agrees bitwise with the cached plan.
	fresh, err := nbody.NewAnderson(Domain(), nbody.Options{Accuracy: nbody.Fast, Depth: key.Plan.Depth})
	if err != nil {
		t.Fatal(err)
	}
	phi, err := fresh.Potentials(sys)
	if err != nil {
		t.Fatal(err)
	}
	for i := range cold {
		if phi[i] != cold[i] {
			t.Fatalf("phi[%d]: fresh %v != plan %v", i, phi[i], cold[i])
		}
	}
}

// TestPlanCacheBuildError proves a failing construction surfaces to the
// caller and leaves no residue in the cache.
func TestPlanCacheBuildError(t *testing.T) {
	c := NewPlanCache(2, nbody.RetryPolicy{})
	c.build = func(Key, nbody.RetryPolicy) (*Plan, error) {
		return nil, fmt.Errorf("%w: no such accuracy", ErrBadRequest)
	}
	if _, _, err := c.Acquire(tkey(1, 0, "", false, false)); err == nil {
		t.Fatalf("build error swallowed")
	}
	if st := c.Stats(); st.Idle != 0 || st.Shapes != 0 {
		t.Fatalf("failed build left residue: %+v", st)
	}
}
