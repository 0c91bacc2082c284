package nbody

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"nbody/internal/dpfmm"
)

// TestEntryPointsAreSolveInto holds every public potential and force method
// of the 3-D solvers to the one contract they are built on: for each solver
// — and for a Resilient with that solver as rung 0 — each method's bits
// equal solveInto's, and a field the solver cannot compute is an error of
// every force method.
func TestEntryPointsAreSolveInto(t *testing.T) {
	sys := NewUniformSystem(512, 40)
	box := sys.BoundingBox()
	a, err := NewAnderson(box, Options{Depth: 3})
	if err != nil {
		t.Fatal(err)
	}
	d, err := NewDataParallel(8, box, Options{Depth: 3}, dpfmm.LinearizedAliased)
	if err != nil {
		t.Fatal(err)
	}
	rungs := []intoSolver{a, d, NewBarnesHut(box, 0.5), NewDirect()}
	solvers := append([]intoSolver{DirectAccelerator{}}, rungs...)
	for _, rung := range rungs {
		r, err := NewResilient(RetryPolicy{}, rung)
		if err != nil {
			t.Fatal(err)
		}
		solvers = append(solvers, r)
	}

	ctx := context.Background()
	n := sys.Len()
	for _, sv := range solvers {
		name := fmt.Sprintf("%T(%s)", sv, sv.Name())
		wantPhi := make([]float64, n)
		if err := sv.solveInto(nil, sys, wantPhi, nil); err != nil {
			t.Fatalf("%s: solveInto potentials: %v", name, err)
		}
		wantFPhi, wantAcc := make([]float64, n), make([]Vec3, n)
		fieldErr := sv.solveInto(nil, sys, wantFPhi, wantAcc)
		if fieldErr != nil && !errors.Is(fieldErr, errRungUnsupported) {
			t.Fatalf("%s: solveInto forces: %v", name, fieldErr)
		}

		potential := map[string]func() ([]float64, error){
			"Potentials": func() ([]float64, error) { return sv.Potentials(sys) },
		}
		if m, ok := sv.(interface {
			PotentialsCtx(context.Context, *System) ([]float64, error)
		}); ok {
			potential["PotentialsCtx"] = func() ([]float64, error) { return m.PotentialsCtx(ctx, sys) }
		}
		if m, ok := sv.(interface {
			PotentialsInto([]float64, *System) error
		}); ok {
			potential["PotentialsInto"] = func() ([]float64, error) {
				phi := make([]float64, n)
				return phi, m.PotentialsInto(phi, sys)
			}
		}
		if m, ok := sv.(interface {
			PotentialsIntoCtx(context.Context, []float64, *System) error
		}); ok {
			potential["PotentialsIntoCtx"] = func() ([]float64, error) {
				phi := make([]float64, n)
				return phi, m.PotentialsIntoCtx(ctx, phi, sys)
			}
		}
		for method, call := range potential {
			phi, err := call()
			if err != nil {
				t.Errorf("%s.%s: %v", name, method, err)
				continue
			}
			for i := range phi {
				if phi[i] != wantPhi[i] {
					t.Errorf("%s.%s: phi[%d] = %v, solveInto gives %v", name, method, i, phi[i], wantPhi[i])
					break
				}
			}
		}

		force := map[string]func() ([]float64, []Vec3, error){}
		if m, ok := sv.(Accelerator); ok {
			force["Accelerations"] = func() ([]float64, []Vec3, error) { return m.Accelerations(sys) }
		}
		if m, ok := sv.(interface {
			AccelerationsCtx(context.Context, *System) ([]float64, []Vec3, error)
		}); ok {
			force["AccelerationsCtx"] = func() ([]float64, []Vec3, error) { return m.AccelerationsCtx(ctx, sys) }
		}
		if m, ok := sv.(AcceleratorInto); ok {
			force["AccelerationsInto"] = func() ([]float64, []Vec3, error) {
				phi, acc := make([]float64, n), make([]Vec3, n)
				return phi, acc, m.AccelerationsInto(phi, acc, sys)
			}
		}
		if m, ok := sv.(interface {
			AccelerationsIntoCtx(context.Context, []float64, []Vec3, *System) error
		}); ok {
			force["AccelerationsIntoCtx"] = func() ([]float64, []Vec3, error) {
				phi, acc := make([]float64, n), make([]Vec3, n)
				return phi, acc, m.AccelerationsIntoCtx(ctx, phi, acc, sys)
			}
		}
		if m, ok := sv.(interface{ Accelerations(*System) []Vec3 }); ok {
			force["Accelerations"] = func() ([]float64, []Vec3, error) { return wantFPhi, m.Accelerations(sys), nil }
		}
		for method, call := range force {
			phi, acc, err := call()
			if fieldErr != nil {
				if !errors.Is(err, errRungUnsupported) {
					t.Errorf("%s.%s: got %v, want the solver's %v", name, method, err, fieldErr)
				}
				continue
			}
			if err != nil {
				t.Errorf("%s.%s: %v", name, method, err)
				continue
			}
			for i := range phi {
				if phi[i] != wantFPhi[i] || acc[i] != wantAcc[i] {
					t.Errorf("%s.%s: particle %d (%v, %v), solveInto gives (%v, %v)",
						name, method, i, phi[i], acc[i], wantFPhi[i], wantAcc[i])
					break
				}
			}
		}
	}
}
