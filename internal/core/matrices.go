package core

import (
	"slices"
	"sync"

	"nbody/internal/blas"
	"nbody/internal/geom"
	"nbody/internal/metrics"
	"nbody/internal/pipeline"
	"nbody/internal/sphere"
	"nbody/internal/tree"
)

// TranslationSet holds the precomputed translation matrices of Section
// 3.3.3. All matrices are expressed in units of the box side at the finer of
// the two levels involved, so one set serves every level of the hierarchy
// (the paper: "the same matrices can be used for all levels").
//
// Every matrix is stored TRANSPOSED — row j, column i maps (weighted) source
// potential value g_j to the potential at destination integration point i —
// because that is the orientation the strided row kernel streams
// (blas.DgemmRowsT). A translation is dst += T * src, applied to a lattice
// of boxes by DgemmRowsT or to one box by blas.DgemvT, from the same
// resident copy and in the same reduction order.
//
// A set is immutable once NewTranslationSet returns: nothing writes a matrix
// afterwards, which is what lets every Solver of the process that needs the
// same matrices read one copy (sharedTranslationSet).
type TranslationSet struct {
	K int

	// T1[oct]: child (side 1) outer values -> contribution at parent (side
	// 2) outer points.
	T1 [8]blas.Matrix
	// T3[oct]: parent (side 2) inner values -> contribution at child (side
	// 1) inner points.
	T3 [8]blas.Matrix
	// T2T indexed by relative offset in the cube [-(2d+1), 2d+1]^3 via
	// t2Index: same-size (side 1) source outer values -> target inner
	// points. The full cube is generated "for ease of indexing" exactly as
	// the paper does (1331 matrices for d = 2, including the 125 never
	// used, which stay zero-sized).
	T2T []blas.Matrix
	// T2Super[oct][i] takes a parent-level (side 2) source outer to the
	// child (side 1) target inner points of a child of octant oct, for the
	// i-th parent offset of tree.SupernodeDecomposition(d, oct). Empty
	// without cfg.Supernodes.
	T2Super [8][]blas.Matrix

	t2Side  int // 2*(2d+1)+1
	t2Built int // interactive-field matrices computed into T2T
}

// NewTranslationSet computes all matrices for a normalized configuration.
// This is the "compute everything locally" strategy; the data-parallel
// layer implements the compute-in-parallel + replicate alternatives of
// Section 3.3.4 on top of the same builders.
func NewTranslationSet(cfg Config) *TranslationSet {
	cfg, err := cfg.normalize()
	if err != nil {
		panic("core: NewTranslationSet on invalid config: " + err.Error())
	}
	rule := cfg.Rule
	k := rule.K()
	ts := &TranslationSet{K: k}

	// T1 and T3: child centers sit at (+-1/2, +-1/2, +-1/2) from the parent
	// center in child-side units; child radius = Ratio, parent radius =
	// 2*Ratio.
	aChild := cfg.RadiusRatio
	aParent := 2 * cfg.RadiusRatio
	for oct := 0; oct < 8; oct++ {
		cc := octantOffset(oct) // child center relative to parent center
		t1 := blas.NewMatrix(k, k)
		t3 := blas.NewMatrix(k, k)
		for i, si := range rule.Points {
			// T1 destination: parent outer point, relative to child center.
			xp := si.Scale(aParent).Sub(cc)
			rp := xp.Norm()
			up := xp.Scale(1 / rp)
			// T3 destination: child inner point, relative to parent center.
			xc := cc.Add(si.Scale(aChild))
			rc := xc.Norm()
			var uc geom.Vec3
			if rc > 0 {
				uc = xc.Scale(1 / rc)
			}
			for j, sj := range rule.Points {
				t1.Set(j, i, rule.W[j]*outerKernel(cfg.M, aChild, rp, sj.Dot(up)))
				t3.Set(j, i, rule.W[j]*innerKernel(cfg.M, aParent, rc, sj.Dot(uc)))
			}
		}
		ts.T1[oct] = t1
		ts.T3[oct] = t3
	}

	// T2: all offsets in [-(2d+1), 2d+1]^3, same-size boxes.
	bound := tree.InteractiveOffsetBound(cfg.Separation)
	side := 2*bound + 1
	ts.t2Side = side
	ts.T2T = make([]blas.Matrix, side*side*side)
	a := cfg.RadiusRatio
	for dz := -bound; dz <= bound; dz++ {
		for dy := -bound; dy <= bound; dy++ {
			for dx := -bound; dx <= bound; dx++ {
				off := geom.Coord3{X: dx, Y: dy, Z: dz}
				if off.ChebDist(geom.Coord3{}) <= cfg.Separation {
					continue // near field: never used, left as zero matrix
				}
				// The stored offset o satisfies source = target + o, so the
				// target center sits at -o relative to the source center.
				rel := geom.Vec3{X: -float64(dx), Y: -float64(dy), Z: -float64(dz)}
				ts.T2T[ts.t2Index(off)] = t2MatrixT(cfg, rel, a, a)
				ts.t2Built++
			}
		}
	}

	// Supernode matrices: parent-level (side 2, radius 2*Ratio) sources.
	if cfg.Supernodes {
		for oct := 0; oct < 8; oct++ {
			offs := tree.SupernodeDecomposition(cfg.Separation, oct).ParentOffsets
			delta := octantOffset(oct)
			ts.T2Super[oct] = make([]blas.Matrix, len(offs))
			for i, t := range offs {
				// Target child center relative to source parent center, in
				// child-side units: -(2t - delta).
				rel := geom.Vec3{X: float64(2 * t.X), Y: float64(2 * t.Y), Z: float64(2 * t.Z)}.Sub(delta)
				ts.T2Super[oct][i] = t2MatrixT(cfg, rel.Scale(-1), aParent, aChild)
			}
		}
	}
	return ts
}

// tsMemo holds the sets the process's solvers share, most recently used
// first. The matrices depend only on the rule, M, the radius ratio, the
// separation and whether supernodes are on — not on N, depth or domain — so
// the second plan of a preset, a plan at another depth and a second in-process
// replica neither recompute them (the paper's "compute once and replicate",
// Section 3.3.4) nor hold a second copy (1.4 MB at K = 12, 92 MB at K = 98).
// Past tsMemoCap the least recently used entry is dropped; its set lives on
// for as long as a Solver still references it.
var tsMemo struct {
	sync.Mutex
	entries []*tsEntry
}

const tsMemoCap = 4

type tsEntry struct {
	cfg  Config // the key: normalized, with a private copy of the rule
	once sync.Once
	ts   *TranslationSet
}

// sameMatrices reports whether two normalized configurations have the same
// translation matrices, by value.
func sameMatrices(a, b Config) bool {
	return a.M == b.M && a.RadiusRatio == b.RadiusRatio &&
		a.Separation == b.Separation && a.Supernodes == b.Supernodes &&
		slices.Equal(a.Rule.Points, b.Rule.Points) && slices.Equal(a.Rule.W, b.Rule.W)
}

// sharedTranslationSet returns the process's set for a normalized
// configuration, building it on first use. The build's PhaseSetup time and
// flops go to rec, the recorder of the solver that asked first; every other
// solver's counts say what it ran, which is nothing.
func sharedTranslationSet(cfg Config, rec *metrics.Rec) *TranslationSet {
	tsMemo.Lock()
	i := slices.IndexFunc(tsMemo.entries, func(e *tsEntry) bool { return sameMatrices(e.cfg, cfg) })
	var e *tsEntry
	if i >= 0 {
		e = tsMemo.entries[i]
		tsMemo.entries = slices.Delete(tsMemo.entries, i, i+1)
	} else {
		e = &tsEntry{cfg: cfg}
		e.cfg.Rule = &sphere.Rule{Points: slices.Clone(cfg.Rule.Points), W: slices.Clone(cfg.Rule.W)}
	}
	tsMemo.entries = slices.Insert(tsMemo.entries, 0, e)
	if len(tsMemo.entries) > tsMemoCap {
		tsMemo.entries = slices.Delete(tsMemo.entries, tsMemoCap, len(tsMemo.entries))
	}
	tsMemo.Unlock()
	// Built outside the lock: a K = 98 build takes seconds and must hold up
	// only the solvers waiting for that very set.
	e.once.Do(func() {
		pipeline.Setup(rec, func() { e.ts = NewTranslationSet(cfg) })
		rec.AddFlops(PhaseSetup, int64(2*8+e.ts.t2Built)*TranslationMatrixFlops(e.ts.K, cfg.M))
	})
	return e.ts
}

// BuildOneMatrix constructs a single representative translation matrix for
// the normalized configuration (used by the precomputation experiments of
// Section 3.3.4, which need to time individual matrix builds). The variant
// index selects different relative geometries so repeated builds do not
// degenerate.
func BuildOneMatrix(cfg Config, variant int) blas.Matrix {
	cfg, err := cfg.normalize()
	if err != nil {
		panic("core: BuildOneMatrix on invalid config: " + err.Error())
	}
	offs := []geom.Vec3{
		{X: 3, Y: 0, Z: 0}, {X: 3, Y: 1, Z: 0}, {X: 3, Y: 1, Z: 1}, {X: 4, Y: 2, Z: 0},
		{X: -3, Y: 2, Z: 1}, {X: 0, Y: -4, Z: 3}, {X: 5, Y: 0, Z: -2}, {X: -3, Y: -3, Z: -3},
	}
	a := cfg.RadiusRatio
	return t2MatrixT(cfg, offs[variant%len(offs)], a, a)
}

// t2MatrixT builds the (transposed) outer -> inner conversion matrix for a
// target box whose center sits at rel (in units of the finer box side) from
// the source center, with source outer radius aSrc and target inner radius
// aDst.
func t2MatrixT(cfg Config, rel geom.Vec3, aSrc, aDst float64) blas.Matrix {
	rule := cfg.Rule
	k := rule.K()
	t := blas.NewMatrix(k, k)
	for i, si := range rule.Points {
		x := rel.Add(si.Scale(aDst))
		r := x.Norm()
		u := x.Scale(1 / r)
		for j, sj := range rule.Points {
			t.Set(j, i, rule.W[j]*outerKernel(cfg.M, aSrc, r, sj.Dot(u)))
		}
	}
	return t
}

// t2Index maps a relative offset to its slot in the T2 slice.
func (ts *TranslationSet) t2Index(o geom.Coord3) int {
	b := (ts.t2Side - 1) / 2
	return ((o.Z+b)*ts.t2Side+(o.Y+b))*ts.t2Side + (o.X + b)
}

// t2tFor returns the transposed conversion matrix for a relative offset in
// the interactive field (see T2T).
func (ts *TranslationSet) t2tFor(o geom.Coord3) blas.Matrix { return ts.T2T[ts.t2Index(o)] }

// ApplyT2 converts one box: dst += T2(o) * src, for source = target + o.
func (ts *TranslationSet) ApplyT2(o geom.Coord3, src, dst []float64) {
	blas.DgemvT(ts.t2tFor(o), src, dst)
}

// NumT2Matrices returns the size of the full T2 indexing cube: 1331 for
// separation 2, matching the paper's count.
func (ts *TranslationSet) NumT2Matrices() int { return len(ts.T2T) }

// MatrixBytes returns the memory footprint of the T2 matrix store in bytes
// (the paper: 1.53 MB for K = 12, 53.9 MB for K = 72).
func (ts *TranslationSet) MatrixBytes() int64 {
	return int64(len(ts.T2T)) * int64(ts.K) * int64(ts.K) * 8
}

// octantOffset returns the child-center offset from the parent center in
// child-side units for an octant index.
func octantOffset(oct int) geom.Vec3 {
	v := geom.Vec3{X: -0.5, Y: -0.5, Z: -0.5}
	if oct&1 != 0 {
		v.X = 0.5
	}
	if oct&2 != 0 {
		v.Y = 0.5
	}
	if oct&4 != 0 {
		v.Z = 0.5
	}
	return v
}

// TranslationMatrixFlops is the cost of building one K x K translation
// matrix: K^2 kernel evaluations of M+1 terms each.
func TranslationMatrixFlops(k, m int) int64 {
	return int64(k) * int64(k) * int64(m+1) * FlopsKernel
}
