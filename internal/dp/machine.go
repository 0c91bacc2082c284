// Package dp simulates the data-parallel machine model of the CM-5/5E for
// which Hu & Johnsson wrote their Connection Machine Fortran implementation:
// a collection of processing nodes, each with four Vector Units (VUs), with
// block-distributed multidimensional arrays, CSHIFT communication, array
// aliasing (explicit VU-subgrid addressing), segmented scans, general sends,
// and broadcast/spread collectives.
//
// Every primitive both (a) actually moves the data, in parallel over the
// host's cores, so algorithms built on the package compute real answers, and
// (b) maintains element-accurate communication counters and a calibrated
// cycle cost model, so the data-motion and efficiency experiments of the
// paper (Tables 3-4, Figures 7-9) are reproducible as machine-checkable
// quantities rather than 1996 wall clocks. See DESIGN.md for the
// substitution argument.
package dp

import (
	"fmt"

	"nbody/internal/geom"
)

// Machine is a simulated distributed-memory machine: Nodes processing nodes
// of VUsPerNode vector units each. All layouts and costs are expressed per
// VU, following the paper ("for clarity, we will use VUs instead of
// processing nodes").
type Machine struct {
	Nodes      int
	VUsPerNode int
	Cost       CostModel

	counters Counters
	perVU    []vuState
}

type vuState struct {
	computeCycles float64
	_             [7]float64 // pad to a cache line to avoid false sharing
}

// NewMachine creates a machine with a power-of-two number of nodes. The
// CM-5/5E had 4 VUs per node; vusPerNode 0 selects that default.
func NewMachine(nodes, vusPerNode int, cost CostModel) (*Machine, error) {
	if !geom.IsPow2(nodes) {
		return nil, fmt.Errorf("dp: nodes = %d is not a power of two", nodes)
	}
	if vusPerNode == 0 {
		vusPerNode = 4
	}
	if !geom.IsPow2(vusPerNode) {
		return nil, fmt.Errorf("dp: vusPerNode = %d is not a power of two", vusPerNode)
	}
	cost = cost.normalize()
	return &Machine{
		Nodes:      nodes,
		VUsPerNode: vusPerNode,
		Cost:       cost,
		perVU:      make([]vuState, nodes*vusPerNode),
	}, nil
}

// NumVUs returns the total number of vector units.
func (m *Machine) NumVUs() int { return m.Nodes * m.VUsPerNode }

// String implements fmt.Stringer.
func (m *Machine) String() string {
	return fmt.Sprintf("Machine(%d nodes x %d VUs)", m.Nodes, m.VUsPerNode)
}

// ChargeCompute records flops executed on one VU at a given arithmetic
// efficiency (fraction of the VU's peak flop rate actually attained, e.g.
// the gemm efficiency for the matrix shape in flight).
func (m *Machine) ChargeCompute(vu int, flops int64, efficiency float64) {
	if efficiency <= 0 {
		efficiency = 1
	}
	m.perVU[vu].computeCycles += float64(flops) / (m.Cost.FlopsPerCycle * efficiency)
	m.counters.addFlops(flops)
}

// ComputeCycles returns the modeled compute cycles accumulated by a VU.
func (m *Machine) ComputeCycles(vu int) float64 { return m.perVU[vu].computeCycles }

// MaxComputeCycles returns the critical-path compute cycles over all VUs
// (load imbalance shows up as max > mean).
func (m *Machine) MaxComputeCycles() (maxC, meanC float64) {
	for i := range m.perVU {
		c := m.perVU[i].computeCycles
		if c > maxC {
			maxC = c
		}
		meanC += c
	}
	meanC /= float64(len(m.perVU))
	return maxC, meanC
}

// AccountSend records the data motion of a caller-implemented general send
// (used by algorithm layers that route data themselves, e.g. the particle
// reshape): off words moved between VUs, local words that stayed on-VU.
func (m *Machine) AccountSend(off, local int64) {
	c := &m.counters
	atomicAdd64(&c.SendCalls, 1)
	atomicAdd64(&c.SendWords, off)
	atomicAdd64(&c.SendLocal, local)
	nvu := float64(m.NumVUs())
	c.addCommCycles(m.Cost.SendLatencyCycles + float64(off)*m.Cost.SendCyclesPerWord/nvu)
	c.addCopyCycles(float64(local) * m.Cost.CopyCyclesPerWord / nvu)
}

// AccountGhostFetch records an aliased ghost-region exchange implemented by
// the caller: calls CSHIFT-like operations, off words moved between VUs and
// local words sectioned within VUs.
func (m *Machine) AccountGhostFetch(calls, off, local int64) {
	c := &m.counters
	atomicAdd64(&c.CShifts, calls)
	atomicAdd64(&c.OffVUWords, off)
	atomicAdd64(&c.LocalWords, local)
	nvu := float64(m.NumVUs())
	c.addCommCycles(float64(calls)*m.Cost.ShiftLatencyCycles + float64(off)*m.Cost.ShiftCyclesPerWord/nvu)
	c.addCopyCycles(float64(local) * m.Cost.CopyCyclesPerWord / nvu)
}

// Counters returns a snapshot of the accumulated communication counters.
func (m *Machine) Counters() Counters { return m.counters.snapshot() }

// ResetCounters zeroes all counters and per-VU compute cycles.
func (m *Machine) ResetCounters() {
	m.counters = Counters{}
	for i := range m.perVU {
		m.perVU[i].computeCycles = 0
	}
}
